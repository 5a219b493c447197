#include "workloads.hh"

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "core/coro/coro_controller.hh"
#include "core/rtos_env/rtos_controller.hh"
#include "ftl/ftl.hh"
#include "host/hic.hh"
#include "host/nvme/nvme.hh"
#include "obs/power/power.hh"
#include "reliability/rain.hh"
#include "ssd/sharded_ssd.hh"
#include "ssd/ssd.hh"

namespace simbench {
namespace {

using namespace babol;

constexpr std::uint32_t kQueueDepth = 32;

/** Host buffers in the device's staging DRAM: clear of the NVMe rings
 *  at 1 MiB and of the FTL/HIC scratch pages at the top. */
constexpr std::uint64_t kHostBufBase = 8ull << 20;

// --- Workload sizes -------------------------------------------------

/** read_rand: 16 MiB extent, read at random. */
constexpr std::uint64_t kReadExtentPages = 1024;
constexpr std::uint64_t kReadIos = 4500;

/** write_gc_remount: 64-page blocks so GC cycles every block several
 *  times per run; warm-up overwrites (set-up) bring GC to steady state
 *  before the measured overwrites, then a read-back sample after mount. */
constexpr std::uint32_t kGcPagesPerBlock = 64;
constexpr std::uint64_t kWarmupOverwrites = 4000;
constexpr std::uint64_t kOverwrites = 2000;
constexpr std::uint64_t kReadBack = 1000;

/** sharded_nvme_mixed: 4 KiB I/Os over an 8 MiB extent, 70% reads. */
constexpr std::uint64_t kMixedExtentPages = 512;
constexpr std::uint64_t kMixedIos = 1500;
constexpr double kMixedReadShare = 0.7;

/** Set-up is the same for every seed; only the measured I/O varies. */
constexpr std::uint64_t kPreconditionSeed = 0x9c0ffee;

// --- Stamped closed loop --------------------------------------------

/** The generation of every stamp unit's last write, and which units an
 *  I/O is in flight on (a unit never has two, so every read has exactly
 *  one right answer). */
struct Ledger
{
    explicit Ledger(std::uint64_t units) : gen(units, 0), busy(units, 0) {}
    std::vector<std::uint32_t> gen;
    std::vector<std::uint8_t> busy;
};

/** One host I/O; key counts I/O-sized units. */
struct Pick
{
    std::uint64_t key = 0;
    bool write = false;
};

using KeyFn = std::function<std::uint64_t()>;
using KindFn = std::function<bool()>; //!< true = write
using Done = std::function<void(bool ok)>;
using SubmitFn = std::function<void(const Pick &, std::uint64_t addr, Done)>;

/**
 * Queue-depth-32 closed loop: each completion issues the next I/O.
 * Writes stamp their buffer before submission; reads are compared in
 * full against the stamp of the unit's last write.
 */
class ClosedLoop
{
  public:
    ClosedLoop(EventQueue &eq, dram::DramBuffer &dram,
               std::uint32_t io_bytes, std::uint32_t stamp_bytes,
               Ledger &led, Oracle &oracle, Tracer *tr)
        : eq_(eq),
          dram_(dram),
          ioBytes_(io_bytes),
          stampBytes_(stamp_bytes),
          perIo_(io_bytes / stamp_bytes),
          led_(led),
          oracle_(oracle),
          tr_(tr),
          buf_(io_bytes)
    {}

    /** Issue @p count I/Os; a key with an I/O in flight is redrawn. */
    void
    start(std::uint64_t count, KeyFn key, KindFn kind, SubmitFn submit,
          std::vector<double> *lat)
    {
        count_ = count;
        key_ = std::move(key);
        kind_ = std::move(kind);
        submit_ = std::move(submit);
        lat_ = lat;
        Scope s(tr_, Layer::Host);
        for (std::uint32_t slot = 0; slot < kQueueDepth; ++slot)
            issue(slot);
    }

    std::uint64_t completed() const { return completed_; }

  private:
    bool
    busy(std::uint64_t key) const
    {
        return led_.busy[key * perIo_] != 0;
    }

    void
    issue(std::uint32_t slot)
    {
        if (issued_ == count_)
            return;
        Pick p{key_(), kind_()};
        while (busy(p.key))
            p.key = key_();
        ++issued_;
        ++oracle_.attempted;
        const std::uint64_t first = p.key * perIo_;
        for (std::uint32_t j = 0; j < perIo_; ++j)
            led_.busy[first + j] = 1;
        const std::uint64_t addr =
            kHostBufBase + std::uint64_t(slot) * ioBytes_;
        if (p.write) {
            for (std::uint32_t j = 0; j < perIo_; ++j) {
                const std::uint64_t unit = first + j;
                stamp(std::span(buf_).subspan(j * stampBytes_, stampBytes_),
                      unit, ++led_.gen[unit]);
            }
            dram_.write(addr, buf_);
        }
        const Tick t0 = eq_.now();
        submit_(p, addr, [this, slot, p, t0, addr](bool ok) {
            finish(slot, p, t0, addr, ok);
        });
    }

    void
    finish(std::uint32_t slot, Pick p, Tick t0, std::uint64_t addr,
           bool ok)
    {
        Scope s(tr_, Layer::Host);
        if (lat_) {
            lat_->push_back(static_cast<double>(eq_.now() - t0) /
                            static_cast<double>(ticks::perUs));
        }
        const std::uint64_t first = p.key * perIo_;
        if (!ok) {
            ++oracle_.failed;
        } else if (!p.write) {
            dram_.read(addr, buf_);
            bool match = true;
            for (std::uint32_t j = 0; j < perIo_ && match; ++j) {
                match = stampMatches(
                    std::span(buf_).subspan(j * stampBytes_, stampBytes_),
                    first + j, led_.gen[first + j], scratch_);
            }
            if (!match)
                ++oracle_.mismatched;
        }
        for (std::uint32_t j = 0; j < perIo_; ++j)
            led_.busy[first + j] = 0;
        ++completed_;
        issue(slot);
    }

    EventQueue &eq_;
    dram::DramBuffer &dram_;
    std::uint32_t ioBytes_;
    std::uint32_t stampBytes_;
    std::uint32_t perIo_;
    Ledger &led_;
    Oracle &oracle_;
    Tracer *tr_;

    std::uint64_t count_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    KeyFn key_;
    KindFn kind_;
    SubmitFn submit_;
    std::vector<double> *lat_ = nullptr;
    std::vector<std::uint8_t> buf_;
    std::vector<std::uint8_t> scratch_;
};

/** Page I/O straight into the FTL. */
SubmitFn
ftlSubmit(ftl::PageFtl &ftl, Tracer *tr)
{
    return [&ftl, tr](const Pick &p, std::uint64_t addr, Done done) {
        Scope s(tr, Layer::Ftl);
        if (p.write)
            ftl.writePage(p.key, addr, std::move(done));
        else
            ftl.readPage(p.key, addr, std::move(done));
    };
}

/** Keys 0, 1, 2, ... in order. */
KeyFn
sequentialKeys()
{
    return [k = std::uint64_t(0)]() mutable { return k++; };
}

/** Keys drawn uniformly from [0, n). */
KeyFn
randomKeys(std::uint64_t n, std::uint64_t seed)
{
    return [n, rng = Stream(seed)]() mutable { return rng.below(n); };
}

KindFn
always(bool write)
{
    return [write] { return write; };
}

/**
 * Exactly kMixedReadShare reads in every run of ten I/Os, in shuffled
 * order: the read/write mix is the same for every seed, so only the
 * order and the addresses vary.
 */
KindFn
mixedKinds(std::uint64_t seed)
{
    constexpr int kRun = 10;
    constexpr int kReads = static_cast<int>(kMixedReadShare * kRun + 0.5);
    return [rng = Stream(seed), pos = kRun,
            writes = std::array<bool, kRun>{}]() mutable {
        if (pos == kRun) {
            for (int i = 0; i < kRun; ++i)
                writes[i] = i >= kReads;
            for (int i = kRun - 1; i > 0; --i)
                std::swap(writes[i], writes[rng.below(i + 1)]);
            pos = 0;
        }
        return writes[pos++];
    };
}

// --- Device assembly and counters -----------------------------------

ssd::SsdConfig
deviceConfig(const std::string &flavour, std::uint32_t channels,
             std::uint32_t ways)
{
    ssd::SsdConfig cfg;
    cfg.channels = channels;
    cfg.flavor = flavour == "hw" ? "hw-async" : flavour;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.chips = ways;
    cfg.channel.rateMT = 200;
    cfg.channel.seed = 5;
    cfg.cpuMhz = 1000;
    cfg.dramBytes = 64ull << 20;
    return cfg;
}

/** Lifetime counters of every channel of a device. */
struct Snapshot
{
    double ops = 0, opsFailed = 0;
    double busBusy = 0, segments = 0, bytesIn = 0, bytesOut = 0;
    double nandReads = 0, nandPrograms = 0, nandErases = 0;
    double cpuBusy = 0, cpuCycles = 0, cpuChannels = 0;
    double dramBytes = 0;
};

const cpu::CpuModel *
cpuOf(core::ChannelController &ctrl)
{
    if (auto *c = dynamic_cast<core::CoroController *>(&ctrl))
        return &c->cpu();
    if (auto *r = dynamic_cast<core::RtosController *>(&ctrl))
        return &r->cpu();
    return nullptr;
}

template <class Dev>
Snapshot
snapshot(Dev &dev)
{
    Snapshot s;
    for (std::uint32_t ch = 0; ch < dev.channelCount(); ++ch) {
        core::ChannelController &ctrl = dev.controller(ch);
        s.ops += ctrl.opsCompleted();
        s.opsFailed += ctrl.opsFailed();
        core::ChannelSystem &sys = dev.channelSystem(ch);
        chan::ChannelBus &bus = sys.bus();
        s.busBusy += bus.busyTicks();
        s.segments += bus.segmentsIssued();
        s.bytesIn += bus.dataBytesIn();
        s.bytesOut += bus.dataBytesOut();
        for (std::uint32_t c = 0; c < sys.chipCount(); ++c) {
            nand::Package &pkg = sys.package(c);
            for (std::uint32_t l = 0; l < pkg.lunCount(); ++l) {
                s.nandReads += pkg.lun(l).completedReads();
                s.nandPrograms += pkg.lun(l).completedPrograms();
                s.nandErases += pkg.lun(l).completedErases();
            }
        }
        if (const cpu::CpuModel *cpu = cpuOf(ctrl)) {
            s.cpuBusy += cpu->busyTicks();
            s.cpuCycles += cpu->totalCycles();
            s.cpuChannels += 1;
        }
    }
    s.dramBytes = dev.backendDram().bytesRead() +
                  dev.backendDram().bytesWritten();
    return s;
}

/** Measured-phase deltas into @p out.counts. */
void
recordDeltas(const Snapshot &a, const Snapshot &b, Tick sim_ticks,
             std::uint32_t channels, FlavourRun &out)
{
    auto &c = out.counts;
    const double span = static_cast<double>(sim_ticks);
    c["ctrl.ops_completed"] += b.ops - a.ops;
    c["ctrl.ops_failed"] += b.opsFailed - a.opsFailed;
    c["chan.busy_ticks"] += b.busBusy - a.busBusy;
    c["chan.capacity_ticks"] += span * channels;
    c["chan.segments"] += b.segments - a.segments;
    c["chan.bytes_in"] += b.bytesIn - a.bytesIn;
    c["chan.bytes_out"] += b.bytesOut - a.bytesOut;
    c["nand.reads"] += b.nandReads - a.nandReads;
    c["nand.programs"] += b.nandPrograms - a.nandPrograms;
    c["nand.erases"] += b.nandErases - a.nandErases;
    c["cpu.busy_ticks"] += b.cpuBusy - a.cpuBusy;
    c["cpu.capacity_ticks"] += span * b.cpuChannels;
    c["cpu.cycles"] += b.cpuCycles - a.cpuCycles;
    c["dram.bytes"] += b.dramBytes - a.dramBytes;
}

std::uint64_t
energyAt(Tick t)
{
    return obs::power::PowerModel::instance().grandTotalFjAt(t);
}

void
recordTracer(const Tracer *tr, std::uint32_t page_bytes, FlavourRun &out)
{
    if (!tr)
        return;
    auto &t = out.traced;
    t["host.gen_wall_s"] = tr->selfSeconds(Layer::Host);
    t["nvme.submit_wall_s"] = tr->selfSeconds(Layer::Nvme);
    t["ftl.self_wall_s"] = tr->selfSeconds(Layer::Ftl);
    t["ctrl.submit_wall_s"] = tr->selfSeconds(Layer::Ctrl);
    t["ecc.pages_decoded"] =
        static_cast<double>(tr->payloadRead) / page_bytes;
    t["ecc.pages_encoded"] =
        static_cast<double>(tr->payloadWritten) / page_bytes;
}

/** The FTL's view of the device: the device itself, or the timing
 *  decorator over it when traced. */
core::FlashBackend &
frontOf(core::FlashBackend &dev, Tracer *tr,
        std::optional<TimedBackend> &decorator)
{
    if (!tr)
        return dev;
    return decorator.emplace(dev, *tr);
}

// --- read_rand ------------------------------------------------------

FlavourRun
readRand(const std::string &flavour, const Options &opts, Tracer *tr)
{
    FlavourRun out;
    const double t0 = wallNow();
    EventQueue eq;
    ssd::Ssd dev(eq, "ssd", deviceConfig(flavour, 4, 4));
    std::optional<TimedBackend> decorator;
    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", frontOf(dev, tr, decorator), fcfg);
    const std::uint32_t page = ftl.pageBytes();

    Ledger led(kReadExtentPages);
    ClosedLoop fill(eq, dev.backendDram(), page, page, led, out.oracle,
                    nullptr);
    fill.start(kReadExtentPages, sequentialKeys(), always(true),
               ftlSubmit(ftl, nullptr), nullptr);
    eq.run();
    out.setupWall = wallNow() - t0;

    if (tr)
        tr->reset();
    const Snapshot s0 = snapshot(dev);
    const std::uint64_t ev0 = eq.firedCount();
    const Tick sim0 = eq.now();
    const std::uint64_t e0 = energyAt(sim0);
    const double m0 = wallNow();
    ClosedLoop io(eq, dev.backendDram(), page, page, led, out.oracle, tr);
    io.start(kReadIos, randomKeys(kReadExtentPages, opts.seed),
             always(false), ftlSubmit(ftl, tr), &out.latUs);
    const double r0 = wallNow();
    eq.run();
    out.runWall = wallNow() - r0;
    out.measureWall = wallNow() - m0;

    out.hostIos = io.completed();
    out.hostBytes = out.hostIos * page;
    out.simTicks = eq.now() - sim0;
    out.energyFj = energyAt(eq.now()) - e0;
    recordDeltas(s0, snapshot(dev), out.simTicks, dev.channelCount(), out);
    out.counts["sim.events"] += eq.firedCount() - ev0;
    out.counts["host.ios"] += out.hostIos;
    recordTracer(tr, page, out);
    return out;
}

// --- write_gc_remount -----------------------------------------------

FlavourRun
writeGcRemount(const std::string &flavour, const Options &opts, Tracer *tr)
{
    FlavourRun out;
    const double t0 = wallNow();
    EventQueue eq;
    ssd::SsdConfig cfg = deviceConfig(flavour, 4, 4);
    cfg.channel.package.geometry.pagesPerBlock = kGcPagesPerBlock;
    ssd::Ssd dev(eq, "ssd", cfg);
    std::optional<TimedBackend> decorator;
    core::FlashBackend &front = frontOf(dev, tr, decorator);
    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 8;
    fcfg.overprovision = 0.5; // 4 blocks of data, 4 spare, per chip
    auto ftl = std::make_unique<ftl::PageFtl>(eq, "ftl", front, fcfg);
    const std::uint32_t page = ftl->pageBytes();
    const std::uint64_t lpns = ftl->logicalPages();

    // Precondition: the whole logical space holds data.
    Ledger led(lpns);
    ClosedLoop fill(eq, dev.backendDram(), page, page, led, out.oracle,
                    nullptr);
    fill.start(lpns, sequentialKeys(), always(true),
               ftlSubmit(*ftl, nullptr), nullptr);
    eq.run();
    ClosedLoop warmup(eq, dev.backendDram(), page, page, led, out.oracle,
                      nullptr);
    warmup.start(kWarmupOverwrites, randomKeys(lpns, kPreconditionSeed),
                 always(true), ftlSubmit(*ftl, nullptr), nullptr);
    eq.run();
    out.setupWall = wallNow() - t0;

    if (tr)
        tr->reset();
    const Snapshot s0 = snapshot(dev);
    const std::uint64_t ev0 = eq.firedCount();
    const std::uint64_t gc0 = ftl->gcPageMoves();
    const std::uint64_t erases0 = ftl->erasesIssued();
    const std::uint64_t writes0 = ftl->hostWrites();
    const Tick sim0 = eq.now();
    const std::uint64_t e0 = energyAt(sim0);
    const double m0 = wallNow();
    double run_wall = 0;
    auto run = [&] {
        const double r0 = wallNow();
        eq.run();
        run_wall += wallNow() - r0;
    };

    // Random overwrites: every one displaces a live page, so GC runs in
    // steady state.
    ClosedLoop writes(eq, dev.backendDram(), page, page, led, out.oracle, tr);
    writes.start(kOverwrites, randomKeys(lpns, opts.seed), always(true),
                 ftlSubmit(*ftl, tr), &out.latUs);
    run();
    bool flushed = false;
    ftl->flush([&](bool ok) { flushed = ok; });
    run();
    out.counts["ftl.gc_page_moves"] += ftl->gcPageMoves() - gc0;
    out.counts["ftl.erases"] += ftl->erasesIssued() - erases0;
    out.counts["host.writes"] += ftl->hostWrites() - writes0;

    // Power cycle the FTL: a fresh instance rebuilds its map from the
    // OOB records on the same cells.
    const double mount0 = wallNow();
    const Tick mount_sim0 = eq.now();
    ftl.reset();
    ftl = std::make_unique<ftl::PageFtl>(eq, "ftl", front, fcfg);
    bool mounted = false;
    ftl->mount([&](bool ok) { mounted = ok; });
    run();
    out.counts["ftl.mount_sim_ticks"] += eq.now() - mount_sim0;
    out.counts["ftl.mount_pages_scanned"] += ftl->mountPagesScanned();
    if (tr)
        out.traced["ftl.mount_wall_s"] = wallNow() - mount0;
    if (!flushed || !mounted)
        ++out.oracle.failed;

    // Read back a random sample; every page must carry its last stamp.
    ClosedLoop reads(eq, dev.backendDram(), page, page, led, out.oracle, tr);
    reads.start(kReadBack, randomKeys(lpns, opts.seed ^ 0x5a5a),
                always(false), ftlSubmit(*ftl, tr), &out.latUs);
    run();
    out.runWall = run_wall;
    out.measureWall = wallNow() - m0;

    out.hostIos = writes.completed() + reads.completed();
    out.hostBytes = out.hostIos * page;
    out.simTicks = eq.now() - sim0;
    out.energyFj = energyAt(eq.now()) - e0;
    recordDeltas(s0, snapshot(dev), out.simTicks, dev.channelCount(), out);
    out.counts["sim.events"] += eq.firedCount() - ev0;
    out.counts["host.ios"] += out.hostIos;
    recordTracer(tr, page, out);
    return out;
}

// --- sharded_nvme_mixed ---------------------------------------------

std::uint64_t
shardEvents(ssd::ShardedSsd &dev)
{
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < dev.shardCount(); ++s)
        n += dev.engine().queue(s).firedCount();
    return n;
}

FlavourRun
shardedNvmeMixed(const std::string &flavour, const Options &opts,
                 Tracer *tr)
{
    FlavourRun out;
    const double t0 = wallNow();
    ssd::ShardedSsd dev("ssd", deviceConfig(flavour, 4, 2));
    EventQueue &eq = dev.hostQueue();
    std::optional<TimedBackend> decorator;
    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 8;
    fcfg.overprovision = 0.25;
    fcfg.reliabilityScratchPages = 8;
    ftl::PageFtl ftl(eq, "ftl", frontOf(dev, tr, decorator), fcfg);
    reliability::RainManager rain(eq, "rain", ftl);

    host::HicConfig hcfg;
    hcfg.maxInflight = 64;
    host::Hic hic(eq, "hic", ftl, hcfg);
    host::nvme::NvmeConfig ncfg;
    ncfg.queuePairs = 2;
    ncfg.qp.sqEntries = 16;
    ncfg.qp.cqEntries = 16;
    ncfg.maxInflight = 64;
    ncfg.dramBase = 1 << 20;
    host::nvme::NvmeFrontEnd fe(eq, "nvme", hic, ncfg);

    const std::uint32_t page = ftl.pageBytes();
    const std::uint32_t sector = hic.sectorBytes();
    const std::uint64_t sectors = kMixedExtentPages * hic.sectorsPerPage();

    // Precondition: whole pages straight into the FTL, each sector
    // stamped on its own.
    Ledger led(sectors);
    ClosedLoop fill(eq, dev.backendDram(), page, sector, led, out.oracle,
                    nullptr);
    fill.start(kMixedExtentPages, sequentialKeys(), always(true),
               ftlSubmit(ftl, nullptr), nullptr);
    dev.run(opts.threads);
    out.setupWall = wallNow() - t0;

    if (tr)
        tr->reset();
    const Snapshot s0 = snapshot(dev);
    const std::uint64_t ev0 = shardEvents(dev);
    const std::uint64_t msg0 = dev.engine().crossShardMessages();
    const std::uint64_t rmw0 = hic.rmwCount();
    const std::uint64_t pageops0 = hic.pageOpsIssued();
    const std::uint64_t parity0 = rain.parityWrites();
    const std::uint64_t sealed0 = rain.stripesSealed();
    const std::uint64_t gc0 = ftl.gcPageMoves();
    const std::uint64_t erases0 = ftl.erasesIssued();
    const std::uint64_t writes0 = ftl.hostWrites();
    const Tick sim0 = eq.now();
    const std::uint64_t e0 = energyAt(sim0);
    const double m0 = wallNow();

    // 4 KiB commands through the queue pairs. A full submission queue
    // parks the command until the host's CQ drain frees a slot.
    std::uint64_t sq_waits = 0;
    std::function<void(const host::nvme::NvmeCommand &, Done)> send =
        [&](const host::nvme::NvmeCommand &cmd, Done done) {
            Scope s(tr, Layer::Nvme);
            if (fe.trySubmit(host::nvme::NvmeFrontEnd::kAnyQueue, cmd, done))
                return;
            ++sq_waits;
            fe.onSqSpace(host::nvme::NvmeFrontEnd::kAnyQueue,
                         [&send, cmd, done] { send(cmd, done); });
        };
    ClosedLoop io(eq, dev.backendDram(), sector, sector, led, out.oracle,
                  tr);
    io.start(kMixedIos, randomKeys(sectors, opts.seed),
             mixedKinds(opts.seed ^ 0xa5a5),
             [&](const Pick &p, std::uint64_t addr, Done done) {
                 host::nvme::NvmeCommand cmd;
                 cmd.write = p.write;
                 cmd.slba = p.key;
                 cmd.sectors = 1;
                 cmd.prp = addr;
                 send(cmd, std::move(done));
             },
             &out.latUs);
    const double r0 = wallNow();
    dev.run(opts.threads);
    out.runWall = wallNow() - r0;
    out.measureWall = wallNow() - m0;

    out.hostIos = io.completed();
    out.hostBytes = out.hostIos * sector;
    out.simTicks = eq.now() - sim0;
    out.energyFj = energyAt(eq.now()) - e0;
    recordDeltas(s0, snapshot(dev), out.simTicks, dev.channelCount(), out);
    auto &c = out.counts;
    c["sim.events"] += shardEvents(dev) - ev0;
    c["sim.windows"] += dev.engine().windowCount();
    c["sim.cross_shard_msgs"] += dev.engine().crossShardMessages() - msg0;
    c["host.ios"] += out.hostIos;
    c["hic.rmw_count"] += hic.rmwCount() - rmw0;
    c["hic.page_ops"] += hic.pageOpsIssued() - pageops0;
    c["nvme.sq_waits"] += sq_waits;
    c["rain.parity_writes"] += rain.parityWrites() - parity0;
    c["rain.stripes_sealed"] += rain.stripesSealed() - sealed0;
    c["ftl.gc_page_moves"] += ftl.gcPageMoves() - gc0;
    c["ftl.erases"] += ftl.erasesIssued() - erases0;
    c["host.writes"] += ftl.hostWrites() - writes0;
    recordTracer(tr, page, out);
    return out;
}

} // namespace

Workload
findWorkload(const std::string &name)
{
    if (name == "read_rand")
        return readRand;
    if (name == "write_gc_remount")
        return writeGcRemount;
    if (name == "sharded_nvme_mixed")
        return shardedNvmeMixed;
    return nullptr;
}

std::uint32_t
workloadPageBytes()
{
    return nand::hynixPackage().geometry.pageDataBytes;
}

} // namespace simbench
