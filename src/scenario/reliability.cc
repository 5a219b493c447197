/**
 * @file
 * The reliability campaign: a sharded 2x2 device runs the stamped mixed
 * read/write workload with the RAIN manager and/or patrol scrubber
 * attached; a die (or block) fails after the Nth acknowledged write,
 * mid-traffic. The campaign then waits out the background rebuild and
 * walks the ledger: every acknowledged generation must read back
 * byte-intact, XOR-rebuilt where its physical copy died. Everything
 * host-side lives on shard 0, so the run, including the exit digest, is
 * byte-identical at any thread count.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "fault/fault_engine.hh"
#include "reliability/rain.hh"
#include "reliability/scrub.hh"
#include "scenario/oracle.hh"
#include "scenario/runners.hh"
#include "ssd/sharded_ssd.hh"

namespace babol::scenario {

namespace {

/** One reliability device: the sharded 2x2 device, its FTL, and the
 *  optional RAIN manager and patrol scrubber (started by the caller). */
struct World
{
    ssd::ShardedSsd dev;
    ftl::PageFtl ftl;
    std::unique_ptr<reliability::RainManager> rain;
    std::unique_ptr<reliability::PatrolScrubber> scrub;

    World(const Spec &spec, const ssd::SsdConfig &cfg,
          const fault::FaultPlan &plan)
        : dev("ssd", cfg), ftl(dev.hostQueue(), "ftl", dev, ftlConfig())
    {
        // The engine must be armed (even with an empty plan) for the
        // harness failDie/failBlock calls and the media-decay hooks.
        dev.faults().arm(plan);
        if (spec.rain)
            rain = std::make_unique<reliability::RainManager>(
                dev.hostQueue(), "rain", ftl);
        if (spec.scrub) {
            reliability::ScrubConfig scfg;
            scfg.intervalUs = 50;
            scrub = std::make_unique<reliability::PatrolScrubber>(
                dev.hostQueue(), "scrub", ftl, scfg);
        }
    }

    /** Sized so the device stays writable after losing a whole die:
     *  half the logical space in use + one parity page per stripe must
     *  still fit the surviving 3/4 of the cells with GC headroom. */
    static ftl::FtlConfig
    ftlConfig()
    {
        ftl::FtlConfig fcfg;
        fcfg.blocksPerChip = 16;
        fcfg.overprovision = 0.25;
        fcfg.reliabilityScratchPages = 8;
        return fcfg;
    }
};

/**
 * The tick at which the @p cut-th write is acknowledged: a probe run of
 * the same world and workload. The real run then stops every shard at
 * that tick, which no thread count can change, and cuts power there.
 */
Tick
probeCutTick(const Spec &spec, const ssd::SsdConfig &cfg,
             const fault::FaultPlan &plan, StampedWorkload::Config wcfg,
             std::uint64_t cut)
{
    World w(spec, cfg, plan);
    if (w.scrub)
        w.scrub->start();
    Ledger led(w.ftl.logicalPages() / 2);
    wcfg.stopAtAck = cut;
    StampedWorkload wl(w.ftl, led, wcfg);
    Tick at = 0;
    // Past the cut (or a workload too short to reach it) only the
    // patrol would keep the run alive.
    auto quiesce = [&] {
        if (w.scrub)
            w.scrub->stop();
    };
    wl.onAck = [&](std::uint64_t acked) {
        if (acked == cut) {
            at = w.dev.hostQueue().now();
            quiesce();
        }
    };
    wl.onDrain = quiesce;
    wl.start();
    w.dev.run(spec.threads);
    if (!wl.stopped())
        fatal("crash point %llu beyond workload (only %llu acked)",
              static_cast<unsigned long long>(cut),
              static_cast<unsigned long long>(led.acked));
    return at;
}

} // namespace

int
runReliability(Spec &spec)
{
    const std::uint32_t threads = spec.threads;
    const std::uint64_t cut = spec.crashAt.empty() ? 0 : spec.crashAt[0];

    ssd::SsdConfig cfg;
    cfg.channels = 2;
    cfg.flavor = spec.flavor;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.package.geometry.pagesPerBlock = 8;
    cfg.channel.package.geometry.blocksPerPlane = 32;
    cfg.channel.chips = 2;
    cfg.channel.rateMT = 200;
    cfg.channel.seed = 11;
    cfg.maxReadRetries = 4;
    fault::FaultPlan plan;
    plan.seed = 77;
    auto w = std::make_unique<World>(spec, cfg, plan);
    if (w->scrub)
        w->scrub->start();

    const std::uint32_t nchips = w->dev.backendChipCount();
    std::printf("reliability campaign (%s): %u chips, rain=%s scrub=%s",
                core::flavorName(spec.flavor), nchips,
                spec.rain ? "on" : "off",
                spec.scrub ? "on" : "off");
    if (cut)
        std::printf(" crash@%llu", static_cast<unsigned long long>(cut));
    if (spec.diefailAt)
        std::printf(" diefail@%llu",
                    static_cast<unsigned long long>(spec.diefailAt));
    if (spec.blockfailAt)
        std::printf(" blockfail@%llu",
                    static_cast<unsigned long long>(spec.blockfailAt));
    std::printf(", %u thread(s)\n", threads);

    const std::uint64_t extent = w->ftl.logicalPages() / 2;
    Ledger led(extent);
    StampedWorkload::Config wcfg{
        .totalOps = std::max<std::uint64_t>(
            400, std::max({spec.diefailAt, spec.blockfailAt, cut}) + 128),
        .seed = plan.seed,
        .mixedReads = true};
    // Host-path reads across both phases, and the remount's verdict.
    std::uint64_t ops = 0, reads = 0, read_failed = 0, read_corrupt = 0;
    std::uint64_t recovery_violations = 0;
    auto tally = [&](const StampedWorkload &phase) {
        ops += phase.issued();
        reads += phase.reads();
        read_failed += phase.readFailures();
        read_corrupt += phase.readCorrupt();
    };

    // --- Optional power cut: freeze at the cut's ack, remount, verify ---
    if (cut) {
        const Tick cut_at = probeCutTick(spec, cfg, plan, wcfg, cut);
        wcfg.stopAtAck = cut;
        StampedWorkload pre(w->ftl, led, wcfg);
        pre.start();
        w->dev.run(threads, cut_at);
        if (!pre.stopped())
            fatal("crash point %llu not reached at its probed tick",
                  static_cast<unsigned long long>(cut));
        tally(pre);
        wcfg.totalOps -= pre.issued();

        // The cells and this ledger are all that outlive the cut.
        auto fresh = std::make_unique<World>(spec, cfg, plan);
        fresh->dev.faults().notePowerCut("ssd", cut_at);
        LunPairs luns;
        for (std::uint32_t ch = 0; ch < cfg.channels; ++ch)
            for (std::uint32_t c = 0; c < cfg.channel.chips; ++c)
                luns.emplace_back(&w->dev.channelSystem(ch).lun(c),
                                  &fresh->dev.channelSystem(ch).lun(c));
        ftl::PageFtl &new_ftl = fresh->ftl; // outlives the move into w
        const Remount r = cutAndRemount(
            luns, cut, cut_at, [&] { w = std::move(fresh); }, new_ftl, led,
            [&] { w->dev.run(threads); });
        recovery_violations = r.report.violations();
        std::printf("%s\n", r.line.c_str());
        if (w->scrub)
            w->scrub->start();
        wcfg.stopAtAck = 0;
        wcfg.seed = plan.seed + 1;
    }

    // --- Stamped mixed workload, media failure injected mid-flight ---
    World &cur = *w;
    StampedWorkload wl(cur.ftl, led, wcfg);
    const std::uint32_t kill_chip = 1; // ssd.ch0.pkg1
    const std::uint32_t blockfail_chip = nchips - 1;
    bool die_killed = false;
    wl.onAck = [&](std::uint64_t acked) {
        if (acked == spec.diefailAt) {
            die_killed = true;
            cur.dev.faults().failDie(cur.dev.backendChipName(kill_chip),
                                     cur.dev.hostQueue().now());
            cur.ftl.markChipDead(kill_chip);
        }
        if (acked == spec.blockfailAt)
            cur.dev.faults().failBlock(
                cur.dev.backendChipName(blockfail_chip), 1, 1,
                cur.dev.hostQueue().now());
    };
    // Drained: the patrol would otherwise tick forever.
    wl.onDrain = [&] {
        if (cur.scrub)
            cur.scrub->stop();
    };
    wl.start();
    cur.dev.run(threads); // returns once the rebuild sweep drains too

    if (wl.completed() != wl.issued())
        fatal("reliability workload stalled: %llu of %llu ops done",
              static_cast<unsigned long long>(wl.completed()),
              static_cast<unsigned long long>(wl.issued()));
    tally(wl);

    std::printf("workload: %llu ops (%llu writes acked, %llu reads: "
                "%llu failed, %llu corrupt)\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(led.acked),
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(read_failed),
                static_cast<unsigned long long>(read_corrupt));
    if (cur.scrub)
        std::printf("scrub: %llu patrol reads (%llu sweeps), %llu near "
                    "misses, %llu disturb trips, %llu refreshes, %llu "
                    "yields, %llu forced slots\n",
                    static_cast<unsigned long long>(
                        cur.scrub->patrolReads()),
                    static_cast<unsigned long long>(cur.scrub->sweeps()),
                    static_cast<unsigned long long>(
                        cur.scrub->nearMisses()),
                    static_cast<unsigned long long>(
                        cur.scrub->disturbTrips()),
                    static_cast<unsigned long long>(
                        cur.scrub->refreshes()),
                    static_cast<unsigned long long>(cur.scrub->yields()),
                    static_cast<unsigned long long>(
                        cur.scrub->forcedSlots()));
    if (cur.rain)
        std::printf("rain: %llu stripes sealed (%llu parity writes), "
                    "%llu released, %llu holes patched, rebuild %llu/%llu "
                    "(%llu ok, %llu failed)\n",
                    static_cast<unsigned long long>(
                        cur.rain->stripesSealed()),
                    static_cast<unsigned long long>(
                        cur.rain->parityWrites()),
                    static_cast<unsigned long long>(
                        cur.rain->stripesReleased()),
                    static_cast<unsigned long long>(
                        cur.rain->holesPatched()),
                    static_cast<unsigned long long>(
                        cur.rain->rebuildDone()),
                    static_cast<unsigned long long>(
                        cur.rain->rebuildTotal()),
                    static_cast<unsigned long long>(cur.rain->rebuildsOk()),
                    static_cast<unsigned long long>(
                        cur.rain->rebuildsFailed()));

    // --- Full read-back verification against the ledger ---
    std::uint64_t lost = 0, corrupt = 0, verified = 0;
    Digest digest;
    std::vector<std::uint8_t> got(cur.ftl.pageBytes());
    std::uint64_t vlpn = 0;
    std::function<void()> verify_next = [&] {
        for (; vlpn < extent && led.ackedGen[vlpn] == 0; ++vlpn)
            digest.fold(0);
        if (vlpn >= extent)
            return;
        const std::uint64_t lpn = vlpn++;
        cur.ftl.readPage(lpn, kHostBase, [&, lpn](bool ok) {
            const auto ulpn = static_cast<unsigned long long>(lpn);
            std::uint64_t gen = 0;
            if (!ok) {
                ++lost;
                std::printf("DATA LOSS: lpn %llu (acked gen %llu) "
                            "unreadable after campaign\n",
                            ulpn,
                            static_cast<unsigned long long>(
                                led.ackedGen[lpn]));
            } else {
                cur.dev.backendDram().read(kHostBase, got);
                switch (led.check(got, lpn, led.ackedGen[lpn], &gen)) {
                  case Verdict::Intact:
                    ++verified;
                    break;
                  case Verdict::Corrupt:
                    ++corrupt;
                    std::printf("DATA LOSS: lpn %llu gen %llu payload "
                                "corrupt\n",
                                ulpn, static_cast<unsigned long long>(gen));
                    break;
                  default:
                    ++corrupt;
                    std::printf("DATA LOSS: lpn %llu stamp invalid (got "
                                "gen %llu, acked %llu)\n",
                                ulpn, static_cast<unsigned long long>(gen),
                                static_cast<unsigned long long>(
                                    led.ackedGen[lpn]));
                    break;
                }
            }
            digest.fold(gen);
            verify_next();
        });
    };
    verify_next();
    cur.dev.run(threads);
    const std::uint64_t host_loss = read_failed + read_corrupt;
    digest.fold(led.acked);
    digest.fold(host_loss);
    digest.fold(lost + corrupt);

    const std::string cut_note =
        cut ? strfmt(" crash@%llu recovery-violations=%llu",
                     static_cast<unsigned long long>(cut),
                     static_cast<unsigned long long>(recovery_violations))
            : "";
    std::string line = strfmt(
        "reliability %s rain=%d scrub=%d diefail@%llu blockfail@%llu%s | "
        "acked=%llu verified=%llu lost=%llu corrupt=%llu inflight-loss="
        "%llu data-loss-metric=%llu digest=%016llx",
        core::flavorName(spec.flavor), spec.rain ? 1 : 0, spec.scrub ? 1 : 0,
        static_cast<unsigned long long>(spec.diefailAt),
        static_cast<unsigned long long>(spec.blockfailAt), cut_note.c_str(),
        static_cast<unsigned long long>(led.acked),
        static_cast<unsigned long long>(verified),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(corrupt),
        static_cast<unsigned long long>(host_loss),
        static_cast<unsigned long long>(cur.ftl.dataLoss()),
        static_cast<unsigned long long>(digest.value));
    std::printf("%s\n", line.c_str());
    if (!spec.reliabilityOut.empty()) {
        std::ofstream out(spec.reliabilityOut, std::ios::app);
        if (!out)
            fatal("cannot write %s", spec.reliabilityOut.c_str());
        out << line << "\n";
    }

    std::printf("\n%s\n", cur.dev.faults().summary().c_str());
    spec.obs.captureMetrics(cur.dev.hostQueue());
    int status = spec.obs.finalize();

    const bool data_lost =
        lost || corrupt || host_loss || cur.ftl.dataLoss();
    if (recovery_violations)
        std::printf("reliability campaign: %llu recovery violation(s) at "
                    "the remount\n",
                    static_cast<unsigned long long>(recovery_violations));
    if (data_lost)
        std::printf("reliability campaign: ACKNOWLEDGED DATA LOST "
                    "(%llu unreadable, %llu corrupt, %llu in-flight, "
                    "reliability.data-loss=%llu)\n",
                    static_cast<unsigned long long>(lost),
                    static_cast<unsigned long long>(corrupt),
                    static_cast<unsigned long long>(host_loss),
                    static_cast<unsigned long long>(cur.ftl.dataLoss()));
    if (!recovery_violations && !data_lost)
        std::printf("reliability campaign: clean — every acknowledged "
                    "write read back intact%s\n",
                    die_killed ? " across a die failure" : "");
    return campaignStatus(recovery_violations, data_lost, status);
}

} // namespace babol::scenario
