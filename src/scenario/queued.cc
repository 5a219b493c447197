/**
 * @file
 * The queued front end: a sharded 2-channel device reached through NVMe
 * queue pairs, replaying a trace and/or serving rate-classed tenants.
 * All host-side machinery lives on shard 0, so the run, including the
 * SLO JSON, is byte-identical at any thread count.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "host/nvme/client.hh"
#include "host/replay/replay.hh"
#include "obs/hub.hh"
#include "scenario/runners.hh"
#include "sim/fleet.hh"
#include "ssd/sharded_ssd.hh"

namespace babol::scenario {

int
runQueued(Spec &spec)
{
    const std::uint32_t threads = spec.threads;

    ssd::SsdConfig cfg;
    cfg.channels = 2;
    cfg.flavor = spec.flavor;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.chips = 4;
    cfg.channel.rateMT = 200;
    cfg.channel.seed = 5;
    cfg.cpuMhz = 1000;
    ssd::ShardedSsd dev("ssd", cfg);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(dev.hostQueue(), "ftl", dev, fcfg);

    host::HicConfig hcfg;
    hcfg.maxInflight = 64;
    host::Hic hic(dev.hostQueue(), "hic", ftl, hcfg);

    host::nvme::NvmeConfig ncfg;
    ncfg.queuePairs = spec.qpairs;
    ncfg.maxInflight = 64;
    ncfg.dramBase = 1 << 20;
    host::nvme::NvmeFrontEnd fe(dev.hostQueue(), "nvme", hic, ncfg);

    std::printf("NVMe front end: %u queue pair(s) over a 2-channel x "
                "4-way %s device, %u thread(s)\n",
                spec.qpairs, core::flavorName(spec.flavor), threads);

    // Precondition: fill half the logical space (direct FTL path; the
    // queued front end is for the measured phases).
    host::FioEngine filler(dev.hostQueue(), "fill", ftl, fillConfig());
    fillPages(filler, ftl.logicalPages() / 2, [&] { dev.run(threads); });
    if (obs::trace().enabled())
        obs::trace().clear();

    // --- Phase 1: trace replay ---
    if (!spec.replay.empty()) {
        auto ops = host::replay::loadTraceFile(spec.replay);
        const std::size_t records = ops.size();
        host::replay::ReplayConfig rcfg;
        rcfg.dramBase = 4 << 20;
        host::replay::ReplayEngine rep(dev.hostQueue(), "replay", fe,
                                       std::move(ops), rcfg);
        bool done = false;
        rep.start([&] { done = true; });
        dev.run(threads);
        if (!done || rep.errors())
            fatal("trace replay failed (%llu errors)",
                  static_cast<unsigned long long>(rep.errors()));
        std::printf("replayed %zu record(s) from %s: %.0f IOPS, "
                    "%llu late, lat p50/p99/p999 = %.0f/%.0f/%.0f us\n",
                    records, spec.replay.c_str(), rep.iops(),
                    static_cast<unsigned long long>(rep.lateIos()),
                    rep.latencyUs().histPercentile(50),
                    rep.latencyUs().histPercentile(99),
                    rep.latencyUs().histPercentile(99.9));
    }

    // --- Phase 2: multi-tenant QoS ---
    const std::uint32_t tenants = spec.tenants;
    if (tenants > 0) {
        // The SLO report uses a private registry so it holds exactly
        // the per-tenant rows, name-sorted by the zero-padded prefix.
        obs::MetricsRegistry sloReg;
        std::vector<std::unique_ptr<host::nvme::TenantClient>> clients;
        clients.reserve(tenants);
        std::uint32_t done_count = 0;
        for (std::uint32_t t = 0; t < tenants; ++t) {
            host::nvme::TenantConfig tcfg;
            tcfg.tenant = t;
            tcfg.seed = sim::FleetEngine::memberSeed(42, t);
            tcfg.queueDepth = 2;
            tcfg.totalIos = 20;
            // Three deterministic rate classes: unthrottled, 4k IOPS,
            // 1k IOPS — the QoS contrast the SLO report shows.
            tcfg.ratePerSec = (t % 3 == 0) ? 0 : (t % 3 == 1) ? 4000 : 1000;
            tcfg.burst = 4;
            tcfg.dramBase =
                (16 << 20) +
                std::uint64_t(t) * tcfg.queueDepth * hic.sectorBytes();
            clients.push_back(std::make_unique<host::nvme::TenantClient>(
                dev.hostQueue(), strfmt("tenant%04u", t), fe, sloReg,
                tcfg));
        }
        for (auto &c : clients)
            c->start([&] { ++done_count; });
        dev.run(threads);
        if (done_count != tenants)
            fatal("only %u of %u tenants finished", done_count, tenants);

        std::uint64_t total_ios = 0, total_errors = 0, throttled = 0;
        double worst_p99 = 0, worst_p999 = 0;
        for (const auto &c : clients) {
            total_ios += c->completed();
            total_errors += c->errors();
            throttled += c->throttledWaits();
            worst_p99 = std::max(worst_p99,
                                 c->latencyUs().histPercentile(99));
            worst_p999 = std::max(worst_p999,
                                  c->latencyUs().histPercentile(99.9));
        }
        if (total_errors)
            fatal("tenant I/O errors: %llu",
                  static_cast<unsigned long long>(total_errors));
        std::printf("%u tenant(s): %llu IOs, %llu throttle wait(s), "
                    "worst p99/p999 = %.0f/%.0f us\n",
                    tenants, static_cast<unsigned long long>(total_ios),
                    static_cast<unsigned long long>(throttled),
                    worst_p99, worst_p999);

        if (!spec.sloOut.empty()) {
            std::ofstream out(spec.sloOut);
            if (!out)
                fatal("cannot write %s", spec.sloOut.c_str());
            sloReg.writeJson(out);
            std::printf("per-tenant SLO report -> %s\n",
                        spec.sloOut.c_str());
        }
    }

    std::printf("front end: %llu submitted, %llu completed, %llu "
                "interrupt(s) (max %llu CQEs coalesced), %llu SQ-full "
                "reject(s), %llu HIC stall(s)\n",
                static_cast<unsigned long long>(fe.submitted()),
                static_cast<unsigned long long>(fe.completed()),
                static_cast<unsigned long long>(fe.interrupts()),
                static_cast<unsigned long long>(fe.maxCoalesced()),
                static_cast<unsigned long long>(fe.sqFullRejects()),
                static_cast<unsigned long long>(fe.hicStalls()));

    spec.obs.captureMetrics(dev.hostQueue());
    return spec.obs.finalize();
}

} // namespace babol::scenario
