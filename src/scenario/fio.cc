/**
 * @file
 * The single-device fio run and the fleet: the §VI-C READ experiment on
 * one mini-SSD, and the same mini-SSD replicated across a fleet.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "fault/fault_engine.hh"
#include "obs/audit/auditor.hh"
#include "obs/hub.hh"
#include "obs/power/power.hh"
#include "scenario/runners.hh"
#include "sim/fleet.hh"

namespace babol::scenario {

namespace {

/** The fio mini-SSD: 8-way Hynix channel @200 MT/s under a 4-block,
 *  25%-overprovisioned FTL slice per chip. */
core::ChannelConfig
fioChannel()
{
    core::ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = 8;
    cfg.rateMT = 200;
    return cfg;
}

ftl::FtlConfig
fioFtl()
{
    ftl::FtlConfig cfg;
    cfg.blocksPerChip = 4;
    cfg.overprovision = 0.25;
    return cfg;
}

struct StreamResult
{
    double mbps = 0;
    double iops = 0;
    double p99us = 0;
};

struct MemberResult
{
    std::vector<StreamResult> streams;
    std::uint64_t injected = 0;
};

/** One fleet member, built and run entirely inside the caller's scoped
 *  obs/audit contexts. */
MemberResult
runMember(core::Flavor flavor, const fault::FaultPlan *plan,
          std::uint64_t seed, std::uint32_t streams)
{
    fault::FaultEngine faults;
    if (plan)
        faults.arm(*plan);

    core::ChannelConfig cfg = fioChannel();
    cfg.seed = seed;
    cfg.package.faults = &faults;
    MiniSsd dev(flavor, cfg, fioFtl(), plan ? 4 : 0);

    const std::uint64_t extent = dev.ftl.logicalPages() / 2;
    host::FioEngine filler(dev.eq, "fill", dev.ftl, fillConfig());
    fillPages(filler, extent, [&] { dev.eq.run(); });

    MemberResult res;
    for (std::uint32_t s = 0; s < streams; ++s) {
        host::FioConfig io = readConfig(true, extent);
        io.seed = sim::FleetEngine::memberSeed(seed, s + 1);
        host::FioEngine engine(dev.eq, "fio", dev.ftl, io);
        bool done = false;
        engine.start([&] { done = true; });
        dev.eq.run();
        if (!done || engine.errors())
            fatal("fleet member fio stream failed");
        res.streams.push_back({engine.bandwidthMBps(), engine.iops(),
                               engine.latencyUs().percentile(99)});
    }
    res.injected = faults.injectedTotal();
    return res;
}

/** The --faults plan, announced; nullopt without one. */
std::optional<fault::FaultPlan>
loadFaultPlan(const Spec &spec)
{
    if (spec.faultPlan.empty())
        return std::nullopt;
    fault::FaultPlan plan = fault::loadPlanFile(spec.faultPlan);
    std::printf("fault campaign: %zu spec(s), seed %llu (%s)\n",
                plan.faults.size(),
                static_cast<unsigned long long>(plan.seed),
                spec.faultPlan.c_str());
    return plan;
}

} // namespace

int
runFio(Spec &spec)
{
    // The device arms the process-default engine: no device object owns
    // one here.
    if (auto plan = loadFaultPlan(spec))
        fault::engine().arm(*plan);

    EventQueue eq;
    core::ChannelSystem sys(eq, "ssd", fioChannel());
    // The engine is asked only now, after the channel exists, so that
    // label interning (and with it trace track ids) keeps its order.
    auto ctrl = core::makeController(
        spec.flavor, eq, "ctrl", sys,
        {.maxReadRetries = fault::engine().armed() ? 4u : 0u});
    ftl::PageFtl ftl(eq, "ftl", *ctrl, fioFtl());

    std::printf("mini-SSD: 8-way Hynix channel @200 MT/s, %s "
                "controller, %llu logical pages of %u B\n",
                ctrl->flavorName(),
                static_cast<unsigned long long>(ftl.logicalPages()),
                ftl.pageBytes());

    // Precondition: fill half the logical space.
    const std::uint64_t extent = ftl.logicalPages() / 2;
    host::FioEngine filler(eq, "fill", ftl, fillConfig());
    fillPages(filler, extent, [&] { eq.run(); });
    std::printf("preconditioned %llu pages in %.1f ms of device time "
                "(%.1f MB/s write)\n",
                static_cast<unsigned long long>(extent),
                ticks::toMs(filler.elapsed()), filler.bandwidthMBps());

    // Trace only the measured READ phases; the fill's records would
    // just push them out of the ring (and defeat the auditor's
    // conservation pass, which needs an unwrapped window).
    if (obs::trace().enabled())
        obs::trace().clear();

    auto &pm = obs::power::PowerModel::instance();
    for (bool random_pattern : {false, true}) {
        host::FioEngine engine(eq, "fio", ftl,
                               readConfig(random_pattern, extent));
        const std::uint64_t e0 =
            pm.enabled() ? pm.grandTotalFjAt(eq.now()) : 0;
        bool done = false;
        engine.start([&] { done = true; });
        eq.run();
        if (!done || engine.errors())
            fatal("fio run failed");

        std::printf("%-10s READ: %7.1f MB/s  %8.0f IOPS   lat p50/p95/"
                    "p99 = %.0f/%.0f/%.0f us",
                    random_pattern ? "random" : "sequential",
                    engine.bandwidthMBps(), engine.iops(),
                    engine.latencyUs().percentile(50),
                    engine.latencyUs().percentile(95),
                    engine.latencyUs().percentile(99));
        if (pm.enabled()) {
            const std::uint64_t e1 = pm.grandTotalFjAt(eq.now());
            std::printf("   %.1f nJ/IO",
                        static_cast<double>(e1 - e0) / 400 / 1e6);
        }
        std::printf("\n");
        // While this phase's engine (and its fio.* metrics) still
        // exists; the last phase's capture is the one written.
        spec.obs.captureMetrics(eq);
    }

    if (fault::engine().armed())
        std::printf("\n%s\n", fault::engine().summary().c_str());

    int status = spec.obs.finalize();

    std::printf("\nRun with 'rtos' or 'hw' to compare flavours on the "
                "identical workload.\n");
    return status;
}

int
runFleet(Spec &spec)
{
    const std::optional<fault::FaultPlan> plan = loadFaultPlan(spec);
    const std::size_t fleet = spec.fleet;
    std::printf("fleet: %zu mini-SSDs x %u stream(s) on %u thread(s), "
                "%s controller\n",
                fleet, spec.streams, spec.threads,
                core::flavorName(spec.flavor));

    std::vector<MemberResult> results(fleet);
    std::vector<std::unique_ptr<obs::ExecContext>> ctxs(fleet);
    std::vector<std::unique_ptr<obs::audit::Auditor>> auditors(fleet);
    for (std::size_t m = 0; m < fleet; ++m) {
        // Private registry + trace ring per member; shard id = member.
        ctxs[m] = std::make_unique<obs::ExecContext>(
            obs::interner(), static_cast<std::uint32_t>(m));
        auditors[m] = obs::audit::Auditor::makeShard(
            obs::audit::Auditor::instance());
    }

    sim::FleetEngine::run(fleet, spec.threads, [&](std::size_t m) {
        obs::ScopedExecContext obsCtx(ctxs[m].get());
        obs::audit::ScopedAuditor audCtx(auditors[m].get());
        results[m] = runMember(spec.flavor, plan ? &*plan : nullptr,
                               sim::FleetEngine::memberSeed(1, m),
                               spec.streams);
    });

    double sumIops = 0, sumMBps = 0, worstP99 = 0;
    std::uint64_t injected = 0;
    for (std::size_t m = 0; m < fleet; ++m) {
        const MemberResult &r = results[m];
        for (const StreamResult &s : r.streams) {
            std::printf("  member %2zu: %7.1f MB/s  %8.0f IOPS  "
                        "p99 = %.0f us\n", m, s.mbps, s.iops, s.p99us);
            sumIops += s.iops;
            sumMBps += s.mbps;
            worstP99 = std::max(worstP99, s.p99us);
        }
        injected += r.injected;
        obs::audit::Auditor::instance().absorb(*auditors[m]);
    }
    std::printf("fleet aggregate: %.1f MB/s, %.0f IOPS, worst p99 %.0f us",
                sumMBps, sumIops, worstP99);
    if (plan)
        std::printf(", %llu fault(s) injected",
                    static_cast<unsigned long long>(injected));
    std::printf("\n");

    const std::size_t bad =
        obs::audit::Auditor::instance().unsuppressedCount();
    if (bad)
        std::printf("fleet audit: %zu diagnostic(s)\n", bad);
    const int status = spec.obs.finalize();
    return bad ? 1 : status;
}

int
run(Spec &spec)
{
    spec.obs.applyStartup();
    switch (spec.kind) {
      case Kind::Fio:
        return runFio(spec);
      case Kind::Fleet:
        return runFleet(spec);
      case Kind::Queued:
        return runQueued(spec);
      case Kind::Crash:
        return runCrash(spec);
      case Kind::Lifetime:
        return runLifetime(spec);
      case Kind::Reliability:
        return runReliability(spec);
    }
    panic("unhandled scenario kind %d", static_cast<int>(spec.kind));
}

} // namespace babol::scenario
