/**
 * @file
 * The crash campaign and the lifetime smoke: the two scenarios that
 * stress the FTL's durability on the classic mini-SSD. A crash cycle
 * runs the stamped workload to its Kth acknowledgement, cuts power,
 * transplants the surviving cells into a fresh controller stack,
 * remounts from OOB, and holds every LPN against the ledger.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "fault/fault_engine.hh"
#include "scenario/oracle.hh"
#include "scenario/runners.hh"

namespace babol::scenario {

namespace {

/** The crash-campaign device: 4 chips x 32 blocks x 8 pages, write
 *  buffer and static wear levelling on so the campaign exercises
 *  both. */
core::ChannelConfig
crashChannel()
{
    core::ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.package.geometry.pagesPerBlock = 8;
    cfg.package.geometry.blocksPerPlane = 32;
    cfg.chips = 4;
    cfg.rateMT = 200;
    return cfg;
}

ftl::FtlConfig
crashFtl()
{
    ftl::FtlConfig cfg;
    cfg.blocksPerChip = 8;
    cfg.overprovision = 0.25;
    cfg.writeBufferPages = 4;
    cfg.writeBufferFlushUs = 200;
    cfg.wearSpreadThreshold = 8;
    return cfg;
}

} // namespace

int
runCrash(Spec &spec)
{
    std::vector<std::uint64_t> points = spec.crashAt;
    fault::FaultPlan cplan;
    cplan.seed = 1234;
    if (!spec.crashPlan.empty()) {
        cplan = fault::loadPlanFile(spec.crashPlan);
        for (const fault::FaultSpec &s : cplan.faults)
            if (s.kind == fault::FaultKind::PowerCut)
                points.push_back(s.nth);
        std::printf("crash plan: %zu crash point(s), seed %llu (%s)\n",
                    points.size(),
                    static_cast<unsigned long long>(cplan.seed),
                    spec.crashPlan.c_str());
    }
    fault::engine().arm(cplan);

    const std::uint64_t total_writes =
        points.empty() ? 256
                       : *std::max_element(points.begin(), points.end()) +
                             64;

    std::ofstream out;
    if (!spec.crashOut.empty()) {
        out.open(spec.crashOut, std::ios::app);
        if (!out)
            fatal("cannot write %s", spec.crashOut.c_str());
    }

    std::uint64_t violations = 0;

    // crash_at == 0 is the clean-shutdown cycle.
    auto one_cycle = [&](std::uint64_t crash_at) {
        auto wa = std::make_unique<MiniSsd>(spec.flavor, crashChannel(),
                                            crashFtl(), 4);
        Ledger led(wa->ftl.logicalPages() / 2);
        StampedWorkload wl(wa->ftl, led,
                           {.totalOps = total_writes,
                            .seed = cplan.seed,
                            .stopAtAck = crash_at});
        wl.start();
        // Stop the moment the cut point's acknowledgement lands:
        // in-flight and buffered writes stay in flight, exactly like a
        // power cut mid-burst.
        while (!wl.stopped() && wa->eq.step()) {
        }

        Tick cut_at = 0;
        if (crash_at != 0) {
            if (!wl.stopped())
                fatal("crash point %llu beyond workload (only %llu "
                      "acked)",
                      static_cast<unsigned long long>(crash_at),
                      static_cast<unsigned long long>(led.acked));
            cut_at = wa->eq.now();
            fault::engine().notePowerCut("ssd", cut_at);
        } else {
            // Clean shutdown: drain the write buffer first.
            bool flushed = false;
            wa->ftl.flush([&](bool) { flushed = true; });
            wa->eq.run();
            if (!flushed)
                fatal("flush did not complete");
            cut_at = wa->eq.now();
        }

        // The cells survive the cut; everything else is rebuilt fresh.
        auto wb = std::make_unique<MiniSsd>(spec.flavor, crashChannel(),
                                            crashFtl(), 4);
        LunPairs luns;
        for (std::uint32_t c = 0; c < wa->ctrl->backendChipCount(); ++c)
            luns.emplace_back(&wa->sys.lun(c), &wb->sys.lun(c));
        const Remount r = cutAndRemount(
            luns, crash_at, cut_at, [&] { wa.reset(); }, wb->ftl, led,
            [&] { wb->eq.run(); });
        violations += r.report.violations();
        std::printf("%s\n", r.line.c_str());
        if (out)
            out << r.line << "\n";
        spec.obs.captureMetrics(wb->eq);
    };

    for (std::uint64_t p : points)
        one_cycle(p);
    if (spec.remount || points.empty())
        one_cycle(0);

    if (fault::engine().armed())
        std::printf("\n%s\n", fault::engine().summary().c_str());

    int status = spec.obs.finalize();
    if (violations)
        std::printf("crash campaign: %llu recovery violation(s)\n",
                    static_cast<unsigned long long>(violations));
    else
        std::printf("crash campaign: clean — every acknowledged write "
                    "survived, nothing stale resurrected\n");
    return campaignStatus(violations, false, status);
}

/**
 * Wear-bounded lifetime smoke: a tiny device (1 chip, 4-page blocks)
 * written with a hot/cold skew until the first block reaches its rated
 * erase endurance and is retired. Static wear levelling must keep the
 * spread bounded the whole way, and the device must keep serving
 * writes past the retirement.
 */
int
runLifetime(Spec &spec)
{
    core::ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.package.geometry.pagesPerBlock = 4;
    cfg.package.geometry.blocksPerPlane = 32;
    cfg.chips = 1;
    cfg.rateMT = 200;

    // Generous overprovisioning: with only 32 physical pages, GC needs
    // real headroom to stay ahead of an 8-deep write stream.
    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 8;
    fcfg.overprovision = 0.5;
    fcfg.writeBufferPages = 0; // every write must reach the cells
    fcfg.wearSpreadThreshold = 4;
    MiniSsd dev(spec.flavor, cfg, fcfg, 4);
    EventQueue &eq = dev.eq;
    ftl::PageFtl &ftl = dev.ftl;

    const std::uint64_t extent = ftl.logicalPages();
    const std::uint32_t page_bytes = ftl.pageBytes();
    constexpr std::uint64_t kCap = 400000;
    Rng rng(7);
    std::uint64_t issued = 0, acked = 0, failed = 0;
    bool draining = false;

    std::function<void(std::uint32_t)> issue = [&](std::uint32_t slot) {
        if (draining || issued >= kCap)
            return;
        if (ftl.blocksRetired() > 0) {
            draining = true;
            return;
        }
        // 80% of writes hammer a quarter of the space: the hot/cold
        // split static wear levelling exists for.
        const std::uint64_t hot = std::max<std::uint64_t>(1, extent / 4);
        const std::uint64_t lpn = rng.chance(0.8)
                                      ? rng.uniform(0, hot - 1)
                                      : rng.uniform(0, extent - 1);
        ++issued;
        ftl.writePage(lpn, kHostBase + std::uint64_t(slot) * page_bytes,
                      [&, slot](bool ok) {
                          ok ? ++acked : ++failed;
                          issue(slot);
                      });
    };
    for (std::uint32_t q = 0; q < kStampedQd; ++q)
        issue(q);
    eq.run();

    if (acked + failed < issued) {
        std::printf("lifetime smoke: FTL stalled with %llu write(s) "
                    "in flight (%llu issued, %llu acked)\n",
                    static_cast<unsigned long long>(issued - acked -
                                                    failed),
                    static_cast<unsigned long long>(issued),
                    static_cast<unsigned long long>(acked));
        return 1;
    }

    std::uint32_t spread = ftl.wearSpread(0);
    std::printf("lifetime smoke (%s): %llu writes (%llu acked, %llu "
                "failed), %llu erases, max PE %u, wear spread %u "
                "(threshold %u), %llu WL run(s) moving %llu page(s), "
                "%llu block(s) retired\n",
                core::flavorName(spec.flavor),
                static_cast<unsigned long long>(issued),
                static_cast<unsigned long long>(acked),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(ftl.erasesIssued()),
                ftl.maxEraseCount(0), spread, fcfg.wearSpreadThreshold,
                static_cast<unsigned long long>(ftl.wearLevelRuns()),
                static_cast<unsigned long long>(ftl.wearLevelPageMoves()),
                static_cast<unsigned long long>(ftl.blocksRetired()));

    if (ftl.blocksRetired() == 0) {
        std::printf("lifetime smoke: cap hit before the erase limit\n");
        return 1;
    }
    if (failed) {
        std::printf("lifetime smoke: %llu write(s) failed\n",
                    static_cast<unsigned long long>(failed));
        return 1;
    }
    // The spread may overshoot while a migration is mid-flight, but
    // never unboundedly: WL holds it near the threshold.
    if (spread > fcfg.wearSpreadThreshold * 2) {
        std::printf("lifetime smoke: wear spread %u exceeds bound %u\n",
                    spread, fcfg.wearSpreadThreshold * 2);
        return 1;
    }

    // The device keeps working past the first retirement.
    std::uint64_t extra_ok = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {
        ftl.writePage(i % extent, kHostBase, [&](bool ok) {
            if (ok)
                ++extra_ok;
        });
        eq.run();
    }
    if (extra_ok != 32) {
        std::printf("lifetime smoke: device died after retirement "
                    "(%llu/32 writes ok)\n",
                    static_cast<unsigned long long>(extra_ok));
        return 1;
    }
    std::printf("lifetime smoke: survived the erase limit, wear spread "
                "bounded\n");
    return 0;
}

} // namespace babol::scenario
