/**
 * @file
 * Figure 12 — End-to-end SSD performance.
 *
 * The Cosmos+ experiment: one channel of Hynix packages behind a
 * page-mapped FTL, preconditioned with data, then read with fio-style
 * sequential and random workloads while the number of ways (LUNs)
 * varies from 1 to 8. The baseline is the Cosmos+ hardware controller
 * (hw-async); the BABOL RTOS and coroutine controllers run on a 1 GHz
 * ARM, as in the paper.
 */

#include <cstdint>
#include <iostream>

#include "bench_common.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "host/nvme/client.hh"
#include "obs/cli.hh"
#include "obs/power/power.hh"
#include "ssd/sharded_ssd.hh"

using namespace babol;
using namespace babol::bench;

namespace {

/** Bandwidth plus the energy cost of the measured 300-IO phase. */
struct RunResult
{
    double mbps = 0;
    double njPerIo = 0;
};

/** Energy per IO from a grand-total delta over the measured phase. */
double
njPerIoDelta(std::uint64_t e0_fj, std::uint64_t e1_fj, std::uint64_t ios)
{
    return static_cast<double>(e1_fj - e0_fj) /
           static_cast<double>(ios) / 1e6;
}

/**
 * Fig. 12 on the classic single-queue engine: one channel of @p ways
 * LUNs, preconditioned, then 300 reads. Snapshots the metrics into
 * @p obs once the measured phase is done.
 */
RunResult
runSsd(obs::cli::Options &obs, const std::string &flavor,
       std::uint32_t ways, bool random_pattern)
{
    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = ways;
    cfg.rateMT = 200;
    cfg.seed = 5;
    ChannelSystem sys(eq, "ssd", cfg);
    auto ctrl = makeController(flavor, eq, sys, 1000);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", *ctrl, fcfg);

    const std::uint64_t extent = 64ull * ways;

    // Precondition: fill the extent with data (exactly what the paper
    // does before running fio).
    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 2 * ways;
    fill_cfg.dramBase = 0;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(extent, [&] { filled = true; });
    eq.run();
    babol_assert(filled, "fill never completed");

    host::FioConfig cfg_io;
    cfg_io.pattern = random_pattern ? host::FioConfig::Pattern::Random
                                    : host::FioConfig::Pattern::Sequential;
    cfg_io.queueDepth = 32;
    cfg_io.extentPages = extent;
    cfg_io.totalIos = 300;
    cfg_io.dramBase = 8 << 20;
    cfg_io.seed = 99;
    host::FioEngine engine(eq, "fio", ftl, cfg_io);
    auto &pm = obs::power::PowerModel::instance();
    const std::uint64_t e0 = pm.grandTotalFjAt(eq.now());
    bool done = false;
    engine.start([&] { done = true; });
    eq.run();
    babol_assert(done && engine.errors() == 0, "fio run failed");
    const std::uint64_t e1 = pm.grandTotalFjAt(eq.now());
    obs.captureMetrics(eq);
    return {engine.bandwidthMBps(), njPerIoDelta(e0, e1, 300)};
}

/**
 * Build the sharded Fig. 12 device (@p channels x @p ways Hynix LUNs
 * behind a page-mapped FTL), fill its extent, and return what
 * @p measure(dev, ftl, extent) returns. Device, FTL and filler outlive
 * the measurement and are torn down after it, device last.
 */
template <typename Measure>
RunResult
onFilledShardedSsd(const std::string &flavor, std::uint32_t channels,
                   std::uint32_t ways, std::uint32_t threads,
                   Measure &&measure)
{
    ssd::SsdConfig cfg;
    cfg.channels = channels;
    cfg.flavor = flavor;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.chips = ways;
    cfg.channel.rateMT = 200;
    cfg.channel.seed = 5;
    cfg.cpuMhz = 1000;
    ssd::ShardedSsd dev("ssd", cfg);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(dev.hostQueue(), "ftl", dev, fcfg);

    const std::uint64_t extent = 64ull * channels * ways;

    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 2 * channels * ways;
    fill_cfg.dramBase = 0;
    host::FioEngine filler(dev.hostQueue(), "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(extent, [&] { filled = true; });
    dev.run(threads);
    babol_assert(filled, "fill never completed");

    return measure(dev, ftl, extent);
}

/**
 * The same Fig. 12 workload on the channel-sharded multi-core engine:
 * a multi-channel device whose channels run on worker threads behind
 * the conservative-lookahead windows. The returned bandwidth is a pure
 * function of the model — byte-identical at any @p threads — which the
 * CI scaling smoke checks by diffing this mode's output across thread
 * counts.
 */
RunResult
runShardedSsd(obs::cli::Options &obs, const std::string &flavor,
              std::uint32_t channels, std::uint32_t ways,
              bool random_pattern, std::uint32_t threads)
{
    return onFilledShardedSsd(
        flavor, channels, ways, threads,
        [&](ssd::ShardedSsd &dev, ftl::PageFtl &ftl, std::uint64_t extent) {
            host::FioConfig cfg_io;
            cfg_io.pattern = random_pattern
                                 ? host::FioConfig::Pattern::Random
                                 : host::FioConfig::Pattern::Sequential;
            cfg_io.queueDepth = 32;
            cfg_io.extentPages = extent;
            cfg_io.totalIos = 300;
            cfg_io.dramBase = 8 << 20;
            cfg_io.seed = 99;
            host::FioEngine engine(dev.hostQueue(), "fio", ftl, cfg_io);
            auto &pm = obs::power::PowerModel::instance();
            const std::uint64_t e0 =
                pm.grandTotalFjAt(dev.hostQueue().now());
            bool done = false;
            engine.start([&] { done = true; });
            dev.run(threads);
            babol_assert(done && engine.errors() == 0, "fio run failed");
            const std::uint64_t e1 =
                pm.grandTotalFjAt(dev.hostQueue().now());
            obs.captureMetrics(dev.hostQueue());
            return RunResult{engine.bandwidthMBps(),
                             njPerIoDelta(e0, e1, 300)};
        });
}

/**
 * Fig. 12 through the NVMe-style queued front end: the same sharded
 * device, but the measured random-read workload reaches it via @p
 * qpairs submission/completion queue pairs (DRAM rings, doorbells,
 * interrupt coalescing) instead of direct FTL calls — quantifying what
 * the production queueing path costs relative to the direct-call
 * numbers. Byte-identical at any @p threads.
 */
RunResult
runShardedNvme(obs::cli::Options &obs, const std::string &flavor,
               std::uint32_t channels, std::uint32_t ways,
               std::uint32_t qpairs, std::uint32_t threads)
{
    return onFilledShardedSsd(
        flavor, channels, ways, threads,
        [&](ssd::ShardedSsd &dev, ftl::PageFtl &ftl, std::uint64_t extent) {
            host::HicConfig hcfg;
            hcfg.maxInflight = 64;
            host::Hic hic(dev.hostQueue(), "hic", ftl, hcfg);

            host::nvme::NvmeConfig ncfg;
            ncfg.queuePairs = qpairs;
            ncfg.maxInflight = 64;
            ncfg.dramBase = 1 << 20;
            host::nvme::NvmeFrontEnd fe(dev.hostQueue(), "nvme", hic, ncfg);

            // One client striped across every queue pair, matching the
            // direct path's depth-32 random READ workload. LBAs stay
            // inside the preconditioned extent.
            obs::MetricsRegistry reg;
            host::nvme::TenantConfig tcfg;
            tcfg.seed = 99;
            tcfg.queueDepth = 32;
            tcfg.totalIos = 300;
            tcfg.sectors = hic.sectorsPerPage(); // page-sized, like FioEngine
            tcfg.dramBase = 8 << 20;
            tcfg.lbaSpan = extent * hic.sectorsPerPage();
            host::nvme::TenantClient client(dev.hostQueue(), "fig12", fe,
                                            reg, tcfg);
            auto &pm = obs::power::PowerModel::instance();
            const Tick start = dev.hostQueue().now();
            const std::uint64_t e0 = pm.grandTotalFjAt(start);
            bool done = false;
            client.start([&] { done = true; });
            dev.run(threads);
            babol_assert(done && client.errors() == 0,
                         "nvme fio run failed");
            const Tick elapsed = dev.hostQueue().now() - start;
            const std::uint64_t e1 =
                pm.grandTotalFjAt(dev.hostQueue().now());
            const std::uint64_t bytes =
                300ull * tcfg.sectors * hic.sectorBytes();
            obs.captureMetrics(dev.hostQueue());
            return RunResult{bandwidthMBps(bytes, elapsed),
                             njPerIoDelta(e0, e1, 300)};
        });
}

} // namespace

int
main(int argc, char **argv)
try {
    bool quick = false, csv = false;
    std::uint32_t threads = 0; // 0 = classic single-queue engine
    std::uint32_t qpairs = 0;  // 0 = direct-call host path
    obs::cli::Options obs_opts;
    for (int i = 1; i < argc; ++i) {
        if (obs_opts.parse(argc, argv, i))
            continue;
        const std::string arg = argv[i];
        // A count is a whole number from 1 up: "abc" or "0" would
        // otherwise quietly select the classic engine.
        auto count = [&] {
            const char *v = i + 1 < argc ? argv[++i] : "";
            auto n = obs::cli::parseCount(v, UINT32_MAX);
            if (!n)
                fatal("%s needs a whole number from 1 up, got '%s'",
                      arg.c_str(), v);
            return static_cast<std::uint32_t>(*n);
        };
        if (arg == "--quick")
            quick = true;
        else if (arg == "--csv")
            csv = true;
        else if (arg == "--threads")
            threads = count();
        else if (arg == "--qpairs")
            qpairs = count();
        else
            fatal("'%s' is not a flag here, or lacks its value; usage: "
                  "fig12_end_to_end [--quick] [--csv] [--threads N] "
                  "[--qpairs N] %s",
                  argv[i], obs::cli::Options::usage());
    }
    obs_opts.applyStartup();

    // Energy accounting is part of this figure's output (J/IO per
    // flavour), so the power model is always on here. Enabled before
    // any device is built — meters latch the flag at construction.
    obs::power::PowerModel::instance().enable();

    if (qpairs > 0) {
        // Queued-front-end mode (implies the sharded engine): random
        // READ through N NVMe-style queue pairs vs the direct path.
        if (threads == 0)
            threads = 1;
        const std::uint32_t channels = quick ? 2 : 4;
        const std::uint32_t ways = quick ? 2 : 4;
        std::cout << "FIGURE 12 (NVMe front end, " << qpairs
                  << " queue pair(s)): " << channels << "-channel x "
                  << ways << "-way random READ bandwidth (MB/s)\n\n";
        Table table({"Controller", "direct", "queued", "nJ/IO (queued)"});
        for (std::string flavor : {"hw", "rtos", "coro"}) {
            RunResult direct =
                runShardedSsd(obs_opts, flavor, channels, ways, true,
                              threads);
            RunResult queued =
                runShardedNvme(obs_opts, flavor, channels, ways, qpairs,
                               threads);
            table.addRow(
                {flavor == "hw" ? "Cosmos+ baseline (hw)" : flavor,
                 Table::num(direct.mbps, 1), Table::num(queued.mbps, 1),
                 Table::num(queued.njPerIo, 1)});
        }
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        return obs_opts.finalize();
    }

    if (threads > 0) {
        // Sharded-engine mode: the output depends only on the model, so
        // runs at different --threads must print identical tables.
        const std::uint32_t channels = quick ? 2 : 4;
        const std::uint32_t ways = quick ? 2 : 4;
        std::cout << "FIGURE 12 (sharded engine): " << channels
                  << "-channel x " << ways << "-way READ bandwidth "
                  << "(MB/s)\n\n";
        Table table({"Controller", "sequential", "random",
                     "nJ/IO (rand)"});
        for (std::string flavor : {"hw", "rtos", "coro"}) {
            RunResult seq =
                runShardedSsd(obs_opts, flavor, channels, ways, false,
                              threads);
            RunResult rnd =
                runShardedSsd(obs_opts, flavor, channels, ways, true,
                              threads);
            table.addRow(
                {flavor == "hw" ? "Cosmos+ baseline (hw)" : flavor,
                 Table::num(seq.mbps, 1), Table::num(rnd.mbps, 1),
                 Table::num(rnd.njPerIo, 1)});
        }
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        return obs_opts.finalize();
    }

    std::cout << "FIGURE 12: END-TO-END SSD READ BANDWIDTH (MB/s)\n"
              << "Hynix packages, 200 MT/s channel, fio-style workloads, "
                 "1 GHz ARM for the software stacks\n\n";

    const std::vector<std::uint32_t> ways_list =
        quick ? std::vector<std::uint32_t>{1, 8}
              : std::vector<std::uint32_t>{1, 2, 4, 8};

    for (bool random_pattern : {false, true}) {
        std::cout << "--- " << (random_pattern ? "random" : "sequential")
                  << " READ ---\n";

        std::vector<std::string> headers = {"Controller"};
        for (std::uint32_t ways : ways_list)
            headers.push_back(strfmt("%u way%s", ways,
                                     ways == 1 ? "" : "s"));
        headers.push_back("gap @max ways");
        headers.push_back("nJ/IO @max ways");
        Table table(std::move(headers));

        std::vector<double> baseline;
        for (std::string flavor : {"hw", "rtos", "coro"}) {
            std::vector<std::string> row = {
                flavor == "hw" ? "Cosmos+ baseline (hw)" : flavor};
            std::vector<RunResult> series;
            for (std::uint32_t ways : ways_list)
                series.push_back(
                    runSsd(obs_opts, flavor, ways, random_pattern));
            for (const RunResult &r : series)
                row.push_back(Table::num(r.mbps, 1));
            if (flavor == "hw") {
                baseline.clear();
                for (const RunResult &r : series)
                    baseline.push_back(r.mbps);
                row.push_back("-");
            } else {
                double gap =
                    100.0 * (baseline.back() - series.back().mbps) /
                    baseline.back();
                row.push_back(strfmt("-%.1f%%", gap));
            }
            row.push_back(Table::num(series.back().njPerIo, 1));
            table.addRow(std::move(row));
        }
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Paper anchors @8 ways: RTOS within ~2% (seq) / ~3% "
                 "(random) of the baseline;\ncoroutines within ~8% / "
                 "~9%.\n";
    return obs_opts.finalize();
} catch (const SimFatal &) { // fatal() already said why, on one line
    return 2;
}
