/**
 * @file
 * The whole SSD of the paper's Fig. 1, assembled end to end:
 *
 *   host sectors → HIC (split + RMW) → page-mapped FTL (striping, GC,
 *   wear levelling, bad blocks) → per-channel BABOL controllers →
 *   μFSMs → ONFI packages
 *
 * A four-channel device runs a mixed sector workload — including
 * misaligned I/O that forces read-modify-write — and reports
 * per-component statistics.
 *
 *   $ ./examples/full_device [coro|rtos|hw] [--trace-out t.json]
 *                            [--metrics-out m.json] [--audit[=report]]
 *
 * --trace-out writes a Chrome trace_event JSON of the workload (load
 * it at ui.perfetto.dev); --metrics-out dumps the central metrics
 * registry; --audit arms the online ONFI conformance auditor and
 * reports its findings at exit (non-zero status on any diagnostic).
 */

#include <cstdio>
#include <cstring>
#include <fstream>

#include "host/hic.hh"
#include "obs/cli.hh"
#include "obs/perfetto.hh"
#include "sim/random.hh"
#include "ssd/ssd.hh"

using namespace babol;

int
main(int argc, char **argv)
try {
    std::string flavor = "coro";
    obs::cli::Options obs_opts;
    for (int i = 1; i < argc; ++i) {
        if (obs_opts.parse(argc, argv, i))
            continue;
        if (argv[i][0] != '-')
            flavor = argv[i];
        else
            fatal("'%s' is not a flag here, or lacks its value; usage: "
                  "full_device [%s] %s",
                  argv[i], core::kFlavorChoices, obs::cli::Options::usage());
    }
    obs_opts.applyStartup();

    EventQueue eq;
    ssd::SsdConfig cfg;
    cfg.channels = 4;
    cfg.flavor = flavor;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.package.geometry.pagesPerBlock = 32;
    cfg.channel.chips = 4;
    cfg.channel.rateMT = 200;
    ssd::Ssd device(eq, "ssd", cfg);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 8;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", device, fcfg);
    host::Hic hic(eq, "hic", ftl);

    std::printf("SSD: %u channels x %u ways, %s controllers — %llu "
                "sectors of %u B\n\n",
                device.channelCount(), device.waysPerChannel(),
                core::flavorName(cfg.flavor),
                static_cast<unsigned long long>(hic.totalSectors()),
                hic.sectorBytes());

    if (!obs_opts.traceOut.empty())
        obs::trace().setEnabled(true);

    // A mixed host workload: large aligned writes, small misaligned
    // writes (RMW), and reads verifying every byte against an oracle.
    Rng rng(0xD15C);
    const std::uint32_t sector = hic.sectorBytes();
    const std::uint64_t extent = 512; // sectors
    std::vector<std::uint8_t> oracle(extent, 0); // fill byte per sector

    std::uint64_t ios = 0, failures = 0, verify_errors = 0;
    std::uint8_t next_fill = 1;

    auto run_io = [&](host::HostIo io) {
        bool done = false, ok = false;
        io.onComplete = [&](bool o) {
            ok = o;
            done = true;
        };
        hic.submit(std::move(io));
        eq.run();
        if (!done || !ok)
            ++failures;
        ++ios;
        return ok;
    };

    for (int round = 0; round < 120; ++round) {
        std::uint64_t lba = rng.uniform(0, extent - 1);
        std::uint32_t sectors = static_cast<std::uint32_t>(
            rng.uniform(1, std::min<std::uint64_t>(12, extent - lba)));

        if (rng.chance(0.55)) {
            // WRITE: stamp each sector with its own fill byte.
            std::uint8_t fill = next_fill++;
            if (next_fill == 0)
                next_fill = 1;
            std::vector<std::uint8_t> payload(
                static_cast<std::size_t>(sectors) * sector, fill);
            device.backendDram().write(0, payload);
            host::HostIo io;
            io.write = true;
            io.lba = lba;
            io.sectors = sectors;
            io.dramAddr = 0;
            if (run_io(std::move(io))) {
                for (std::uint32_t s = 0; s < sectors; ++s)
                    oracle[lba + s] = fill;
            }
        } else {
            // READ + verify against the oracle (0 = never written).
            host::HostIo io;
            io.lba = lba;
            io.sectors = sectors;
            io.dramAddr = 8 << 20;
            if (run_io(std::move(io))) {
                std::vector<std::uint8_t> got(
                    static_cast<std::size_t>(sectors) * sector);
                device.backendDram().read(8 << 20, got);
                for (std::uint32_t s = 0; s < sectors; ++s) {
                    if (got[static_cast<std::size_t>(s) * sector] !=
                        oracle[lba + s]) {
                        ++verify_errors;
                    }
                }
            }
        }
    }

    std::printf("workload : %llu host I/Os, %llu failures, %llu verify "
                "errors\n",
                static_cast<unsigned long long>(ios),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(verify_errors));
    std::printf("hic      : %llu page ops, %llu read-modify-writes\n",
                static_cast<unsigned long long>(hic.pageOpsIssued()),
                static_cast<unsigned long long>(hic.rmwCount()));
    std::printf("ftl      : %llu host writes, %llu GC runs, %llu page "
                "moves, %llu erases, %llu blocks retired\n",
                static_cast<unsigned long long>(ftl.hostWrites()),
                static_cast<unsigned long long>(ftl.gcRuns()),
                static_cast<unsigned long long>(ftl.gcPageMoves()),
                static_cast<unsigned long long>(ftl.erasesIssued()),
                static_cast<unsigned long long>(ftl.blocksRetired()));
    for (std::uint32_t ch = 0; ch < device.channelCount(); ++ch) {
        std::printf("channel %u: %llu flash ops (%s), mean op latency "
                    "%.0f us\n",
                    ch,
                    static_cast<unsigned long long>(
                        device.controller(ch).opsCompleted()),
                    device.controller(ch).flavorName(),
                    device.controller(ch).latencyUs().mean());
    }
    obs_opts.captureMetrics(eq);
    int obs_status = obs_opts.finalize();

    std::printf("\ndevice time: %.1f ms; data integrity %s\n",
                ticks::toMs(eq.now()),
                verify_errors == 0 && failures == 0 ? "VERIFIED"
                                                    : "BROKEN");
    if (verify_errors != 0 || failures != 0)
        return 1;
    return obs_status;
} catch (const SimFatal &) { // fatal() already said why, on one line
    return 2;
}
