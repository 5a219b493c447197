/**
 * @file
 * Shared harness code for the paper-reproduction benches: controller
 * factories, channel preconditioning, and the FTL-injection read
 * workload of §VI ("we use a workload generator that injects requests
 * directly into the storage controllers as if they were coming from
 * the FTL").
 */

#ifndef BABOL_BENCH_BENCH_COMMON_HH
#define BABOL_BENCH_BENCH_COMMON_HH

#include <memory>
#include <string>

#include "core/controller_factory.hh"
#include "core/coro/coro_controller.hh"
#include "core/hw/hw_controller.hh"
#include "core/rtos_env/rtos_controller.hh"
#include "sim/table.hh"

namespace babol::bench {

using core::ChannelConfig;
using core::ChannelController;
using core::ChannelSystem;
using core::FlashOpKind;
using core::FlashRequest;
using core::OpResult;

/** A bench controller named "ctrl", of any flavour core::parseFlavor()
 *  accepts. */
inline std::unique_ptr<ChannelController>
makeController(const std::string &flavor, EventQueue &eq,
               ChannelSystem &sys, std::uint32_t cpu_mhz = 1000)
{
    core::SoftControllerConfig soft;
    soft.cpuMhz = cpu_mhz;
    return core::makeController(core::flavorOrFatal(flavor), eq, "ctrl", sys,
                                soft);
}

/** Run one request to completion on the shared event queue. */
inline OpResult
runOne(EventQueue &eq, ChannelController &ctrl, FlashRequest req)
{
    OpResult out;
    bool done = false;
    req.onComplete = [&](OpResult r) {
        out = r;
        done = true;
    };
    ctrl.submit(std::move(req));
    eq.run();
    babol_assert(done, "operation never completed");
    return out;
}

/**
 * Precondition the channel: erase block @p block on every chip and
 * program @p pages pages with a fixed pattern staged at DRAM 0.
 */
inline void
preconditionChannel(EventQueue &eq, ChannelSystem &sys,
                    ChannelController &ctrl, std::uint32_t pages,
                    std::uint32_t block = 0)
{
    std::vector<std::uint8_t> payload(sys.pageDataBytes());
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
    sys.dram().write(0, payload);

    for (std::uint32_t chip = 0; chip < sys.chipCount(); ++chip) {
        FlashRequest erase;
        erase.kind = FlashOpKind::Erase;
        erase.chip = chip;
        erase.row = {0, block, 0};
        OpResult r = runOne(eq, ctrl, erase);
        babol_assert(r.ok, "precondition erase failed");
        for (std::uint32_t page = 0; page < pages; ++page) {
            FlashRequest prog;
            prog.kind = FlashOpKind::Program;
            prog.chip = chip;
            prog.row = {0, block, page};
            prog.dramAddr = 0;
            r = runOne(eq, ctrl, prog);
            babol_assert(r.ok, "precondition program failed");
        }
    }
}

/** Result of one channel-level read-throughput run. */
struct ChannelRunResult
{
    double mbps = 0;
    double busUtilization = 0;
    double meanLatencyUs = 0;
    std::uint64_t errors = 0;
};

/**
 * The Fig. 10 microbenchmark: a stream of full-page READs injected at
 * the controller, round-robin over @p luns chips, @p ops_per_lun deep.
 */
inline ChannelRunResult
runChannelReadWorkload(EventQueue &eq, ChannelSystem &sys,
                       ChannelController &ctrl, std::uint32_t luns,
                       std::uint32_t ops_per_lun,
                       std::uint32_t precond_pages = 8)
{
    preconditionChannel(eq, sys, ctrl, precond_pages);

    ctrl.resetStats();
    const std::uint64_t total = static_cast<std::uint64_t>(luns) *
                                ops_per_lun;
    std::uint64_t completed = 0, errors = 0;
    Tick t0 = eq.now();

    for (std::uint64_t i = 0; i < total; ++i) {
        FlashRequest read;
        read.kind = FlashOpKind::Read;
        read.chip = static_cast<std::uint32_t>(i % luns);
        read.row = {0, 0,
                    static_cast<std::uint32_t>((i / luns) % precond_pages)};
        read.dramAddr = (1 << 20) +
                        static_cast<std::uint64_t>(read.chip) *
                            sys.pageDataBytes();
        read.onComplete = [&](OpResult r) {
            ++completed;
            if (!r.ok)
                ++errors;
        };
        ctrl.submit(std::move(read));
    }
    eq.run();
    babol_assert(completed == total, "workload lost operations");

    ChannelRunResult result;
    Tick elapsed = eq.now() - t0;
    result.mbps = bandwidthMBps(total * sys.pageDataBytes(), elapsed);
    result.busUtilization =
        static_cast<double>(sys.bus().busyTicks()) /* includes precond */ /
        static_cast<double>(eq.now());
    result.meanLatencyUs = ctrl.latencyUs().mean();
    result.errors = errors;
    return result;
}

} // namespace babol::bench

#endif // BABOL_BENCH_BENCH_COMMON_HH
