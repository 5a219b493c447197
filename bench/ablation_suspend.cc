/**
 * @file
 * Ablation: program/erase suspension for read latency (the paper's
 * motivating non-standard operations [23], [54]).
 *
 * A latency-critical READ arrives while the target LUN is mid-ERASE
 * (~3.5 ms) or mid-PROGRAM (~700 µs). Without suspend the read waits
 * the operation out; with the vendor SUSPEND/RESUME pair (coroutine
 * operations, ~30 lines each) it proceeds almost immediately, at the
 * cost of a small extension to the suspended operation. Encoding this
 * in a hard-wired controller is exactly the kind of respin BABOL
 * avoids.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/coro/ops.hh"

using namespace babol;
using namespace babol::bench;
using namespace babol::core;
using namespace babol::nand;
using namespace babol::time_literals;

namespace {

struct SuspendResult
{
    double readLatencyUs = 0;
    double backgroundOpUs = 0; //!< total time of the erase/program
};

/**
 * One scenario as a firmware coroutine: start the background op, wait
 * @p arrival, then serve a read — optionally suspending the background
 * operation first.
 */
Op<SuspendResult>
scenarioOp(OpEnv &env, bool is_erase, bool use_suspend, Tick arrival)
{
    SuspendResult out;
    Tick bg_start = env.rt.curTick();

    // Latch the background operation without polling.
    if (is_erase) {
        Transaction er(0, "BG.erase");
        er.add(ChipControl{1});
        er.add(CaWriter::command(opcode::kErase1)
                   .addr(encodeRow(env.geo(), {0, 1, 0}))
                   .cmd(opcode::kErase2));
        co_await env.rt.submit(std::move(er));
    } else {
        Transaction pr(0, "BG.program");
        pr.add(ChipControl{1});
        pr.add(CaWriter::command(opcode::kProgram1)
                   .addr(encodeColRow(env.geo(), 0, {0, 1, 0})));
        pr.add(DataWriter{.dramAddr = 0,
                          .bytes = env.geo().pageDataBytes,
                          .eccEncode = true,
                          .inlineData = {}});
        pr.add(CaWriter::command(opcode::kProgram2));
        co_await env.rt.submit(std::move(pr));
    }

    // The latency-critical read arrives mid-operation.
    co_await env.rt.sleepFor(arrival);
    Tick read_start = env.rt.curTick();

    if (use_suspend)
        co_await suspendOp(env, 0);
    else {
        // Wait the background operation out.
        std::uint8_t st = 0;
        do {
            st = co_await readStatusOp(env, 0);
        } while (!(st & status::kRdy));
    }

    FlashRequest read;
    read.kind = FlashOpKind::Read;
    read.row = {0, 0, 0};
    read.dramAddr = 1 << 20;
    OpResult r = co_await readOp(env, read);
    babol_assert(r.ok, "interim read failed");
    out.readLatencyUs = ticks::toUs(env.rt.curTick() - read_start);

    if (use_suspend) {
        co_await resumeOp(env, 0);
        std::uint8_t st = 0;
        do {
            st = co_await readStatusOp(env, 0);
        } while (!(st & status::kRdy) || !(st & status::kArdy));
    }
    out.backgroundOpUs = ticks::toUs(env.rt.curTick() - bg_start);
    co_return out;
}

SuspendResult
run(bool is_erase, bool use_suspend)
{
    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = 1;
    ChannelSystem sys(eq, "ssd", cfg);
    core::CoroController ctrl(eq, "ctrl", sys);

    std::vector<std::uint8_t> payload(sys.pageDataBytes(), 0x2F);
    sys.dram().write(0, payload);
    preconditionChannel(eq, sys, ctrl, 1); // block 0 readable

    // Erase block 1 so the background PROGRAM has a target.
    FlashRequest erase;
    erase.kind = FlashOpKind::Erase;
    erase.row = {0, 1, 0};
    runOne(eq, ctrl, erase);

    Tick arrival = is_erase ? 500_us : 150_us;
    Op<SuspendResult> op =
        scenarioOp(ctrl.env(), is_erase, use_suspend, arrival);
    bool done = false;
    op.setOnDone([&] { done = true; });
    ctrl.runtime().startOp(op.handle());
    eq.run();
    babol_assert(done, "scenario never completed");
    return op.result();
}

} // namespace

int
main()
{
    std::cout << "ABLATION: PROGRAM/ERASE SUSPEND FOR READ LATENCY "
                 "[23],[54]\n\n";
    Table table({"Background op", "Suspend?", "read latency (us)",
                 "background op total (us)"});
    for (bool is_erase : {true, false}) {
        for (bool use_suspend : {false, true}) {
            SuspendResult r = run(is_erase, use_suspend);
            table.addRow({is_erase ? "ERASE (~3.5 ms)" : "PROGRAM (~0.7 ms)",
                          use_suspend ? "yes" : "no",
                          Table::num(r.readLatencyUs, 0),
                          Table::num(r.backgroundOpUs, 0)});
        }
    }
    table.print(std::cout);
    std::cout << "\nSuspend turns a multi-millisecond read tail into "
                 "~0.3 ms, paying a small\nextension of the suspended "
                 "operation (park + resume overhead).\n";
    return 0;
}
