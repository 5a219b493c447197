/**
 * @file
 * Simulation-kernel tests: event queue semantics, statistics,
 * formatting, RNG determinism, and time conversions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/types.hh"

using namespace babol;
using namespace babol::time_literals;

namespace {

TEST(Ticks, ConversionsRoundTrip)
{
    EXPECT_EQ(ticks::fromNs(1.0), ticks::perNs);
    EXPECT_EQ(ticks::fromUs(1.0), ticks::perUs);
    EXPECT_EQ(ticks::fromMs(1.0), ticks::perMs);
    EXPECT_DOUBLE_EQ(ticks::toUs(ticks::fromUs(123.5)), 123.5);
    EXPECT_DOUBLE_EQ(ticks::toNs(2500), 2.5);
}

TEST(Ticks, LiteralsMatchHelpers)
{
    EXPECT_EQ(100_ns, ticks::fromNs(100));
    EXPECT_EQ(78_us, ticks::fromUs(78));
    EXPECT_EQ(3_ms, ticks::fromMs(3));
    EXPECT_EQ(1.5_us, ticks::fromUs(1.5));
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelledEventsDoNotFire)
{
    EventQueue eq;
    bool fired = false;
    EventHandle h = eq.schedule(100, [&] { fired = true; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), SimPanic);
}

TEST(EventQueue, RunWithLimitStopsAtWindowEdge)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(200, [&] { ++fired; });
    eq.schedule(300, [&] { ++fired; });
    EXPECT_EQ(eq.run(200), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 200u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, HandleReportsWhen)
{
    EventQueue eq;
    EventHandle h = eq.schedule(777, [] {});
    EXPECT_EQ(h.when(), 777u);
    EventHandle inert;
    EXPECT_EQ(inert.when(), kMaxTick);
    EXPECT_FALSE(inert.pending());
    eq.run();
}

TEST(EventQueue, CountsScheduledAndFired)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    EventHandle h = eq.schedule(100, [] {});
    h.cancel();
    eq.run();
    EXPECT_EQ(eq.scheduledCount(), 11u);
    EXPECT_EQ(eq.firedCount(), 10u);
}

TEST(EventQueue, PendingCountIsExactUnderCancel)
{
    EventQueue eq;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 100; ++i)
        handles.push_back(eq.schedule(100 + i, [] {}));
    EXPECT_EQ(eq.pendingCount(), 100u);
    EXPECT_FALSE(eq.empty());
    for (int i = 0; i < 100; i += 2)
        handles[i].cancel();
    EXPECT_EQ(eq.pendingCount(), 50u);
    eq.run();
    EXPECT_EQ(eq.pendingCount(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.firedCount(), 50u);
}

TEST(EventQueue, CompactionSweepsCancelledRecords)
{
    EventQueue eq;
    std::vector<EventHandle> handles;
    int fired = 0;
    // Spread across wheel buckets and the far heap so the sweep visits
    // every structure.
    for (int i = 0; i < 300; ++i) {
        Tick when = static_cast<Tick>(i) * 10000 +
                    (i % 3 == 0 ? ticks::fromMs(100) : 0);
        handles.push_back(eq.schedule(when, [&] { ++fired; }));
    }
    // Cancel enough that cancelled > live, which must trigger a sweep.
    for (int i = 0; i < 200; ++i)
        handles[i].cancel();
    auto stats = eq.poolStats();
    EXPECT_GE(stats.compactions, 1u);
    // The sweep fires as soon as cancelled events outnumber live ones;
    // cancels after the sweep stay below the re-trigger threshold.
    EXPECT_LT(stats.cancelledPending, 64u);
    EXPECT_EQ(eq.pendingCount(), 100u);
    eq.run();
    EXPECT_EQ(fired, 100);
}

TEST(EventQueue, StaleHandleCannotTouchRecycledRecord)
{
    EventQueue eq;
    bool a = false, b = false;
    EventHandle ha = eq.schedule(10, [&] { a = true; });
    eq.run();
    EXPECT_TRUE(a);
    EXPECT_FALSE(ha.pending());
    EXPECT_EQ(ha.when(), kMaxTick);

    // The freed record is recycled for the next event; the stale handle
    // must not be able to cancel it.
    EventHandle hb = eq.schedule(20, [&] { b = true; });
    ha.cancel();
    EXPECT_TRUE(hb.pending());
    eq.run();
    EXPECT_TRUE(b);
}

TEST(EventQueue, StaleHandleAfterCancelAndRecycle)
{
    EventQueue eq;
    bool b = false;
    EventHandle ha = eq.schedule(10, [] {});
    ha.cancel();
    eq.schedule(5, [] {});
    eq.run(); // drains both; the cancelled record is released

    EventHandle hb = eq.schedule(30, [&] { b = true; });
    ha.cancel(); // stale generation: no-op
    EXPECT_FALSE(ha.pending());
    EXPECT_TRUE(hb.pending());
    eq.run();
    EXPECT_TRUE(b);
}

TEST(EventQueue, CancelDuringOwnCallbackIsInert)
{
    EventQueue eq;
    EventHandle h;
    bool ran = false;
    h = eq.schedule(10, [&] {
        ran = true;
        EXPECT_FALSE(h.pending()); // already firing
        h.cancel();                // must be a no-op
    });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.firedCount(), 1u);
}

TEST(EventQueue, WheelAndFarHeapInterleaveInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Far beyond the wheel horizon (milliseconds) and near events mixed,
    // scheduled out of order.
    eq.schedule(ticks::fromMs(2), [&] { order.push_back(4); });
    eq.schedule(500, [&] { order.push_back(1); });
    eq.schedule(ticks::fromMs(1), [&] { order.push_back(3); });
    eq.schedule(ticks::fromUs(40), [&] { order.push_back(2); });
    // Same tick as the far event, scheduled later: FIFO puts it after.
    eq.schedule(ticks::fromMs(2), [&] { order.push_back(5); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));

    auto stats = eq.poolStats();
    EXPECT_GT(stats.heapInserts, 0u);  // far events used the heap
    EXPECT_GT(stats.wheelInserts, 0u); // near events used the wheel
}

TEST(EventQueue, DeterministicFiringOrderUnderChurn)
{
    // Two identically-seeded runs of a schedule/cancel/reschedule storm
    // must produce tick-for-tick identical firing order.
    auto runOnce = [] {
        std::vector<std::pair<Tick, int>> log;
        EventQueue eq;
        Rng rng(1234);
        std::vector<EventHandle> handles;
        int next_id = 0;
        for (int round = 0; round < 300; ++round) {
            int batch = 1 + static_cast<int>(rng.uniform(0, 4));
            for (int i = 0; i < batch; ++i) {
                Tick delay = rng.uniform(0, 200000);
                // A third of the events land far beyond the wheel
                // horizon to churn the overflow heap too.
                if (rng.chance(0.33))
                    delay += ticks::fromUs(100);
                int id = next_id++;
                handles.push_back(eq.scheduleIn(
                    delay, [&log, &eq, id] {
                        log.emplace_back(eq.now(), id);
                    }));
            }
            if (!handles.empty() && rng.chance(0.4)) {
                std::size_t victim = rng.uniform(0, handles.size() - 1);
                handles[victim].cancel();
            }
            eq.run(eq.now() + rng.uniform(0, 60000));
        }
        eq.run();
        return log;
    };
    auto first = runOnce();
    auto second = runOnce();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(EventQueue, InlineCallbacksAndPoolRecycling)
{
    EventQueue eq;
    std::uint64_t counter = 0;
    // Steady-state self-rescheduling: the pool must recycle one record
    // per event and every capture must stay on the inline path.
    std::function<void()> tick = [&] {
        if (++counter < 10000)
            eq.scheduleIn(1000, tick);
    };
    eq.scheduleIn(0, tick);
    eq.run();
    EXPECT_EQ(counter, 10000u);

    auto stats = eq.poolStats();
    EXPECT_EQ(stats.outlineCallbacks, 0u);
    EXPECT_EQ(stats.inlineCallbacks, eq.scheduledCount());
    EXPECT_EQ(stats.poolLive, 0u);
    // One event in flight at a time: the pool never grows past one chunk.
    EXPECT_LE(stats.poolHighWater, 2u);
    EXPECT_LE(stats.poolCapacity, 256u);
}

TEST(EventQueue, FireHookSeesEveryFiring)
{
    EventQueue eq;
    std::vector<std::pair<Tick, std::uint64_t>> firings;
    eq.setFireHook([&](Tick t, std::uint64_t seq) {
        firings.emplace_back(t, seq);
    });
    eq.schedule(200, [] {});
    eq.schedule(100, [] {});
    EventHandle h = eq.schedule(150, [] {});
    h.cancel();
    eq.run();
    ASSERT_EQ(firings.size(), 2u);
    EXPECT_EQ(firings[0].first, 100u);
    EXPECT_EQ(firings[1].first, 200u);
    // seq is the scheduling order: the 200-tick event was scheduled first.
    EXPECT_EQ(firings[0].second, 1u);
    EXPECT_EQ(firings[1].second, 0u);
}

TEST(Stats, CounterBasics)
{
    Counter c("ops");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(c.name(), "ops");
}

TEST(Stats, DistributionMoments)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_NEAR(d.percentile(50), 50.5, 1.0);
    EXPECT_NEAR(d.percentile(95), 95.0, 1.5);
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
}

TEST(Stats, DistributionDecimationKeepsPercentiles)
{
    Distribution d("lat", 256);
    for (int i = 0; i < 100000; ++i)
        d.sample(i % 1000);
    EXPECT_EQ(d.count(), 100000u);
    // Uniform 0..999: p50 ~ 500 even after heavy subsampling.
    EXPECT_NEAR(d.percentile(50), 500.0, 60.0);
    EXPECT_NEAR(d.percentile(90), 900.0, 60.0);
}

TEST(Stats, EmptyDistributionIsSafe)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.percentile(50), 0.0);
}

TEST(Stats, BandwidthHelper)
{
    // 1 MB in 1 ms = 1000 MB/s.
    EXPECT_NEAR(bandwidthMBps(1000000, ticks::fromMs(1)), 1000.0, 1e-6);
    EXPECT_EQ(bandwidthMBps(123, 0), 0.0);
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 7, "ok"), "x=7 y=ok");
    EXPECT_EQ(strfmt("%04x", 0xBEu), "00be");
}

TEST(Logging, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("boom %d", 1), SimPanic);
    EXPECT_THROW(fatal("bad config"), SimFatal);
}

TEST(Logging, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(babol_assert(false, "because %d", 42), SimPanic);
    EXPECT_NO_THROW(babol_assert(true, "fine"));
}

TEST(Table, AlignsAndCounts)
{
    Table t({"a", "bbbb"});
    t.addRow({"xxxxx", "1"});
    EXPECT_EQ(t.rowCount(), 1u);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("xxxxx"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"h1", "h2"});
    t.addRow({"v1", "v2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "h1,h2\nv1,v2\n");
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t({"one", "two"});
    EXPECT_THROW(t.addRow({"only-one"}), SimPanic);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(10.0, 0), "10");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, BinomialEdgeCases)
{
    Rng rng(4);
    EXPECT_EQ(rng.binomial(1000, 0.0), 0u);
    EXPECT_EQ(rng.binomial(1000, 1.0), 1000u);
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    // Mean of Binomial(10000, 0.1) is 1000.
    std::uint64_t sum = 0;
    for (int i = 0; i < 50; ++i)
        sum += rng.binomial(10000, 0.1);
    EXPECT_NEAR(static_cast<double>(sum) / 50.0, 1000.0, 50.0);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

} // namespace
