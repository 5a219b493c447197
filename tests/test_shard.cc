/**
 * @file
 * The sharded engine's contract tests: conservative-lookahead
 * windowing determinism at any thread count (with per-link FIFO kept
 * through a same-tick burst), stale-handle safety across shard
 * boundaries, classic-vs-sharded device equivalence, byte-identical
 * traces and metrics at 1/2/4 worker threads on the seeded Fig. 12
 * workload, and fleet-member isolation.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <tuple>
#include <vector>

#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "obs/hub.hh"
#include "sim/fleet.hh"
#include "sim/parallel.hh"
#include "ssd/sharded_ssd.hh"
#include "ssd/ssd.hh"

using namespace babol;

// ---------------------------------------------------------------------
// ParallelEngine: windowed execution, thread-count invariance
// ---------------------------------------------------------------------

namespace {

/** Messages shard 0 posts to shard 1 for one tick: more than the
 *  1024 slots a fixed-capacity link would hold. */
constexpr int kBurst = 1500;

/** A 3-shard model where shards 1 and 2 run local ticks and exchange
 *  cross-shard messages, and shard 0 sends shard 1 a same-tick burst;
 *  every shard logs (time, tag) into its own vector, so the merged
 *  logs expose any ordering difference. */
std::vector<std::vector<std::pair<Tick, int>>>
runPingPong(std::uint32_t threads)
{
    const Tick L = 100;
    sim::ParallelEngine pe(3, L);
    std::vector<std::vector<std::pair<Tick, int>>> log(3);

    pe.queue(0).scheduleIn(
        250,
        [&log, &pe, L] {
            const Tick at = pe.queue(0).now() + L;
            for (int i = 0; i < kBurst; ++i)
                pe.post(0, 1, at, [&log, &pe, i] {
                    log[1].emplace_back(pe.queue(1).now(), -1 - i);
                });
        },
        "burst");

    for (std::uint32_t s = 1; s <= 2; ++s) {
        for (int i = 0; i < 50; ++i) {
            pe.queue(s).scheduleIn(
                10 * Tick(i + 1),
                [&log, &pe, s, i, L] {
                    const Tick now = pe.queue(s).now();
                    log[s].emplace_back(now, i);
                    if (i % 5 == 0) {
                        const std::uint32_t other = 3 - s;
                        pe.post(s, other, now + L,
                                [&log, &pe, other, s, i] {
                                    log[other].emplace_back(
                                        pe.queue(other).now(),
                                        1000 * int(s) + i);
                                });
                    }
                },
                "tick");
        }
    }
    const std::uint64_t fired = pe.run(threads);
    EXPECT_GT(fired, 100u + kBurst);
    EXPECT_EQ(pe.crossShardMessages(), 20u + kBurst);

    // The burst arrives whole, at one tick, in the order it was posted.
    std::vector<int> burst, posted(kBurst);
    std::iota(posted.begin(), posted.end(), 0);
    for (const auto &[when, tag] : log[1])
        if (tag < 0) {
            EXPECT_EQ(when, 250 + L);
            burst.push_back(-1 - tag);
        }
    EXPECT_EQ(burst, posted);
    return log;
}

} // namespace

TEST(ParallelEngine, PingPongIsThreadCountInvariant)
{
    auto one = runPingPong(1);
    auto two = runPingPong(2);
    auto three = runPingPong(3);
    auto eight = runPingPong(8); // clamped to the shard count
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, three);
    EXPECT_EQ(one, eight);
}

TEST(ParallelEngine, UntilBoundStopsAllShardsAtTheWindowEdge)
{
    sim::ParallelEngine pe(2, 50);
    int fired = 0;
    pe.queue(0).scheduleIn(10, [&] { ++fired; }, "early");
    pe.queue(1).scheduleIn(10'000, [&] { ++fired; }, "late");
    pe.run(2, 100);
    EXPECT_EQ(fired, 1) << "event past `until` must not fire";
    pe.run(2);
    EXPECT_EQ(fired, 2) << "a second run picks the remainder up";
}

TEST(ParallelEngine, ShardExceptionIsRethrownOnTheCaller)
{
    sim::ParallelEngine pe(3, 50);
    pe.queue(2).scheduleIn(10, [] { throw std::runtime_error("boom"); },
                           "thrower");
    EXPECT_THROW(pe.run(3), std::runtime_error);
}

TEST(ParallelEngine, StaleHandleAcrossShardBoundaryIsInert)
{
    sim::ParallelEngine pe(2, 50);
    int fired = 0;
    EventHandle h = pe.queue(1).scheduleIn(10, [&] { fired += 1; }, "once");
    // A cross-shard message whose delivery reuses pool records on the
    // receiving queue after `h`'s record was released.
    pe.queue(0).scheduleIn(5,
                           [&pe, &fired] {
                               pe.post(0, 1, pe.queue(0).now() + 50,
                                       [&fired] { fired += 10; });
                           },
                           "sender");
    pe.run(2);
    EXPECT_EQ(fired, 11);

    // The handle's record has been freed (and possibly reused by the
    // delivered message): it must report inert and cancel as a no-op.
    EXPECT_FALSE(h.pending());
    EXPECT_EQ(h.when(), kMaxTick);
    h.cancel();

    // Nothing scheduled afterwards on that queue was disturbed.
    pe.queue(1).scheduleIn(10, [&] { fired += 100; }, "after");
    pe.run(1);
    EXPECT_EQ(fired, 111);
}

// ---------------------------------------------------------------------
// Classic vs sharded device, and thread-count invariance on the
// seeded Fig. 12 workload
// ---------------------------------------------------------------------

namespace {

ssd::SsdConfig
smallSsd(std::uint32_t channels, std::uint32_t ways)
{
    ssd::SsdConfig cfg;
    cfg.channels = channels;
    cfg.flavor = "coro";
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.package.geometry.pagesPerBlock = 8;
    cfg.channel.package.geometry.blocksPerPlane = 16;
    cfg.channel.chips = ways;
    cfg.channel.seed = 7;
    cfg.dramBytes = 64ull << 20;
    return cfg;
}

ftl::FtlConfig
smallFtl()
{
    ftl::FtlConfig cfg;
    cfg.blocksPerChip = 8;
    cfg.overprovision = 0.25;
    return cfg;
}

struct WorkloadResult
{
    Tick fillElapsed = 0;
    Tick readElapsed = 0;
    std::uint64_t completed = 0;
    std::uint64_t ops = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t hostReads = 0;
    std::uint64_t hostWrites = 0;

    bool
    operator==(const WorkloadResult &o) const
    {
        return fillElapsed == o.fillElapsed &&
               readElapsed == o.readElapsed && completed == o.completed &&
               ops == o.ops && bytesRead == o.bytesRead &&
               bytesWritten == o.bytesWritten &&
               hostReads == o.hostReads && hostWrites == o.hostWrites;
    }
};

host::FioConfig
fig12Reads()
{
    host::FioConfig io;
    io.pattern = host::FioConfig::Pattern::Random;
    io.queueDepth = 8;
    io.extentPages = 32;
    io.totalIos = 64;
    io.seed = 99;
    io.dramBase = 8 << 20;
    return io;
}

WorkloadResult
runClassicFig12()
{
    EventQueue eq;
    ssd::Ssd dev(eq, "ssd", smallSsd(2, 2));
    ftl::PageFtl ftl(eq, "ftl", dev, smallFtl());

    WorkloadResult r;
    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 4;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(32, [&] { filled = true; });
    eq.run();
    EXPECT_TRUE(filled);
    r.fillElapsed = filler.elapsed();

    host::FioEngine engine(eq, "fio", ftl, fig12Reads());
    bool done = false;
    engine.start([&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(engine.errors(), 0u);
    r.readElapsed = engine.elapsed();
    r.completed = engine.completed();
    r.ops = dev.opsCompleted();
    r.bytesRead = dev.payloadBytesRead();
    r.bytesWritten = dev.payloadBytesWritten();
    r.hostReads = ftl.hostReads();
    r.hostWrites = ftl.hostWrites();
    return r;
}

/** Fixed-size digest of one merged trace record (interned ids are
 *  process-stable, span ids are shard-seeded — both reproducible). */
using TraceDigest = std::vector<
    std::tuple<Tick, Tick, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint32_t, std::uint32_t, int>>;

struct ShardedDigest
{
    WorkloadResult result;
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
    TraceDigest trace;
    std::string metricsJson;
};

ShardedDigest
runShardedFig12(std::uint32_t channels, std::uint32_t threads)
{
    obs::hub().reset();
    // Span ids are monotone across clear() by design; reseed the main
    // context so every run numbers its spans from the same base and
    // the digests compare byte-for-byte.
    obs::hub().trace().seedSpanIds(obs::kNoSpan);
    obs::hub().trace().setEnabled(true);
    obs::hub().trace().clear();

    ShardedDigest d;
    {
        ssd::ShardedSsd dev("ssd", smallSsd(channels, 2));
        ftl::PageFtl ftl(dev.hostQueue(), "ftl", dev, smallFtl());

        host::FioConfig fill_cfg;
        fill_cfg.queueDepth = 4;
        host::FioEngine filler(dev.hostQueue(), "fill", ftl, fill_cfg);
        bool filled = false;
        filler.fill(32, [&] { filled = true; });
        dev.run(threads);
        EXPECT_TRUE(filled);
        d.result.fillElapsed = filler.elapsed();

        host::FioEngine engine(dev.hostQueue(), "fio", ftl, fig12Reads());
        bool done = false;
        engine.start([&] { done = true; });
        dev.run(threads);
        EXPECT_TRUE(done);
        EXPECT_EQ(engine.errors(), 0u);
        d.result.readElapsed = engine.elapsed();
        d.result.completed = engine.completed();
        d.result.ops = dev.opsCompleted();
        d.result.bytesRead = dev.payloadBytesRead();
        d.result.bytesWritten = dev.payloadBytesWritten();
        d.result.hostReads = ftl.hostReads();
        d.result.hostWrites = ftl.hostWrites();
        d.windows = dev.engine().windowCount();
        d.messages = dev.engine().crossShardMessages();

        obs::hub().trace().forEach([&](std::uint64_t,
                                       const obs::TraceRecord &rec) {
            d.trace.emplace_back(rec.t0, rec.t1, rec.span, rec.parent,
                                 rec.arg, rec.track, rec.label,
                                 int(rec.kind));
        });

        std::ostringstream os;
        obs::hub().metrics().writeJson(os);
        d.metricsJson = os.str();
    }
    obs::hub().reset();
    return d;
}

} // namespace

TEST(ShardedSsd, OneThreadMatchesTheClassicEngine)
{
    WorkloadResult classic = runClassicFig12();
    ShardedDigest sharded = runShardedFig12(2, 1);
    EXPECT_TRUE(classic == sharded.result)
        << "classic fill/read " << classic.fillElapsed << "/"
        << classic.readElapsed << " ops " << classic.ops
        << " vs sharded " << sharded.result.fillElapsed << "/"
        << sharded.result.readElapsed << " ops " << sharded.result.ops;
    EXPECT_GT(sharded.messages, 0u);
}

TEST(ShardedSsd, Fig12IsByteIdenticalAtOneTwoFourThreads)
{
    // 4 channels -> 5 shards, so 4 workers genuinely run concurrently.
    ShardedDigest one = runShardedFig12(4, 1);
    ShardedDigest two = runShardedFig12(4, 2);
    ShardedDigest four = runShardedFig12(4, 4);

    EXPECT_TRUE(one.result == two.result);
    EXPECT_TRUE(one.result == four.result);
    EXPECT_EQ(one.windows, two.windows);
    EXPECT_EQ(one.windows, four.windows);
    EXPECT_EQ(one.messages, two.messages);
    EXPECT_EQ(one.messages, four.messages);

    ASSERT_GT(one.trace.size(), 100u) << "a real traced workload";
    EXPECT_EQ(one.trace, two.trace);
    EXPECT_EQ(one.trace, four.trace);

    EXPECT_FALSE(one.metricsJson.empty());
    EXPECT_EQ(one.metricsJson, two.metricsJson);
    EXPECT_EQ(one.metricsJson, four.metricsJson);
}

// ---------------------------------------------------------------------
// Fleet mode
// ---------------------------------------------------------------------

TEST(FleetEngine, MemberSeedsAreDeterministicAndDecorrelated)
{
    const std::uint64_t a0 = sim::FleetEngine::memberSeed(7, 0);
    const std::uint64_t a1 = sim::FleetEngine::memberSeed(7, 1);
    EXPECT_EQ(a0, sim::FleetEngine::memberSeed(7, 0));
    EXPECT_NE(a0, a1);
    EXPECT_NE(a0, sim::FleetEngine::memberSeed(8, 0));
}

TEST(FleetEngine, MembersRunIsolatedAndThreadCountInvariant)
{
    auto runFleet = [](std::uint32_t threads) {
        std::vector<std::uint64_t> sums(4, 0);
        // Not vector<bool>: members write concurrently and packed bits
        // would share a word.
        std::vector<char> isolated(4, 0);
        sim::FleetEngine::run(4, threads, [&](std::size_t m) {
            obs::ExecContext ctx(obs::interner(),
                                 static_cast<std::uint32_t>(m));
            obs::ScopedExecContext scope(&ctx);
            // The member's obs helpers resolve to its private registry,
            // never the process one.
            isolated[m] = &obs::metrics() != &obs::hub().metrics();

            EventQueue eq;
            const std::uint64_t seed = sim::FleetEngine::memberSeed(7, m);
            std::uint64_t sum = 0;
            for (int i = 0; i < 100; ++i) {
                eq.scheduleIn(Tick(i + 1),
                              [&sum, seed, i] {
                                  sum = sum * 31 + seed + std::uint64_t(i);
                              },
                              "acc");
            }
            eq.run();
            sums[m] = sum;
        });
        for (char iso : isolated)
            EXPECT_TRUE(iso);
        return sums;
    };
    auto one = runFleet(1);
    auto four = runFleet(4);
    EXPECT_EQ(one, four);
    EXPECT_NE(one[0], one[1]);
}

TEST(FleetEngine, LowestFailingMemberWins)
{
    try {
        sim::FleetEngine::run(4, 2, [&](std::size_t m) {
            if (m == 1)
                throw std::runtime_error("member-1");
            if (m == 3)
                throw std::runtime_error("member-3");
        });
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "member-1");
    }
}
