/**
 * @file
 * The scenario library: the command-line contract (the flags pick one
 * scenario, and a flag that scenario would not read is an error), the
 * stamped-data oracle, and whole scenario runs through run().
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/oracle.hh"
#include "scenario/run.hh"

using namespace babol;
using namespace babol::scenario;

namespace {

Spec
parse(std::initializer_list<const char *> args)
{
    return parseArgs(std::vector<std::string>(args.begin(), args.end()));
}

/** The UsageError message parse() raises, or "" when it accepts. */
std::string
rejection(std::initializer_list<const char *> args)
{
    try {
        parse(args);
    } catch (const UsageError &e) {
        return e.what();
    }
    return "";
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

TEST(ScenarioSpec, FlagsPickTheScenario)
{
    EXPECT_EQ(parse({}).kind, Kind::Fio);
    EXPECT_EQ(parse({"rtos", "--faults", "p.txt"}).kind, Kind::Fio);
    EXPECT_EQ(parse({"--fleet", "4", "--streams", "2"}).kind, Kind::Fleet);
    EXPECT_EQ(parse({"--crash-at", "5", "--crash-at", "9"}).crashAt,
              (std::vector<std::uint64_t>{5, 9}));
    EXPECT_EQ(parse({"--remount"}).kind, Kind::Crash);
    EXPECT_EQ(parse({"--lifetime-smoke"}).kind, Kind::Lifetime);
    EXPECT_EQ(parse({"--scrub", "--diefail-at", "200", "--threads", "4"})
                  .kind,
              Kind::Reliability);

    const Spec q = parse({"hw", "--qpairs", "2"});
    EXPECT_EQ(q.kind, Kind::Queued);
    EXPECT_EQ(q.flavor, core::Flavor::HwAsync);
    EXPECT_EQ(q.tenants, 8u) << "a queued run without a replay needs "
                                "traffic";
    EXPECT_EQ(parse({"--qpairs", "2", "--replay", "t.txt"}).tenants, 0u);
}

TEST(ScenarioSpec, FlagsFromTwoScenariosAreRejected)
{
    // The clean remount used to be dropped silently here (and, before
    // the reliability campaign learnt to cut power, the cut as well).
    const std::string msg =
        rejection({"coro", "--rain", "--crash-at", "200", "--remount"});
    EXPECT_NE(msg.find("--rain"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--remount"), std::string::npos) << msg;
    EXPECT_NE(rejection({"--qpairs", "2", "--fleet", "2"}), "");
    EXPECT_NE(rejection({"--lifetime-smoke", "--remount"}), "");
    EXPECT_NE(rejection({"--crash-at", "5", "--lifetime-smoke"}), "");
}

TEST(ScenarioSpec, CrashAtComposesIntoTheReliabilityCampaign)
{
    EXPECT_EQ(parse({"--crash-at", "100"}).kind, Kind::Crash);
    const Spec s = parse({"--crash-at", "100", "--rain", "--diefail-at",
                          "200"});
    EXPECT_EQ(s.kind, Kind::Reliability);
    EXPECT_EQ(s.crashAt, (std::vector<std::uint64_t>{100}));
    EXPECT_NE(rejection({"--rain", "--crash-at", "5", "--crash-at", "9"}),
              "")
        << "one cut per campaign";
    EXPECT_NE(rejection({"--rain", "--crash-at", "300", "--diefail-at",
                         "200"}),
              "")
        << "a cut after the die kill is not modelled";
    EXPECT_NE(rejection({"--rain", "--crash-at", "100", "--power-out",
                         "p.json"}),
              "")
        << "the probe run would be metered";
}

TEST(ScenarioSpec, FlagTheScenarioDoesNotReadIsRejected)
{
    const std::string msg = rejection({"coro", "--threads", "4"});
    EXPECT_NE(msg.find("no effect on the single-device fio run"),
              std::string::npos)
        << msg;
    EXPECT_NE(rejection({"--faults", "p.txt", "--rain"}), "");
    EXPECT_NE(rejection({"--fleet", "2", "--trace-out", "t.json"}), "");
    EXPECT_NE(rejection({"--replay", "t.txt"}), "");
    EXPECT_NE(rejection({"--crash-out", "c.txt"}), "");
    EXPECT_NE(rejection({"--lifetime-smoke", "--audit"}), "");
    EXPECT_NE(rejection({"--crash-at", "5", "--threads", "2"}), "");
    EXPECT_NE(rejection({"--qpairs", "2", "--replay", "t.txt",
                         "--slo-out", "s.json"}),
              "")
        << "a replay-only run has no tenants to report";
    EXPECT_EQ(rejection({"--qpairs", "2", "--replay", "t.txt", "--tenants",
                         "3", "--slo-out", "s.json"}),
              "");
}

TEST(ScenarioSpec, MalformedArgumentsAreRejected)
{
    for (auto args : {
             std::vector<std::string>{"--threads", "abc"},
             std::vector<std::string>{"--threads", "0"},
             std::vector<std::string>{"--threads", "4x"},
             std::vector<std::string>{"--threads", "-1"},
             std::vector<std::string>{"--qpairs", "4294967296"},
             std::vector<std::string>{"--crash-at",
                                      "99999999999999999999999"},
             std::vector<std::string>{"--fleet"},
             std::vector<std::string>{"--remount=1"},
             std::vector<std::string>{"--fleet=3"},
             std::vector<std::string>{"--audit="},
             std::vector<std::string>{"--trace-out=t.json"},
             std::vector<std::string>{"--trace-out"},
             std::vector<std::string>{"--rain", "--rain"},
             std::vector<std::string>{"--bogus"},
             std::vector<std::string>{"fpga"},
             std::vector<std::string>{"coro", "rtos"},
         }) {
        EXPECT_THROW(parseArgs(args), UsageError) << args[0];
    }
}

TEST(ScenarioSpec, ObservabilityFlagsUseTheSharedGrammar)
{
    // obs::cli::Options::parse() reads them, as in every harness: only
    // --audit takes an attached value, as only --faults does among the
    // scenario flags.
    const Spec s = parse({"--trace-out", "t.json", "--audit=r.txt",
                          "--faults=p.txt"});
    EXPECT_EQ(s.obs.traceOut, "t.json");
    EXPECT_TRUE(s.obs.audit);
    EXPECT_EQ(s.obs.auditOut, "r.txt");
    EXPECT_EQ(s.faultPlan, "p.txt");
    EXPECT_TRUE(parse({"--audit"}).obs.audit);
    EXPECT_EQ(parse({"--audit"}).obs.auditOut, "");
    EXPECT_EQ(parse({"--qpairs", "2", "--power-cap", "900"}).obs.powerCapMw,
              900u);
    EXPECT_THROW(parse({"--power-cap", "9x"}), SimFatal);
}

TEST(ScenarioSpec, HelpWinsAndUsageListsEveryScenario)
{
    EXPECT_TRUE(parse({"--help", "--bogus"}).help);
    EXPECT_TRUE(parse({"--rain", "--crash-at", "5", "--help"}).help);
    EXPECT_TRUE(parse({"-h"}).help);
    const std::string text = usage("ssd_fio");
    for (Kind k : {Kind::Fio, Kind::Fleet, Kind::Queued, Kind::Crash,
                   Kind::Lifetime, Kind::Reliability})
        EXPECT_NE(text.find(kindName(k)), std::string::npos) << kindName(k);
    EXPECT_NE(text.find("--reliability-out FILE"), std::string::npos);
    EXPECT_NE(text.find("--audit[=FILE]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Stamped-data oracle
// ---------------------------------------------------------------------

TEST(StampOracle, LedgerJudgesEveryKindOfReadBack)
{
    Ledger led(4);
    led.issuedGen[2] = 5;
    led.ackedGen[2] = 3;
    std::vector<std::uint8_t> page(512);
    std::uint64_t gen = 0;

    stampPage(page, 2, 4);
    ASSERT_TRUE(readStamp(page, 2, &gen));
    EXPECT_EQ(gen, 4u);
    EXPECT_FALSE(readStamp(page, 1, &gen)) << "stamp names another LPN";
    EXPECT_EQ(led.check(page, 2, 3, &gen), Verdict::Intact);

    stampPage(page, 2, 2);
    EXPECT_EQ(led.check(page, 2, 3, &gen), Verdict::Stale);
    EXPECT_EQ(gen, 2u);
    stampPage(page, 2, 6);
    EXPECT_EQ(led.check(page, 2, 3, &gen), Verdict::Unissued);
    stampPage(page, 2, 5);
    page[300] ^= 0x10;
    EXPECT_EQ(led.check(page, 2, 3, &gen), Verdict::Corrupt);
    std::fill(page.begin(), page.end(), 0xFF);
    EXPECT_EQ(led.check(page, 2, 0, &gen), Verdict::Unstamped);
    EXPECT_EQ(gen, 0u);
}

TEST(StampOracle, DigestFoldsLittleEndianWordsInOrder)
{
    Digest a, b, c;
    a.fold(1);
    a.fold(2);
    b.fold(2);
    b.fold(1);
    EXPECT_NE(a.value, b.value);
    // One word = its eight bytes, low byte first, through FNV-1a.
    std::uint64_t ref = 1469598103934665603ull;
    for (std::uint8_t byte : {0x34, 0x12, 0, 0, 0, 0, 0, 0}) {
        ref ^= byte;
        ref *= 1099511628211ull;
    }
    c.fold(0x1234);
    EXPECT_EQ(c.value, ref);
}

TEST(StampOracle, FailedRemountOutranksLaterDataLoss)
{
    // A remount verification that finds violations exits 1 in both the
    // crash and the reliability campaign; loss found only afterwards is
    // kExitDataLoss; otherwise the observability verdict stands.
    EXPECT_EQ(campaignStatus(2, true, 0), 1);
    EXPECT_EQ(campaignStatus(1, false, 0), 1);
    EXPECT_EQ(campaignStatus(0, true, 1), kExitDataLoss);
    EXPECT_EQ(campaignStatus(0, false, 1), 1);
    EXPECT_EQ(campaignStatus(0, false, 0), 0);
}

// ---------------------------------------------------------------------
// Whole runs
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ScenarioRun, CrashCycleRecoversAndRepeatsByteForByte)
{
    const std::string out = testing::TempDir() + "scenario_crash.txt";
    std::remove(out.c_str());
    for (int rep = 0; rep < 2; ++rep) {
        Spec spec = parse({"rtos", "--crash-at", "40", "--remount",
                           "--crash-out", out.c_str()});
        EXPECT_EQ(run(spec), 0);
    }
    const std::string lines = slurp(out);
    // Two cycles per run (cut at 40, clean remount), the rerun's pair
    // identical to the first.
    const std::size_t half = lines.size() / 2;
    ASSERT_GT(half, 0u);
    EXPECT_EQ(lines.substr(0, half), lines.substr(half));
    EXPECT_NE(lines.find("crash-at=40 acked=40"), std::string::npos)
        << lines;
    EXPECT_NE(lines.find("lost=0 stale=0 corrupt=0"), std::string::npos);
    std::remove(out.c_str());
}

TEST(ScenarioRun, PowerCutInsideTheReliabilityCampaignIsThreadInvariant)
{
    // The cut freezes every shard at the probed tick of the 60th ack,
    // so the remount, the post-cut traffic and the digest are the same
    // at any worker-thread count.
    const std::string out = testing::TempDir() + "scenario_rel_cut.txt";
    std::remove(out.c_str());
    for (const char *threads : {"1", "2"}) {
        Spec spec = parse({"hw-sync", "--scrub", "--crash-at", "60",
                           "--threads", threads, "--reliability-out",
                           out.c_str()});
        EXPECT_EQ(run(spec), 0);
    }
    const std::string lines = slurp(out);
    const std::size_t half = lines.size() / 2;
    ASSERT_GT(half, 0u);
    EXPECT_EQ(lines.substr(0, half), lines.substr(half));
    EXPECT_NE(lines.find("crash@60 recovery-violations=0"),
              std::string::npos)
        << lines;
    std::remove(out.c_str());
}

TEST(ScenarioRun, DieKillWithoutRainReportsDataLoss)
{
    // The reliability campaign's negative control: the oracle must see
    // the loss and say so through the dedicated exit status.
    Spec spec = parse({"coro", "--diefail-at", "120"});
    EXPECT_EQ(run(spec), kExitDataLoss);
}

} // namespace
