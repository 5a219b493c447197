/**
 * @file
 * The deterministic fault-injection and recovery subsystem: plan
 * parsing, per-flavour recovery of every fault class (read-retry
 * escalation, FAIL-bit program/erase verification, stuck-busy
 * absorption and bounded-timeout detection), FTL program-fail remap
 * with grown-defect persistence across a remount, and byte-identical
 * reproduction of a whole campaign from the same plan + seed.
 */

#include <gtest/gtest.h>

#include "core/controller_factory.hh"
#include "core/coro/coro_controller.hh"
#include "core/hw/hw_controller.hh"
#include "core/rtos_env/rtos_controller.hh"
#include "fault/fault_engine.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"

using namespace babol;
using namespace babol::core;

namespace {

// ---------------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesTheDocumentedGrammar)
{
    fault::FaultPlan plan = fault::parsePlan(R"(
        # campaign header
        seed 42
        fault bitburst  where=pkg3 nth=20 count=3 bits=40
        fault progfail  where=pkg1 block=0-3 nth=10 count=2
        fault erasefail where=pkg2 block=7
        fault stuckbusy where=pkg5 nth=8 count=2 extra_us=400
        fault drift     where=pkg4 nth=5 level=2 page=* suppress_us=100
    )");

    ASSERT_EQ(plan.faults.size(), 5u);
    EXPECT_EQ(plan.seed, 42u);

    const fault::FaultSpec &burst = plan.faults[0];
    EXPECT_EQ(burst.kind, fault::FaultKind::BitBurst);
    EXPECT_EQ(burst.where, "pkg3");
    EXPECT_EQ(burst.nth, 20u);
    EXPECT_EQ(burst.count, 3u);
    EXPECT_EQ(burst.bits, 40u);

    const fault::FaultSpec &prog = plan.faults[1];
    EXPECT_EQ(prog.kind, fault::FaultKind::ProgFail);
    EXPECT_EQ(prog.blockLo, 0u);
    EXPECT_EQ(prog.blockHi, 3u);

    const fault::FaultSpec &erase = plan.faults[2];
    EXPECT_EQ(erase.kind, fault::FaultKind::EraseFail);
    EXPECT_EQ(erase.blockLo, 7u);
    EXPECT_EQ(erase.blockHi, 7u);
    EXPECT_EQ(erase.nth, 1u); // defaults

    const fault::FaultSpec &stuck = plan.faults[3];
    EXPECT_EQ(stuck.kind, fault::FaultKind::StuckBusy);
    EXPECT_EQ(stuck.extraBusy, 400 * ticks::perUs);

    const fault::FaultSpec &drift = plan.faults[4];
    EXPECT_EQ(drift.kind, fault::FaultKind::Drift);
    EXPECT_EQ(drift.level, 2u);
    EXPECT_EQ(drift.pageLo, 0u);
    EXPECT_EQ(drift.pageHi, ~0u);
    EXPECT_EQ(drift.suppressTicks, 100 * ticks::perUs);
}

TEST(FaultPlan, MalformedInputPanicsWithLineNumbers)
{
    EXPECT_THROW(fault::parsePlan("fault meteorstrike"), SimPanic);
    EXPECT_THROW(fault::parsePlan("fault bitburst nth=zero"), SimPanic);
    EXPECT_THROW(fault::parsePlan("fault bitburst block=9-2"), SimPanic);
    EXPECT_THROW(fault::parsePlan("seed"), SimPanic);
    EXPECT_THROW(fault::parsePlan("gibberish line"), SimPanic);
}

// ---------------------------------------------------------------------
// Every fault class, every controller flavour
// ---------------------------------------------------------------------

const char *
flavorLabel(const testing::TestParamInfo<Flavor> &info)
{
    switch (info.param) {
      case Flavor::Coro:
        return "coroutine";
      case Flavor::Rtos:
        return "rtos";
      case Flavor::HwSync:
        return "hwsync";
      case Flavor::HwAsync:
        return "hwasync";
    }
    return "?";
}

class FaultRecoveryTest : public testing::TestWithParam<Flavor>
{
  protected:
    void
    SetUp() override
    {
        fault::engine().disarm();
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.chips = 2;
        sys_ = std::make_unique<ChannelSystem>(eq_, "ssd", cfg);

        SoftControllerConfig soft;
        soft.maxReadRetries = 4;
        ctrl_ = makeController(GetParam(), eq_, "ctrl", *sys_, soft);
    }

    void TearDown() override { fault::engine().disarm(); }

    bool
    isHardware() const
    {
        return GetParam() == Flavor::HwSync ||
               GetParam() == Flavor::HwAsync;
    }

    OpResult
    runOne(FlashRequest req)
    {
        OpResult out;
        bool done = false;
        req.onComplete = [&](OpResult r) {
            out = r;
            done = true;
        };
        ctrl_->submit(std::move(req));
        eq_.run();
        EXPECT_TRUE(done);
        return out;
    }

    /** Erase + program one page with the engine disarmed, so the
     *  faults under test strike only the operation being tested. */
    void
    prepPage(std::uint32_t chip, std::uint32_t block, std::uint32_t page)
    {
        babol_assert(!fault::engine().armed(), "prep must run clean");
        FlashRequest erase;
        erase.kind = FlashOpKind::Erase;
        erase.chip = chip;
        erase.row = {0, block, 0};
        ASSERT_TRUE(runOne(std::move(erase)).ok);

        std::vector<std::uint8_t> payload(sys_->pageDataBytes());
        for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = static_cast<std::uint8_t>(i * 17 + 3);
        sys_->dram().write(0, payload);
        for (std::uint32_t p = 0; p <= page; ++p) {
            FlashRequest prog;
            prog.kind = FlashOpKind::Program;
            prog.chip = chip;
            prog.row = {0, block, p};
            prog.dramAddr = 0;
            ASSERT_TRUE(runOne(std::move(prog)).ok);
        }
    }

    void
    armOne(fault::FaultSpec spec, std::uint64_t seed = 7)
    {
        fault::FaultPlan plan;
        plan.seed = seed;
        plan.faults.push_back(std::move(spec));
        fault::engine().arm(plan);
    }

    FlashRequest
    readReq(std::uint32_t chip, std::uint32_t block, std::uint32_t page)
    {
        FlashRequest req;
        req.kind = FlashOpKind::Read;
        req.chip = chip;
        req.row = {0, block, page};
        req.dramAddr = 1 << 20;
        return req;
    }

    EventQueue eq_;
    std::unique_ptr<ChannelSystem> sys_;
    std::unique_ptr<ChannelController> ctrl_;
};

TEST_P(FaultRecoveryTest, BitBurstRecoveredByReadRetry)
{
    prepPage(1, 3, 0);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::BitBurst;
    spec.where = "pkg1";
    spec.bits = 40; // 5x the 8-bit/codeword corrector
    armOne(spec);

    OpResult r = runOne(readReq(1, 3, 0));
    EXPECT_TRUE(r.ok);
    EXPECT_GE(r.retries, 1u) << "burst should have forced a retry";
    EXPECT_EQ(fault::engine().injectedOf(fault::FaultKind::BitBurst), 1u);
    EXPECT_GE(fault::engine().retrySteps(), 1u);
}

TEST_P(FaultRecoveryTest, DriftNeedsTheSpecifiedRetryLevel)
{
    prepPage(0, 2, 1);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::Drift;
    spec.where = "pkg0";
    spec.level = 2;
    armOne(spec);

    OpResult r = runOne(readReq(0, 2, 1));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.retries, 2u)
        << "drift clears only at retry level 2, not before";
    EXPECT_EQ(fault::engine().injectedOf(fault::FaultKind::Drift), 1u);
}

TEST_P(FaultRecoveryTest, ProgramFailRaisesTheFailBit)
{
    prepPage(0, 4, 0); // leaves block 4 pages 0 programmed

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::ProgFail;
    spec.where = "pkg0";
    armOne(spec);

    FlashRequest prog;
    prog.kind = FlashOpKind::Program;
    prog.chip = 0;
    prog.row = {0, 4, 1};
    prog.dramAddr = 0;
    OpResult r = runOne(std::move(prog));
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.flashFail);
    EXPECT_EQ(fault::engine().injectedOf(fault::FaultKind::ProgFail), 1u);

    // The failed page was never committed: programming it again after
    // the fault clears succeeds (the plan's single firing is spent).
    OpResult again = runOne([&] {
        FlashRequest rq;
        rq.kind = FlashOpKind::Program;
        rq.chip = 0;
        rq.row = {0, 4, 1};
        rq.dramAddr = 0;
        return rq;
    }());
    EXPECT_TRUE(again.ok);
}

TEST_P(FaultRecoveryTest, EraseFailRaisesTheFailBit)
{
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::EraseFail;
    spec.where = "pkg1";
    armOne(spec);

    FlashRequest erase;
    erase.kind = FlashOpKind::Erase;
    erase.chip = 1;
    erase.row = {0, 5, 0};
    OpResult r = runOne(std::move(erase));
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.flashFail);
    EXPECT_EQ(fault::engine().injectedOf(fault::FaultKind::EraseFail),
              1u);
}

TEST_P(FaultRecoveryTest, StuckBusyWithinBudgetCompletesLate)
{
    prepPage(0, 6, 0);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::StuckBusy;
    spec.where = "pkg0";
    spec.extraBusy = 400 * ticks::perUs; // inside 2*tR + grace
    armOne(spec);

    OpResult r = runOne(readReq(0, 6, 0));
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GE(r.doneTick - r.startTick, 400 * ticks::perUs);
    EXPECT_EQ(fault::engine().timeouts(), 0u);
}

TEST_P(FaultRecoveryTest, StuckBusyBeyondBudgetTimesOutSoftFlavors)
{
    prepPage(1, 7, 0);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::StuckBusy;
    spec.where = "pkg1";
    spec.extraBusy = 20 * ticks::perMs; // far past 2*tR + grace
    armOne(spec);

    OpResult r = runOne(readReq(1, 7, 0));
    if (isHardware()) {
        // The R/B#-pin design has no poll budget: it just waits out the
        // overrun and completes.
        EXPECT_TRUE(r.ok);
        EXPECT_FALSE(r.timedOut);
    } else {
        EXPECT_FALSE(r.ok);
        EXPECT_TRUE(r.timedOut);
        EXPECT_EQ(fault::engine().timeouts(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(Flavors, FaultRecoveryTest,
                         testing::Values(Flavor::Coro, Flavor::Rtos,
                                         Flavor::HwSync,
                                         Flavor::HwAsync),
                         flavorLabel);

// ---------------------------------------------------------------------
// FTL: program-fail remap and grown-defect persistence
// ---------------------------------------------------------------------

struct FaultedSsdRig
{
    EventQueue eq;
    ChannelSystem sys;
    HwController ctrl;
    ftl::PageFtl ftl;

    explicit FaultedSsdRig(ftl::FtlConfig fcfg = smallFtl())
        : sys(eq, "ssd", makeChannel()), ctrl(eq, "ctrl", sys, false),
          ftl(eq, "ftl", ctrl, fcfg)
    {
        ctrl.setMaxReadRetries(4);
    }

    static ChannelConfig
    makeChannel()
    {
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.package.geometry.pagesPerBlock = 8;
        cfg.package.geometry.blocksPerPlane = 32;
        cfg.chips = 2;
        return cfg;
    }

    static ftl::FtlConfig
    smallFtl()
    {
        ftl::FtlConfig cfg;
        cfg.blocksPerChip = 8;
        cfg.overprovision = 0.25;
        return cfg;
    }

    bool
    writeOne(std::uint64_t lpn)
    {
        bool ok = false, done = false;
        ftl.writePage(lpn, 0, [&](bool o) {
            ok = o;
            done = true;
        });
        eq.run();
        EXPECT_TRUE(done);
        return ok;
    }

    bool
    readOne(std::uint64_t lpn)
    {
        bool ok = false, done = false;
        ftl.readPage(lpn, 1 << 20, [&](bool o) {
            ok = o;
            done = true;
        });
        eq.run();
        EXPECT_TRUE(done);
        return ok;
    }
};

TEST(FaultFtl, ProgramFailIsRemappedAndTheWriteStillSucceeds)
{
    fault::FaultPlan plan;
    plan.seed = 11;
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::ProgFail;
    spec.nth = 3;
    plan.faults.push_back(spec);
    fault::engine().arm(plan);

    FaultedSsdRig rig;
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        EXPECT_TRUE(rig.writeOne(lpn)) << "lpn " << lpn;

    EXPECT_EQ(fault::engine().injectedOf(fault::FaultKind::ProgFail), 1u);
    EXPECT_GE(rig.ftl.blocksRetired(), 1u);
    EXPECT_GE(fault::engine().remaps(), 1u);
    EXPECT_FALSE(rig.ftl.exportGrownDefects().empty());

    // Every page written through the failure reads back fine.
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        EXPECT_TRUE(rig.readOne(lpn)) << "lpn " << lpn;
    fault::engine().disarm();
}

TEST(FaultFtl, GrownDefectsPersistAcrossRemount)
{
    fault::FaultPlan plan;
    plan.seed = 13;
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::EraseFail;
    spec.nth = 1;
    spec.count = 2;
    plan.faults.push_back(spec);
    fault::engine().arm(plan);

    FaultedSsdRig rig;
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        EXPECT_TRUE(rig.writeOne(lpn));
    std::vector<ftl::GrownDefect> table = rig.ftl.exportGrownDefects();
    ASSERT_FALSE(table.empty());
    fault::engine().disarm();

    // Remount: a fresh world over the SAME cells — no side-channel, the
    // defect table has to come back from the OOB journal alone.
    FaultedSsdRig rig2;
    for (std::uint32_t c = 0; c < 2; ++c)
        rig2.sys.lun(c).array().copyStateFrom(rig.sys.lun(c).array());
    bool mounted = false;
    rig2.ftl.mount([&](bool ok) { mounted = ok; });
    rig2.eq.run();
    ASSERT_TRUE(mounted);

    std::vector<ftl::GrownDefect> after = rig2.ftl.exportGrownDefects();
    ASSERT_EQ(after.size(), table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(after[i].chip, table[i].chip);
        EXPECT_EQ(after[i].block, table[i].block);
    }

    // The remounted device still works and never re-learns the defect.
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        EXPECT_TRUE(rig2.writeOne(lpn));
    EXPECT_EQ(rig2.ftl.blocksRetired(), 0u);
    EXPECT_EQ(rig2.ftl.exportGrownDefects().size(), table.size());
}

// ---------------------------------------------------------------------
// Campaign determinism: same plan + seed => identical recovery trace
// ---------------------------------------------------------------------

std::vector<std::string>
runCampaign()
{
    fault::FaultPlan plan = fault::parsePlan(R"(
        seed 1234
        fault bitburst  where=pkg0 nth=3 count=2 bits=40
        fault progfail  where=pkg1 nth=2
        fault erasefail where=pkg2 nth=1
        fault drift     where=pkg3 nth=2 level=2
        fault stuckbusy where=pkg3 nth=5 extra_us=100
    )");
    fault::engine().arm(plan);

    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.package.geometry.pagesPerBlock = 32;
    cfg.chips = 4;
    ChannelSystem sys(eq, "ssd", cfg);

    SoftControllerConfig soft;
    soft.maxReadRetries = 4;
    RtosController ctrl(eq, "ctrl", sys, soft);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", ctrl, fcfg);

    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 8;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(64, [&] { filled = true; });
    eq.run();
    EXPECT_TRUE(filled);

    host::FioConfig io;
    io.pattern = host::FioConfig::Pattern::Random;
    io.queueDepth = 8;
    io.extentPages = 64;
    io.totalIos = 200;
    io.dramBase = 8 << 20;
    io.seed = 99;
    host::FioEngine engine(eq, "fio", ftl, io);
    bool done = false;
    engine.start([&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(engine.errors(), 0u) << "recovery paths left host errors";

    std::vector<std::string> log = fault::engine().log();
    fault::engine().disarm();
    return log;
}

TEST(FaultDeterminism, IdenticalPlanAndSeedReproduceTheTraceExactly)
{
    std::vector<std::string> first = runCampaign();
    std::vector<std::string> second = runCampaign();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "the recovery trace is not a pure function of (plan, seed)";

    // The campaign exercised every fault class at least once.
    bool sawInject = false, sawRetry = false, sawRemap = false;
    for (const std::string &line : first) {
        sawInject |= line.find("inject") != std::string::npos;
        sawRetry |= line.find("retry") != std::string::npos;
        sawRemap |= line.find("remap") != std::string::npos;
    }
    EXPECT_TRUE(sawInject);
    EXPECT_TRUE(sawRetry);
    EXPECT_TRUE(sawRemap);
}

} // namespace
