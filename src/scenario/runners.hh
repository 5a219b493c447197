/**
 * @file
 * Library-internal: the per-kind runners run() dispatches to, and the
 * building blocks they share.
 */

#ifndef BABOL_SCENARIO_RUNNERS_HH
#define BABOL_SCENARIO_RUNNERS_HH

#include <functional>
#include <memory>

#include "core/controller_factory.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "scenario/run.hh"

namespace babol::scenario {

int runFio(Spec &spec);
int runFleet(Spec &spec);
int runQueued(Spec &spec);
int runCrash(Spec &spec);
int runLifetime(Spec &spec);
int runReliability(Spec &spec);

/** One controller stack on a single channel, FTL on top: the classic
 *  mini-SSD of the direct-FTL scenarios. */
struct MiniSsd
{
    EventQueue eq;
    core::ChannelSystem sys;
    std::unique_ptr<core::ChannelController> ctrl;
    ftl::PageFtl ftl;

    MiniSsd(core::Flavor flavor, const core::ChannelConfig &ccfg,
            const ftl::FtlConfig &fcfg, std::uint32_t max_read_retries)
        : sys(eq, "ssd", ccfg),
          ctrl(core::makeController(flavor, eq, "ctrl", sys,
                                    {.maxReadRetries = max_read_retries})),
          ftl(eq, "ftl", *ctrl, fcfg)
    {
    }
};

/** Precondition: @p filler writes the first @p pages logical pages;
 *  @p run drives the device until it is idle. */
inline void
fillPages(host::FioEngine &filler, std::uint64_t pages,
          const std::function<void()> &run)
{
    bool filled = false;
    filler.fill(pages, [&] { filled = true; });
    run();
    if (!filled)
        fatal("fill did not complete");
}

/** Fill-phase engine settings: sequential at queue depth 16. */
inline host::FioConfig
fillConfig()
{
    host::FioConfig cfg;
    cfg.queueDepth = 16;
    return cfg;
}

/** A measured READ phase: 400 page reads at QD 32 over @p extent. */
inline host::FioConfig
readConfig(bool random_pattern, std::uint64_t extent)
{
    host::FioConfig io;
    io.pattern = random_pattern ? host::FioConfig::Pattern::Random
                                : host::FioConfig::Pattern::Sequential;
    io.queueDepth = 32;
    io.extentPages = extent;
    io.totalIos = 400;
    io.dramBase = 16 << 20;
    return io;
}

} // namespace babol::scenario

#endif // BABOL_SCENARIO_RUNNERS_HH
