/**
 * @file
 * A miniature SSD, end to end: BABOL channel controller + page-mapped
 * FTL + host workloads, run as one scenario from src/scenario/.
 *
 *   $ ./examples/ssd_fio [coro|rtos|hw|hw-sync|hw-async] [FLAGS]
 *   $ ./examples/ssd_fio --help
 *
 * With no flags it fills the device and reports sequential and random
 * READ bandwidth and latency percentiles (the §VI-C experiment). The
 * flags pick another scenario: a fleet of mini-SSDs, the NVMe-queued
 * front end with trace replay and tenants, the crash/remount campaign,
 * the wear-bounded lifetime smoke, or the RAIN/scrub reliability
 * campaign. A flag the chosen scenario would not read is an error, as
 * is a pair of flags that pick two different scenarios.
 *
 * Exit status: 0 clean, 1 audit findings or recovery violations, 2 bad
 * usage or configuration, 3 simulator panic, 4 acknowledged data lost.
 */

#include <cstdio>

#include "scenario/run.hh"
#include "sim/logging.hh"

using namespace babol;

int
main(int argc, char **argv)
{
    try {
        scenario::Spec spec = scenario::parseArgs(
            std::vector<std::string>(argv + 1, argv + argc));
        if (spec.help) {
            std::fputs(scenario::usage("ssd_fio").c_str(), stdout);
            return 0;
        }
        return scenario::run(spec);
    } catch (const scenario::UsageError &e) {
        std::fprintf(stderr, "ssd_fio: %s\n(run 'ssd_fio --help' for usage)\n",
                     e.what());
        return scenario::kExitUsage;
    } catch (const SimFatal &) { // fatal() already said why
        return scenario::kExitUsage;
    } catch (const SimPanic &) {
        return scenario::kExitPanic;
    }
}
