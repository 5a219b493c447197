/**
 * @file
 * Running a scenario Spec. run() dispatches on the spec's kind; each
 * kind assembles its device through the shared controller factory,
 * drives its workload, checks its oracle, writes the observability
 * outputs the spec asked for, and returns the process exit status.
 */

#ifndef BABOL_SCENARIO_RUN_HH
#define BABOL_SCENARIO_RUN_HH

#include "scenario/spec.hh"

namespace babol::scenario {

/** Exit statuses beyond 0 (clean) and 1 (audit findings or a failed
 *  remount verification), distinct so CI can tell them apart. */
constexpr int kExitUsage = 2;    //!< bad command line or configuration
constexpr int kExitPanic = 3;    //!< a simulator invariant fired
constexpr int kExitDataLoss = 4; //!< acknowledged data lost

/** Run @p spec to completion; returns the exit status. Configuration
 *  errors surface as SimFatal, broken invariants as SimPanic. */
int run(Spec &spec);

} // namespace babol::scenario

#endif // BABOL_SCENARIO_RUN_HH
