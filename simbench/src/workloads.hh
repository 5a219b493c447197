/**
 * @file
 * The benchmark's three workloads. Each drives the public device stack
 * for one controller flavour: it builds a fresh device (set-up), then
 * runs a closed loop of stamped host I/Os at queue depth 32 (measured
 * phase) and checks every read against the stamp of the last write.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <map>
#include <string>
#include <vector>

#include "probes.hh"

namespace simbench {

struct Options
{
    /** Seeds the host I/O stream (addresses, read/write mix). */
    std::uint64_t seed = 1;

    /** Worker threads of the sharded device (the classic device is
     *  single-threaded and ignores this). */
    std::uint32_t threads = 1;
};

/** Host I/Os issued, failed, and read back with the wrong stamp. */
struct Oracle
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched = 0;
};

/** One flavour's pass through a workload. */
struct FlavourRun
{
    double setupWall = 0;   //!< device construction + precondition fill
    double measureWall = 0; //!< the measured phase
    double runWall = 0;     //!< part of measureWall inside the engine

    // Simulated results of the measured phase.
    std::uint64_t hostIos = 0;
    std::uint64_t hostBytes = 0;
    Tick simTicks = 0;
    std::uint64_t energyFj = 0;
    std::vector<double> latUs; //!< per host I/O

    Oracle oracle; //!< set-up and measured phase together

    /** Exact per-layer counts over the measured phase (deterministic). */
    std::map<std::string, double> counts;

    /** Per-layer figures only a traced run has: wall times, and payload
     *  counted at the FlashBackend decorator. */
    std::map<std::string, double> traced;
};

using Workload = FlavourRun (*)(const std::string &flavour,
                                const Options &opts, Tracer *tracer);

/** nullptr for an unknown name. */
Workload findWorkload(const std::string &name);

/** Payload bytes of one flash page on every workload's device. */
std::uint32_t workloadPageBytes();

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
