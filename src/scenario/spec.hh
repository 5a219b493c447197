/**
 * @file
 * What one scenario run is, and the command line that describes it.
 *
 * A Spec names exactly one scenario Kind plus the knobs that kind
 * reads. parseArgs() builds a Spec from ssd_fio-style arguments from a
 * single flag table that records, for every flag, which kinds use it:
 * the flags present pick the kind, and a flag the chosen kind would not
 * read, two flags picking different kinds, a repeated flag, or a
 * malformed or zero count is a UsageError, never silently ignored. The
 * observability flags share their grammar with every other harness
 * through obs::cli::Options::parse().
 */

#ifndef BABOL_SCENARIO_SPEC_HH
#define BABOL_SCENARIO_SPEC_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller_factory.hh"
#include "obs/cli.hh"

namespace babol::scenario {

/** The runnable scenarios; every run is exactly one of them. */
enum class Kind
{
    Fio,         //!< one mini-SSD: fill, then sequential + random READs
    Fleet,       //!< N independent mini-SSDs x M random-read streams
    Queued,      //!< NVMe queue pairs: trace replay and/or tenants
    Crash,       //!< power cuts + remount + recovery verification
    Lifetime,    //!< one chip driven to its rated erase endurance
    Reliability, //!< RAIN / patrol scrub + die or block failure
};

/** Human name of a kind, as usage and error messages print it. */
const char *kindName(Kind k);

struct Spec
{
    Kind kind = Kind::Fio;
    core::Flavor flavor = core::Flavor::Coro;
    bool help = false; //!< --help: print usage, run nothing

    std::string faultPlan;   //!< Fio, Fleet: --faults
    std::uint32_t threads = 1; //!< Fleet, Queued, Reliability

    std::uint32_t fleet = 0; //!< Fleet: members
    std::uint32_t streams = 1;

    std::uint32_t qpairs = 0; //!< Queued
    std::string replay;
    std::uint32_t tenants = 0; //!< 0 = 8 when nothing is replayed
    std::string sloOut;

    std::vector<std::uint64_t> crashAt; //!< Crash: cut points (acks)
    std::string crashPlan;
    bool remount = false;
    std::string crashOut;

    bool rain = false; //!< Reliability
    bool scrub = false;
    std::uint64_t diefailAt = 0;
    std::uint64_t blockfailAt = 0;
    std::string reliabilityOut;

    obs::cli::Options obs; //!< --trace-out/--metrics-out/--audit/--power-*
};

/** Command-line misuse: the message says what to change. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Parse @p args (program name excluded) into a Spec; throws
 *  UsageError on misuse. The observability flags are read by
 *  obs::cli::Options::parse(), so a bad --power-cap is its SimFatal. */
Spec parseArgs(const std::vector<std::string> &args);

/** The full usage text, generated from the flag table. */
std::string usage(const char *prog);

} // namespace babol::scenario

#endif // BABOL_SCENARIO_SPEC_HH
