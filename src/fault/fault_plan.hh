/**
 * @file
 * Deterministic fault plans.
 *
 * A FaultPlan is a seed plus an ordered list of FaultSpecs, each
 * describing one class of NAND misbehaviour and where/when it strikes.
 * Plans are built programmatically (tests) or parsed from a small
 * line-based text spec (campaign files shipped with the examples):
 *
 *   # one fault per line; '#' starts a comment
 *   seed 42
 *   fault bitburst  where=pkg3 nth=20 count=3 bits=40
 *   fault progfail  where=pkg1 block=0-3 nth=10 count=2
 *   fault erasefail where=pkg2 nth=2
 *   fault stuckbusy where=pkg5 nth=8 count=2 extra_us=400
 *   fault drift     where=pkg4 nth=5 level=2 bits=40
 *   fault diefail   where=pkg2 nth=30
 *   fault blockfail where=pkg0 block=3-4 nth=12
 *
 * Matching is by LUN-name substring (`where=`, empty matches every LUN)
 * plus optional block/page ranges. `nth` arms the spec on the Nth
 * matching occurrence and `count` bounds how many times it fires — so a
 * bit-error burst hits one read and the retry's re-read sees clean
 * data, which is exactly what makes the recovery paths testable.
 */

#ifndef BABOL_FAULT_FAULT_PLAN_HH
#define BABOL_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace babol::fault {

/** The injectable fault classes (paper §VI's error scenarios). */
enum class FaultKind : std::uint8_t {
    BitBurst,  //!< one read returns more flipped bits than ECC corrects
    ProgFail,  //!< program verify fails (FAIL bit in 70h status)
    EraseFail, //!< erase verify fails (FAIL bit in 70h status)
    StuckBusy, //!< array op overruns tR/tPROG/tBERS by extraBusy ticks
    Drift,     //!< read window drifted: reads stay uncorrectable until
               //!< the controller escalates retryLevel >= level
    PowerCut,  //!< power lost after the nth acknowledged host write:
               //!< in-flight programs tear, DRAM-buffered state drops;
               //!< driven by the crash harness (ssd_fio --crash-plan),
               //!< which remounts and verifies recovery
    DieFail,   //!< the nth matching media op kills the whole die: every
               //!< later read on it is uncorrectable, every program and
               //!< erase fails — survivable only through RAIN parity
    BlockFail, //!< like DieFail but scoped to the spec's block range
};

const char *toString(FaultKind k);

/** One fault: what, where, when, and how hard. */
struct FaultSpec
{
    FaultKind kind = FaultKind::BitBurst;

    /** LUN-name substring filter ("pkg2" matches "ssd.pkg2.lun0");
     *  empty matches every LUN. */
    std::string where;

    /** Inclusive block / page ranges (ignored by StuckBusy). */
    std::uint32_t blockLo = 0;
    std::uint32_t blockHi = ~0u;
    std::uint32_t pageLo = 0;
    std::uint32_t pageHi = ~0u;

    /** Fire first on the Nth matching occurrence (1 = the first). */
    std::uint32_t nth = 1;

    /** Number of firings before the spec is exhausted. */
    std::uint32_t count = 1;

    /** BitBurst/Drift: extra bit flips injected into the first ECC
     *  codeword (default comfortably beyond an 8-bit corrector). */
    std::uint32_t bits = 40;

    /** Drift: reads recover once the LUN's retry level reaches this. */
    std::uint32_t level = 2;

    /** StuckBusy: extra busy time added to the array op. */
    Tick extraBusy = 400 * ticks::perUs;

    /** Suppression window: auditor violations on the struck LUN within
     *  this many ticks of a firing are tagged fault-expected. StuckBusy
     *  widens this to at least extraBusy. */
    Tick suppressTicks = 0;
};

struct FaultPlan
{
    std::uint64_t seed = 1;
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }
};

/** Parse the text format described above; panics on a malformed line
 *  (plans are trusted configuration, not user input). */
FaultPlan parsePlan(const std::string &text);

/** Load and parse a plan file; a missing or unreadable file is a
 *  fatal() user error. */
FaultPlan loadPlanFile(const std::string &path);

} // namespace babol::fault

#endif // BABOL_FAULT_FAULT_PLAN_HH
