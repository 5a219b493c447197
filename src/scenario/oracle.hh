/**
 * @file
 * The stamped-data oracle shared by every scenario that must prove what
 * the device kept: each written page carries (lpn, generation) plus a
 * keyed byte stream, a host-side Ledger records which generation of
 * each LPN was issued and which was acknowledged, and a read-back is
 * judged against both. StampedWorkload drives the stamped writes (and,
 * optionally, interleaved verifying reads) at a fixed queue depth.
 */

#ifndef BABOL_SCENARIO_ORACLE_HH
#define BABOL_SCENARIO_ORACLE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ftl/ftl.hh"
#include "sim/random.hh"

namespace babol::nand {
class Lun;
}

namespace babol::scenario {

/** Host DRAM base of the scenario workloads' page slots. */
constexpr std::uint64_t kHostBase = 16 << 20;

/** Queue depth of the stamped and lifetime workloads. */
constexpr std::uint32_t kStampedQd = 8;

/** Fill @p page with the deterministic pattern of (lpn, gen): a 16-byte
 *  header (magic, lpn, gen) followed by a keyed stream, so a recovered
 *  page proves exactly which write generation it holds. */
void stampPage(std::vector<std::uint8_t> &page, std::uint64_t lpn,
               std::uint64_t gen);

/** The header back out of a recovered page; false = no valid stamp
 *  for @p lpn. */
bool readStamp(const std::vector<std::uint8_t> &page, std::uint64_t lpn,
               std::uint64_t *gen);

/** How a read-back compares with the ledger. */
enum class Verdict
{
    Intact,    //!< an issued generation at or above the floor, unharmed
    Unstamped, //!< no valid stamp for this LPN
    Stale,     //!< older than the acknowledged floor
    Unissued,  //!< newer than anything ever issued
    Corrupt,   //!< the stamp is fine but the payload is not
};

/** Host-side record of the stamped workload: which generation of each
 *  LPN was issued, and which the device acknowledged. */
struct Ledger
{
    std::vector<std::uint64_t> issuedGen; //!< last gen handed to the FTL
    std::vector<std::uint64_t> ackedGen;  //!< last gen acknowledged
    std::uint64_t issued = 0;             //!< writes issued
    std::uint64_t acked = 0;              //!< writes acknowledged

    explicit Ledger(std::uint64_t extent)
        : issuedGen(extent, 0), ackedGen(extent, 0)
    {
    }

    std::uint64_t extent() const { return issuedGen.size(); }

    /**
     * Judge page @p got read back for @p lpn: it must carry a generation
     * in [@p floor, issuedGen[lpn]] and that generation's exact payload.
     * @p gen receives the stamped generation (0 when unstamped).
     */
    Verdict check(const std::vector<std::uint8_t> &got, std::uint64_t lpn,
                  std::uint64_t floor, std::uint64_t *gen) const;
};

/** FNV-1a over little-endian 64-bit words: the scenarios' determinism
 *  witness. */
struct Digest
{
    std::uint64_t value = 1469598103934665603ull;

    void fold(std::uint64_t v);
};

/** Verdict of one remount verification pass. */
struct RecoveryReport
{
    std::uint64_t lost = 0;    //!< acknowledged writes missing
    std::uint64_t stale = 0;   //!< superseded generations resurrected
    std::uint64_t corrupt = 0; //!< mapped pages with bad content
    std::uint64_t mapped = 0;
    std::uint64_t digest = 0; //!< FNV over (lpn, mapped, gen): the
                              //!< byte-determinism witness

    std::uint64_t violations() const { return lost + stale + corrupt; }
};

/** A remount, verified: the report and the campaign's one-line account
 *  of it (what was acked and issued, the mount scan, the verdict, and
 *  the mount energy when the power model is on). */
struct Remount
{
    RecoveryReport report;
    std::string line;
};

/** Each LUN of the device that loses power, with the LUN of the fresh
 *  device that inherits its cells. */
using LunPairs = std::vector<std::pair<nand::Lun *, nand::Lun *>>;

/**
 * The crash -> remount step of every stamped campaign. A cut
 * (@p crash_at > 0, at tick @p cut_at) tears each old LUN's in-flight
 * programs; with @p crash_at == 0 the caller has shut down cleanly
 * (flushed). The cells move to the fresh LUNs, @p drop_old destroys the
 * old device, and @p ftl, the fresh device's, mounts from OOB. Then
 * every LPN of @p led is read back, one read at a time (@p run drives
 * the fresh device until idle): acked generations must read back
 * intact, nothing older than an acked generation may reappear, and
 * after a clean shutdown the map must equal the last issued
 * generation. Violations are printed and land in the conformance
 * auditor under Check::Recovery.
 */
Remount cutAndRemount(const LunPairs &luns, std::uint64_t crash_at,
                      Tick cut_at, const std::function<void()> &drop_old,
                      ftl::PageFtl &ftl, const Ledger &led,
                      const std::function<void()> &run);

/**
 * A stamped campaign's exit status, the same in every scenario: 1 when
 * a remount verification found violations, else kExitDataLoss when
 * acknowledged data was lost after it, else @p status.
 */
int campaignStatus(std::uint64_t recovery_violations, bool data_lost,
                   int status);

/**
 * Closed-loop stamped workload over one FTL: kStampedQd slots, each
 * picking a uniform LPN in the ledger's extent and writing its next
 * generation. With mixedReads, every third op re-reads an
 * already-acknowledged LPN and checks it, so acked data is proven
 * readable throughout (including while faults are being recovered).
 * The caller runs the event loop.
 */
class StampedWorkload
{
  public:
    struct Config
    {
        std::uint64_t totalOps = 0;
        std::uint64_t seed = 0;
        bool mixedReads = false;
        std::uint64_t stopAtAck = 0; //!< freeze at this ack (0 = never)
    };

    StampedWorkload(ftl::PageFtl &ftl, Ledger &led, Config cfg);

    /** Called after every acknowledged write with the ack count: where
     *  scenarios inject mid-traffic faults. */
    std::function<void(std::uint64_t acked)> onAck;

    /** Called once every op has been issued and completed. */
    std::function<void()> onDrain;

    /** Issue the first op on every slot. */
    void start();

    /** True once the stopAtAck-th acknowledgement landed: no slot
     *  issues again, in-flight ops stay in flight. */
    bool stopped() const { return stopped_; }

    std::uint64_t issued() const { return issued_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t reads() const { return reads_; }
    std::uint64_t readFailures() const { return readFailures_; }
    std::uint64_t readCorrupt() const { return readCorrupt_; }

  private:
    void issue(std::uint32_t slot);

    ftl::PageFtl &ftl_;
    Ledger &led_;
    Config cfg_;
    Rng rng_;
    std::vector<std::uint8_t> page_, got_;
    bool stopped_ = false;
    std::uint64_t issued_ = 0, completed_ = 0, reads_ = 0;
    std::uint64_t readFailures_ = 0, readCorrupt_ = 0;
};

} // namespace babol::scenario

#endif // BABOL_SCENARIO_ORACLE_HH
