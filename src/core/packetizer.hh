/**
 * @file
 * The Packetizer — BABOL's specialized DMA unit (paper §III/§IV-A).
 *
 * It pairs with the Data Writer and Data Reader μFSMs: for writes it
 * fetches bytes from the SSD's DRAM and delivers them in DQ-bus-width
 * packets; for reads it pushes captured bytes through the hardware ECC
 * engine and lands the corrected image in DRAM.
 */

#ifndef BABOL_CORE_PACKETIZER_HH
#define BABOL_CORE_PACKETIZER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "dram/dram.hh"
#include "ecc.hh"
#include "instruction.hh"
#include "sim/sim_object.hh"

namespace babol::core {

class Packetizer : public SimObject
{
  public:
    Packetizer(EventQueue &eq, const std::string &name,
               dram::DramBuffer &dram, EccEngine &ecc)
        : SimObject(eq, name), dram_(dram), ecc_(ecc)
    {}

    dram::DramBuffer &dram() { return dram_; }
    EccEngine &ecc() { return ecc_; }

    /** DMA setup time added ahead of each data burst. */
    Tick setupTime() const { return dram_.transferTime(0); }

    /**
     * Fetch a Data Writer's payload from DRAM, optionally expanding it
     * through the ECC encoder into the codeword+parity flash image.
     */
    std::vector<std::uint8_t>
    fetch(const DataWriter &dw) const
    {
        ++descriptors_;
        if (!dw.inlineData.empty())
            return dw.inlineData;
        std::vector<std::uint8_t> bytes(dw.bytes);
        // Shard-local access time: the staging buffer is shared across
        // channel shards, whose clocks must not be read cross-thread.
        dram_.read(dw.dramAddr, bytes, curTick());
        if (dw.eccEncode)
            return ecc_.encode(bytes);
        return bytes;
    }

    /**
     * Land a Data Reader's capture: run ECC (when requested, using the
     * flash model's sideband @p flips), strip parity, and store the
     * payload in DRAM. Raw (non-ECC) captures land verbatim.
     */
    EccReport
    deliver(const DataReader &dr, std::span<std::uint8_t> bytes,
            std::span<const std::uint32_t> flips) const
    {
        EccReport report;
        ++descriptors_;
        if (!dr.eccCorrect) {
            if (dr.toDram)
                dram_.write(dr.dramAddr, bytes, curTick());
            return report;
        }
        report = ecc_.decode(bytes, dr.pageColumn, flips);
        if (dr.toDram) {
            // One DRAM write per descriptor keeps the power rail's
            // activity windows what they are for the whole payload.
            payload_.resize(bytes.size() / ecc_.codewordTotalBytes() *
                            ecc_.params().codewordDataBytes);
            ecc_.extractData(bytes, payload_);
            dram_.write(dr.dramAddr, payload_, curTick());
        }
        return report;
    }

    std::uint64_t descriptorCount() const { return descriptors_; }

  private:
    dram::DramBuffer &dram_;
    EccEngine &ecc_;
    mutable std::uint64_t descriptors_ = 0;
    /** Extracted payload, reused across deliveries. Each channel owns
     *  its Packetizer, so one shard's thread is the only user. */
    mutable std::vector<std::uint8_t> payload_;
};

} // namespace babol::core

#endif // BABOL_CORE_PACKETIZER_HH
