/**
 * @file
 * The controller-side ECC engine model.
 *
 * Pages are split into fixed-size codewords; each codeword's data is
 * followed by its parity in the spare area. Encoding stamps a checksum
 * into the parity region (an end-to-end integrity tripwire, not a real
 * code: its 4 bytes never reach any output); decoding "corrects" up to
 * `correctBits` flipped bits per codeword using the flash model's
 * sideband flip list — the standard simulation stand-in for a real
 * BCH/LDPC decoder — and reports codewords whose error count exceeds
 * the capability, which is what triggers read-retry. The checksum still
 * runs over every codeword, so raw-written pages and captures the
 * sideband knows nothing about (phase skew) fail too.
 */

#ifndef BABOL_CORE_ECC_HH
#define BABOL_CORE_ECC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "nand/geometry.hh"
#include "sim/logging.hh"

namespace babol::core {

struct EccParams
{
    std::uint32_t codewordDataBytes = 1024;
    std::uint32_t parityBytes = 117; //!< ~11% overhead, BCH-class
    std::uint32_t correctBits = 8;   //!< correction capability per codeword
};

/** Outcome of decoding one page (or partial-page) transfer. */
struct EccReport
{
    std::uint32_t codewords = 0;
    std::uint32_t correctedBits = 0;
    std::uint32_t failedCodewords = 0;
    /** Raw errors in the dirtiest codeword of the transfer: the
     *  correctable-error margin is correctBits - maxCodewordBits. A
     *  decode that succeeds with little margin left is a near-miss the
     *  scrubber should refresh before retention finishes the job. */
    std::uint32_t maxCodewordBits = 0;

    bool ok() const { return failedCodewords == 0; }
};

class EccEngine
{
  public:
    explicit EccEngine(EccParams params = {}) : params_(params)
    {
        babol_assert(params_.codewordDataBytes > 0 &&
                         params_.parityBytes >= 4,
                     "ECC codewords need data and 4 checksum bytes");
    }

    const EccParams &params() const { return params_; }

    /** Data+parity bytes per codeword as laid out on flash. */
    std::uint32_t
    codewordTotalBytes() const
    {
        return params_.codewordDataBytes + params_.parityBytes;
    }

    /** Codewords needed to cover @p data_bytes of payload. */
    std::uint32_t codewordsFor(std::uint32_t data_bytes) const;

    /** Flash bytes (data+parity) for @p data_bytes of payload. */
    std::uint32_t flashBytesFor(std::uint32_t data_bytes) const;

    /**
     * Flash-page column where the codeword containing payload offset
     * @p payload_column starts. The offset must be codeword-aligned
     * (partial reads fetch whole codewords).
     */
    std::uint32_t flashColumnFor(std::uint32_t payload_column) const;

    /**
     * Lay out @p data into codewords with parity, producing the flash
     * image to program. The result is flashBytesFor(data.size()) long.
     */
    std::vector<std::uint8_t>
    encode(std::span<const std::uint8_t> data) const;

    /**
     * Decode a flash image in place.
     *
     * @param image       captured flash bytes (codeword-aligned stream)
     * @param page_column flash-page column the capture started at
     * @param flips       sideband bit positions (page-relative) the
     *                    array flipped when loading the register
     * @return corrected/failed codeword accounting
     */
    EccReport decode(std::span<std::uint8_t> image,
                     std::uint32_t page_column,
                     std::span<const std::uint32_t> flips) const;

    /** Extract the first @p data_bytes payload bytes of a decoded
     *  flash image. */
    std::vector<std::uint8_t>
    extractData(std::span<const std::uint8_t> image,
                std::uint32_t data_bytes) const;

    /** Extract the first out.size() payload bytes of a decoded flash
     *  image into @p out: one copy per codeword. */
    void extractData(std::span<const std::uint8_t> image,
                     std::span<std::uint8_t> out) const;

  private:
    EccParams params_;
};

} // namespace babol::core

#endif // BABOL_CORE_ECC_HH
