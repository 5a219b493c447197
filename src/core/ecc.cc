#include "ecc.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace babol::core {

std::uint32_t
EccEngine::codewordsFor(std::uint32_t data_bytes) const
{
    return (data_bytes + params_.codewordDataBytes - 1) /
           params_.codewordDataBytes;
}

std::uint32_t
EccEngine::flashBytesFor(std::uint32_t data_bytes) const
{
    return codewordsFor(data_bytes) * codewordTotalBytes();
}

std::uint32_t
EccEngine::flashColumnFor(std::uint32_t payload_column) const
{
    babol_assert(payload_column % params_.codewordDataBytes == 0,
                 "payload column %u not codeword-aligned", payload_column);
    return payload_column / params_.codewordDataBytes *
           codewordTotalBytes();
}

namespace {

/** The checksum runs this many independent lanes, each over every
 *  kLanes-th word, so their steps overlap (and fill SIMD registers). */
constexpr std::size_t kLanes = 16;
/** Odd, so multiplying is a bijection; 2^10 + 1 is one shift and one
 *  add, which every SIMD unit has (SSE2 has no 32-bit multiply). */
constexpr std::uint32_t kMul = 1025;

/** One lane step. It is a bijection of the state for a fixed word and of
 *  the word for a fixed state, so a change confined to one word always
 *  changes that lane's final state; the shift feeds high bits back down
 *  for the next multiply to spread. */
std::uint32_t
mix(std::uint32_t h, std::uint32_t word)
{
    h = (h ^ word) * kMul;
    return h ^ (h >> 6);
}

std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t w = 0;
    std::memcpy(&w, p, sizeof w);
    return w;
}

std::uint32_t
checksum(const std::uint8_t *data, std::size_t len)
{
    // Stands in for the parity the real encoder would compute: an
    // integrity tripwire, read a 32-bit word at a time.
    std::uint32_t lane[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i)
        lane[i] = 2166136261u + static_cast<std::uint32_t>(i);
    for (; len >= kLanes * 4; data += kLanes * 4, len -= kLanes * 4) {
        for (std::size_t i = 0; i < kLanes; ++i)
            lane[i] = mix(lane[i], load32(data + 4 * i));
    }
    // Leftover words, then a zero-padded partial word, continue the
    // lanes in order. The padding is unambiguous: every codeword of an
    // engine has the same length.
    std::size_t i = 0;
    for (; len >= 4; data += 4, len -= 4, ++i)
        lane[i] = mix(lane[i], load32(data));
    if (len != 0) {
        std::uint32_t w = 0;
        std::memcpy(&w, data, len);
        lane[i] = mix(lane[i], w);
    }
    std::uint32_t sum = 0;
    for (std::size_t l = 0; l < kLanes; ++l)
        sum ^= std::rotl(lane[l], static_cast<int>(2 * l));
    return sum;
}

} // namespace

std::vector<std::uint8_t>
EccEngine::encode(std::span<const std::uint8_t> data) const
{
    const std::uint32_t cw_data = params_.codewordDataBytes;
    const std::uint32_t cw_total = codewordTotalBytes();
    const std::uint32_t n_cw = codewordsFor(
        static_cast<std::uint32_t>(data.size()));

    // Zero-filled, so parity bytes past the 4-byte checksum read 0.
    std::vector<std::uint8_t> image(static_cast<std::size_t>(n_cw) *
                                    cw_total);
    for (std::uint32_t cw = 0; cw < n_cw; ++cw) {
        std::size_t src = static_cast<std::size_t>(cw) * cw_data;
        std::size_t len = std::min<std::size_t>(cw_data,
                                                data.size() - src);
        std::uint8_t *base = image.data() +
                             static_cast<std::size_t>(cw) * cw_total;
        std::memcpy(base, data.data() + src, len);
        std::memset(base + len, 0xFF, cw_data - len);

        std::uint32_t sum = checksum(base, cw_data);
        for (int i = 0; i < 4; ++i)
            base[cw_data + i] = static_cast<std::uint8_t>(sum >> (8 * i));
    }
    return image;
}

EccReport
EccEngine::decode(std::span<std::uint8_t> image, std::uint32_t page_column,
                  std::span<const std::uint32_t> flips) const
{
    const std::uint32_t cw_data = params_.codewordDataBytes;
    const std::uint32_t cw_total = codewordTotalBytes();
    babol_assert(image.size() % cw_total == 0,
                 "ECC decode needs whole codewords (got %zu bytes)",
                 image.size());

    EccReport report;
    report.codewords = static_cast<std::uint32_t>(image.size() / cw_total);

    for (std::uint32_t cw = 0; cw < report.codewords; ++cw) {
        std::uint8_t *base = image.data() +
                             static_cast<std::size_t>(cw) * cw_total;
        // Sideband flips inside this codeword (page-relative bytes
        // [first, first + cw_total); a byte below first wraps past the
        // bound). Flips are few, so rescanning them per codeword is
        // cheaper than a per-call count table.
        const std::uint32_t first = page_column + cw * cw_total;
        std::uint32_t errs = 0;
        for (std::uint32_t bit : flips)
            errs += bit / 8 - first < cw_total;
        report.maxCodewordBits = std::max(report.maxCodewordBits, errs);

        // Past the capability the codeword stays dirty and fails.
        if (errs > params_.correctBits) {
            ++report.failedCodewords;
            continue;
        }
        if (errs != 0) {
            for (std::uint32_t bit : flips) {
                if (bit / 8 - first < cw_total)
                    base[bit / 8 - first] ^=
                        static_cast<std::uint8_t>(1u << (bit % 8));
            }
            report.correctedBits += errs;
        }

        // Verify every codeword, flipped or not: pages written raw (no
        // encode) and corruption the sideband never saw fail here.
        std::uint32_t stored = 0;
        for (int i = 0; i < 4; ++i)
            stored |= static_cast<std::uint32_t>(base[cw_data + i])
                      << (8 * i);
        if (checksum(base, cw_data) != stored)
            ++report.failedCodewords;
    }
    return report;
}

std::vector<std::uint8_t>
EccEngine::extractData(std::span<const std::uint8_t> image,
                       std::uint32_t data_bytes) const
{
    std::vector<std::uint8_t> data(data_bytes);
    extractData(image, data);
    return data;
}

void
EccEngine::extractData(std::span<const std::uint8_t> image,
                       std::span<std::uint8_t> out) const
{
    const std::uint32_t cw_data = params_.codewordDataBytes;
    const std::uint32_t cw_total = codewordTotalBytes();
    std::size_t src = 0;
    for (std::size_t off = 0; off < out.size(); off += cw_data) {
        const std::size_t len = std::min<std::size_t>(cw_data,
                                                      out.size() - off);
        babol_assert(src + len <= image.size(), "extract past end of image");
        std::memcpy(out.data() + off, image.data() + src, len);
        src += cw_total;
    }
}

} // namespace babol::core
