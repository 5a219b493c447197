/**
 * @file
 * ECC engine tests: codeword layout, correction capability, failure
 * detection (with and without a sideband flip), payload extraction
 * against a byte-at-a-time reference, and the flash-column mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/ecc.hh"
#include "sim/random.hh"

using namespace babol;
using namespace babol::core;

namespace {

TEST(Ecc, LayoutQuantities)
{
    EccEngine ecc;
    EXPECT_EQ(ecc.codewordTotalBytes(), 1024u + 117u);
    EXPECT_EQ(ecc.codewordsFor(16384), 16u);
    EXPECT_EQ(ecc.codewordsFor(1), 1u);
    EXPECT_EQ(ecc.codewordsFor(1025), 2u);
    EXPECT_EQ(ecc.flashBytesFor(16384), 16u * 1141u);
    // The default layout fills a 16384+1872 page exactly.
    EXPECT_EQ(ecc.flashBytesFor(16384), 16384u + 1872u);
}

TEST(Ecc, FlashColumnMapping)
{
    EccEngine ecc;
    EXPECT_EQ(ecc.flashColumnFor(0), 0u);
    EXPECT_EQ(ecc.flashColumnFor(1024), 1141u);
    EXPECT_EQ(ecc.flashColumnFor(4096), 4u * 1141u);
    EXPECT_THROW(ecc.flashColumnFor(100), SimPanic);
}

TEST(Ecc, EncodeDecodeCleanRoundTrip)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 17);

    auto image = ecc.encode(data);
    ASSERT_EQ(image.size(), ecc.flashBytesFor(4096));

    EccReport report = ecc.decode(image, 0, {});
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.codewords, 4u);
    EXPECT_EQ(report.correctedBits, 0u);
    EXPECT_EQ(ecc.extractData(image, 4096), data);
}

TEST(Ecc, CorrectsUpToCapability)
{
    EccEngine ecc; // 8 bits per codeword
    std::vector<std::uint8_t> data(1024, 0xAB);
    auto image = ecc.encode(data);

    std::vector<std::uint32_t> flips;
    for (int i = 0; i < 8; ++i) {
        std::uint32_t bit = static_cast<std::uint32_t>(i * 991 + 3);
        flips.push_back(bit);
        image[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
    }
    EccReport report = ecc.decode(image, 0, flips);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.correctedBits, 8u);
    EXPECT_EQ(ecc.extractData(image, 1024), data);
}

TEST(Ecc, FailsBeyondCapabilityAndLeavesCodewordDirty)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(2048, 0x11); // 2 codewords
    auto image = ecc.encode(data);

    // 9 flips in codeword 0, 1 flip in codeword 1.
    std::vector<std::uint32_t> flips;
    for (int i = 0; i < 9; ++i)
        flips.push_back(static_cast<std::uint32_t>(i * 800 + 5));
    flips.push_back(1141 * 8 + 100); // codeword 1 territory
    for (std::uint32_t bit : flips)
        image[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));

    EccReport report = ecc.decode(image, 0, flips);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.failedCodewords, 1u);
    EXPECT_EQ(report.correctedBits, 1u); // only codeword 1 corrected

    // Codeword 1's payload is intact; codeword 0's is not.
    auto extracted = ecc.extractData(image, 2048);
    EXPECT_NE(std::vector<std::uint8_t>(extracted.begin(),
                                        extracted.begin() + 1024),
              std::vector<std::uint8_t>(1024, 0x11));
    EXPECT_EQ(std::vector<std::uint8_t>(extracted.begin() + 1024,
                                        extracted.end()),
              std::vector<std::uint8_t>(1024, 0x11));
}

TEST(Ecc, PartialCaptureUsesPageColumn)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(16384, 0x3C);
    auto image = ecc.encode(data);

    // Take codewords 4..7 out of the full image, flip a bit inside.
    std::uint32_t page_col = ecc.flashColumnFor(4 * 1024);
    std::vector<std::uint8_t> slice(image.begin() + page_col,
                                    image.begin() + page_col + 4 * 1141);
    std::uint32_t page_bit = (page_col + 10) * 8 + 3;
    slice[10] ^= 1 << 3;

    std::vector<std::uint32_t> flips{page_bit};
    EccReport report = ecc.decode(slice, page_col, flips);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.correctedBits, 1u);
    EXPECT_EQ(ecc.extractData(slice, 4096),
              std::vector<std::uint8_t>(4096, 0x3C));
}

TEST(Ecc, FlipsOutsideCaptureAreIgnored)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(1024, 0x77);
    auto image = ecc.encode(data);
    // Flip positions far beyond this capture.
    std::vector<std::uint32_t> far{200000u, 300000u};
    EccReport report = ecc.decode(image, 0, far);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.correctedBits, 0u);

    // And positions before a capture that starts at codeword 1.
    std::vector<std::uint32_t> before{0u, 1140u * 8 + 7};
    report = ecc.decode(image, ecc.flashColumnFor(1024), before);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.correctedBits, 0u);
}

TEST(Ecc, RawUnencodedPagesFailChecksum)
{
    EccEngine ecc;
    std::vector<std::uint8_t> raw(1141, 0xFF); // never went through encode
    EccReport report = ecc.decode(raw, 0, {});
    EXPECT_FALSE(report.ok());
    std::vector<std::uint8_t> zeros(1141, 0x00);
    EXPECT_FALSE(ecc.decode(zeros, 0, {}).ok());
}

/** Corruption the sideband never reported (phase skew, a bad capture)
 *  is caught by the checksum alone: one byte changed at any offset of a
 *  codeword's data — every word and lane boundary included — fails that
 *  codeword and only that one. */
TEST(Ecc, CorruptByteAnywhereWithoutFlipFailsItsCodeword)
{
    EccEngine ecc;
    Rng rng(0xC0DE);
    std::vector<std::uint8_t> data(2048);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    const auto image = ecc.encode(data);
    auto clean = image;
    ASSERT_TRUE(ecc.decode(clean, 0, {}).ok());

    for (std::uint32_t cw = 0; cw < 2; ++cw) {
        for (std::uint32_t off = 0; off < 1024; ++off) {
            for (std::uint8_t x : {0x01, 0x80, 0xFF}) {
                auto bad = image;
                bad[cw * 1141 + off] ^= x;
                EccReport report = ecc.decode(bad, 0, {});
                EXPECT_EQ(report.failedCodewords, 1u)
                    << "codeword " << cw << " offset " << off;
            }
        }
    }

    // The bus's phase-skew capture: every other byte inverted.
    auto skewed = image;
    for (std::size_t i = 0; i < skewed.size(); i += 2)
        skewed[i] ^= 0xFF;
    EXPECT_EQ(ecc.decode(skewed, 0, {}).failedCodewords, 2u);
}

/** Codeword sizes that leave a partial lane block (1000) and a partial
 *  word (1021) round-trip, and their last data byte is still covered. */
TEST(Ecc, OddCodewordSizesRoundTripAndCoverTheLastByte)
{
    for (std::uint32_t cw_data : {1000u, 1021u}) {
        EccParams params;
        params.codewordDataBytes = cw_data;
        EccEngine ecc(params);
        Rng rng(cw_data);
        std::vector<std::uint8_t> data(cw_data * 5 / 2); // 3 codewords
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.uniform(0, 255));

        auto image = ecc.encode(data);
        ASSERT_EQ(image.size(), 3u * ecc.codewordTotalBytes());
        EccReport report = ecc.decode(image, 0, {});
        EXPECT_TRUE(report.ok()) << cw_data;
        EXPECT_EQ(report.codewords, 3u);
        EXPECT_EQ(ecc.extractData(image, data.size()), data) << cw_data;

        for (std::uint32_t cw = 0; cw < 3; ++cw) {
            auto bad = image;
            bad[cw * ecc.codewordTotalBytes() + cw_data - 1] ^= 0x01;
            EXPECT_EQ(ecc.decode(bad, 0, {}).failedCodewords, 1u)
                << cw_data << " codeword " << cw;
        }
    }
}

/** extractData against a byte-at-a-time reference, on random images,
 *  for payloads of whole codewords and one (1500 bytes) that ends
 *  partway through a codeword. */
TEST(Ecc, ExtractMatchesByteAtATimeReference)
{
    EccEngine ecc;
    Rng rng(0xE87);
    for (std::uint32_t bytes : {1500u, 4096u, 16384u}) {
        std::vector<std::uint8_t> image(ecc.flashBytesFor(bytes));
        for (auto &b : image)
            b = static_cast<std::uint8_t>(rng.uniform(0, 255));

        std::vector<std::uint8_t> want(bytes);
        for (std::uint32_t off = 0; off < bytes; ++off)
            want[off] = image[off / 1024 * 1141 + off % 1024];

        EXPECT_EQ(ecc.extractData(image, bytes), want) << bytes;
        std::vector<std::uint8_t> out(bytes, 0x5A);
        ecc.extractData(image, out);
        EXPECT_EQ(out, want) << bytes;
    }
    std::vector<std::uint8_t> short_image(1141);
    EXPECT_THROW(ecc.extractData(short_image, 1025), SimPanic);
}

TEST(Ecc, NonCodewordAlignedDecodePanics)
{
    EccEngine ecc;
    std::vector<std::uint8_t> bad(100);
    EXPECT_THROW(ecc.decode(bad, 0, {}), SimPanic);
}

TEST(Ecc, CustomParamsRespectCapability)
{
    EccParams params;
    params.codewordDataBytes = 512;
    params.parityBytes = 32;
    params.correctBits = 2;
    EccEngine ecc(params);

    std::vector<std::uint8_t> data(512, 0x01);
    auto image = ecc.encode(data);
    std::vector<std::uint32_t> flips{8, 16, 24};
    for (std::uint32_t bit : flips)
        image[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
    EXPECT_FALSE(ecc.decode(image, 0, flips).ok()); // 3 > 2
}

/** Property: random flip patterns round-trip iff within capability. */
TEST(Ecc, RandomFlipFuzz)
{
    EccEngine ecc;
    Rng rng(0xECC);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint8_t> data(4096);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.uniform(0, 255));
        auto image = ecc.encode(data);

        std::uint32_t per_cw = static_cast<std::uint32_t>(
            rng.uniform(0, 8)); // within capability
        std::vector<std::uint32_t> flips;
        for (std::uint32_t cw = 0; cw < 4; ++cw) {
            for (std::uint32_t k = 0; k < per_cw; ++k) {
                // Distinct positions inside the codeword.
                std::uint32_t bit =
                    cw * 1141 * 8 +
                    static_cast<std::uint32_t>(rng.uniform(0, 1140)) * 8 +
                    (k % 8);
                if (std::find(flips.begin(), flips.end(), bit) !=
                    flips.end()) {
                    continue;
                }
                flips.push_back(bit);
                image[bit / 8] ^=
                    static_cast<std::uint8_t>(1 << (bit % 8));
            }
        }
        EccReport report = ecc.decode(image, 0, flips);
        EXPECT_TRUE(report.ok()) << "trial " << trial;
        EXPECT_EQ(ecc.extractData(image, 4096), data) << "trial " << trial;
    }
}

} // namespace
