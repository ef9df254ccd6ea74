/**
 * @file
 * Crossbar-array tests: programming, Kirchhoff bitline sums, noise.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "xbar/crossbar.h"

namespace isaac::xbar {
namespace {

TEST(Crossbar, ProgramsAndReadsBack)
{
    CrossbarArray xb(4, 3, 2);
    xb.program(0, 0, 3);
    xb.program(3, 2, 1);
    EXPECT_EQ(xb.cell(0, 0), 3);
    EXPECT_EQ(xb.cell(3, 2), 1);
    EXPECT_EQ(xb.cell(1, 1), 0);
    EXPECT_EQ(xb.programmedCells(), 2);
}

TEST(Crossbar, RejectsBadProgramming)
{
    CrossbarArray xb(4, 3, 2);
    EXPECT_THROW(xb.program(4, 0, 1), FatalError);
    EXPECT_THROW(xb.program(0, 3, 1), FatalError);
    EXPECT_THROW(xb.program(0, 0, 4), FatalError); // > 2^2 - 1
    EXPECT_THROW(xb.program(0, 0, -1), FatalError);
}

TEST(Crossbar, BitlineIsSumOfProducts)
{
    // Fig. 1a: I = V1*G1 + V2*G2.
    CrossbarArray xb(2, 1, 2);
    xb.program(0, 0, 3); // G1
    xb.program(1, 0, 2); // G2
    const int inputs[] = {1, 1};
    EXPECT_EQ(xb.readBitline(0, inputs), 5);
    const int in2[] = {0, 1};
    EXPECT_EQ(xb.readBitline(0, in2), 2);
    const int in3[] = {3, 2}; // multi-bit DAC digits
    EXPECT_EQ(xb.readBitline(0, in3), 13);
}

TEST(Crossbar, ReadAllMatchesPerColumn)
{
    Rng rng(17);
    CrossbarArray xb(128, 129, 2);
    for (int r = 0; r < 128; ++r)
        for (int c = 0; c < 129; ++c)
            xb.program(r, c, static_cast<int>(rng.uniform(0, 3)));
    std::vector<int> inputs(128);
    for (auto &i : inputs)
        i = static_cast<int>(rng.uniform(0, 1));
    const auto all = xb.readAllBitlines(inputs);
    ASSERT_EQ(all.size(), 129u);
    for (int c = 0; c < 129; ++c)
        EXPECT_EQ(all[static_cast<std::size_t>(c)],
                  xb.readBitline(c, inputs));
}

TEST(Crossbar, ShortInputVectorTreatsMissingRowsAsZero)
{
    CrossbarArray xb(4, 1, 2);
    for (int r = 0; r < 4; ++r)
        xb.program(r, 0, 1);
    const int inputs[] = {1, 1};
    EXPECT_EQ(xb.readBitline(0, inputs), 2);
}

TEST(Crossbar, ReadCyclesCounted)
{
    CrossbarArray xb(4, 2, 2);
    const int inputs[] = {1, 0, 1, 0};
    xb.readAllBitlines(inputs);
    xb.readAllBitlines(inputs);
    EXPECT_EQ(xb.readCycles(), 2u);
}

TEST(Crossbar, NoiseShiftsReadsButStaysNonNegative)
{
    CrossbarArray xb(16, 1, 2);
    for (int r = 0; r < 16; ++r)
        xb.program(r, 0, 2);
    std::vector<int> inputs(16, 1);
    const Acc clean = xb.readBitline(0, inputs);
    EXPECT_EQ(clean, 32);

    NoiseSpec spec;
    spec.sigmaLsb = 2.0;
    spec.seed = 99;
    xb.setNoise(spec);
    int different = 0;
    for (int i = 0; i < 200; ++i) {
        const Acc noisy = xb.readBitline(0, inputs);
        EXPECT_GE(noisy, 0);
        different += noisy != clean;
    }
    // With sigma = 2 LSB most reads differ from the clean value.
    EXPECT_GT(different, 100);
}

TEST(Crossbar, NoiseIsDeterministicPerSeed)
{
    auto runOnce = [] {
        CrossbarArray xb(8, 1, 2);
        for (int r = 0; r < 8; ++r)
            xb.program(r, 0, 1);
        NoiseSpec spec;
        spec.sigmaLsb = 1.5;
        spec.seed = 1234;
        xb.setNoise(spec);
        std::vector<int> inputs(8, 1);
        std::vector<Acc> reads;
        for (int i = 0; i < 32; ++i)
            reads.push_back(xb.readBitline(0, inputs));
        return reads;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(Crossbar, ReadNoiseIsSaltedPerInstance)
{
    // An engine salts each tile's setNoise() with its index, so tiles
    // whose partial sums are added digitally draw independent jitter.
    // Salt 0 keeps the historical stream: one Gaussian from an Rng
    // seeded by seed + golden * (seq * 131071 + col + 1).
    NoiseSpec spec;
    spec.sigmaLsb = 2.0;
    spec.seed = 4321;
    CrossbarArray a(4, 4, 2), b(4, 4, 2);
    a.setNoise(spec, 0);
    b.setNoise(spec, 1);
    const Acc clean = 1000; // far from the clamp at 0
    int differ = 0;
    for (std::uint64_t seq = 0; seq < 500; ++seq) {
        for (int col = 0; col < 4; ++col) {
            Rng rng(spec.seed +
                    0x9E3779B97F4A7C15ull *
                        (seq * 131071ull +
                         static_cast<std::uint64_t>(col) + 1ull));
            const Acc historical =
                clean + static_cast<Acc>(std::llround(
                            rng.gaussian() * spec.sigmaLsb));
            EXPECT_EQ(a.applyReadNoise(clean, seq, col), historical);
            differ += a.applyReadNoise(clean, seq, col) !=
                b.applyReadNoise(clean, seq, col);
        }
    }
    // Two independent N(0, 2) roundings agree about 1 time in 5.
    EXPECT_GT(differ, 1200);
}

} // namespace
} // namespace isaac::xbar
