/**
 * @file
 * The plane-major batched popcount GEMM: kernel-level bit-exactness
 * of every compiled dispatch tier against a direct triple-loop
 * oracle, and engine-level equivalence of dotProductBatch() with N
 * sequential dotProduct() calls — results, EngineStats, per-tile
 * AdcTally, TransientStats, and read cycles, at every thread count,
 * every forced tier, and across the encoding sweep. The batched path
 * is only allowed to exist because these never move.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "xbar/batch_kernel.h"
#include "xbar/engine.h"

namespace isaac::xbar {
namespace {

/** Restore the dispatch tier even when an assertion throws. */
struct TierGuard
{
    ~TierGuard() { kernel::resetTierOverride(); }
};

std::vector<std::uint64_t>
randomPlanes(Rng &rng, std::size_t n)
{
    std::vector<std::uint64_t> v(n);
    for (auto &w : v)
        w = rng.next();
    return v;
}

/** The kernel contract, evaluated the slow obvious way. */
std::vector<Acc>
referenceGemm(const std::vector<std::uint64_t> &cellPlanes, int cols,
              int cellBits, int words,
              const std::vector<std::uint64_t> &dig, int digitBits,
              int n)
{
    std::vector<Acc> out(static_cast<std::size_t>(cols) * n, 0);
    for (int c = 0; c < cols; ++c) {
        for (int i = 0; i < n; ++i) {
            Acc v = 0;
            for (int b = 0; b < cellBits; ++b)
                for (int j = 0; j < digitBits; ++j)
                    for (int w = 0; w < words; ++w) {
                        const auto d =
                            dig[(static_cast<std::size_t>(j) * words +
                                 w) * n + i];
                        const auto p = cellPlanes
                            [(static_cast<std::size_t>(c) * cellBits +
                              b) * words + w];
                        v += static_cast<Acc>(std::popcount(d & p))
                             << (b + j);
                    }
            out[static_cast<std::size_t>(c) * n + i] = v;
        }
    }
    return out;
}

TEST(Batched, KernelMatchesOracleAtEveryCompiledTier)
{
    struct Geometry
    {
        int cols, cellBits, words, digitBits, n;
    };
    // n values straddle the SIMD lane widths (4 and 8) and their
    // tails; words straddle the register-resident n == 1 specials.
    const Geometry geoms[] = {
        {1, 1, 1, 1, 1},   {5, 1, 3, 1, 1},  {16, 2, 2, 1, 1},
        {16, 2, 2, 1, 3},  {8, 4, 1, 2, 8},  {37, 3, 2, 4, 5},
        {12, 2, 3, 2, 31}, {3, 2, 4, 4, 33}, {64, 2, 2, 1, 100},
    };

    Rng rng(0xBA7C);
    const auto top = static_cast<int>(kernel::detectedTier());
    TierGuard guard;
    for (const auto &g : geoms) {
        const auto cellPlanes = randomPlanes(
            rng, static_cast<std::size_t>(g.cols) * g.cellBits *
                     g.words);
        const auto dig = randomPlanes(
            rng,
            static_cast<std::size_t>(g.digitBits) * g.words * g.n);
        const auto want = referenceGemm(cellPlanes, g.cols, g.cellBits,
                                        g.words, dig, g.digitBits,
                                        g.n);
        for (int t = 0; t <= top; ++t) {
            kernel::forceTier(static_cast<kernel::Tier>(t));
            std::vector<Acc> got(want.size(), -1);
            kernel::batchedBitlineSums(cellPlanes.data(), g.cols,
                                       g.cellBits, g.words, dig.data(),
                                       g.digitBits, g.n, got.data());
            EXPECT_EQ(want, got)
                << "tier "
                << kernel::tierName(static_cast<kernel::Tier>(t))
                << " cols=" << g.cols << " cellBits=" << g.cellBits
                << " words=" << g.words << " digitBits=" << g.digitBits
                << " n=" << g.n;
        }
        kernel::resetTierOverride();
    }
}

TEST(Batched, TierApiIsSane)
{
    TierGuard guard;
    const auto detected = kernel::detectedTier();
    EXPECT_EQ(kernel::activeTier(), detected);
    // Every tier up to the detected one is forceable and sticky.
    for (int t = 0; t <= static_cast<int>(detected); ++t) {
        kernel::forceTier(static_cast<kernel::Tier>(t));
        EXPECT_EQ(kernel::activeTier(), static_cast<kernel::Tier>(t));
    }
    kernel::resetTierOverride();
    EXPECT_EQ(kernel::activeTier(), detected);
    // Forcing past what the host supports would trap on execution,
    // so the hook refuses it up front.
    if (detected != kernel::Tier::Avx512) {
        EXPECT_THROW(
            kernel::forceTier(static_cast<kernel::Tier>(
                static_cast<int>(detected) + 1)),
            FatalError);
        EXPECT_EQ(kernel::activeTier(), detected);
    }
    EXPECT_STREQ(kernel::tierName(kernel::Tier::Scalar), "scalar");
}

std::vector<Word>
randomWords(Rng &rng, int n, int lo = -32768, int hi = 32767)
{
    std::vector<Word> v(static_cast<std::size_t>(n));
    for (auto &w : v)
        w = static_cast<Word>(rng.uniform(lo, hi));
    return v;
}

/** Everything one engine run is observable by. */
struct RunTrace
{
    std::vector<Acc> results; ///< count * numOutputs, window-major.
    EngineStats stats;
    resilience::TransientStats transient;
    std::vector<AdcTally> tiles;
    std::uint64_t readCycles = 0;
    std::uint64_t adcClips = 0;
};

void
captureCounters(const BitSerialEngine &engine, RunTrace &trace)
{
    trace.stats = engine.stats();
    trace.transient = engine.transientStats();
    for (int rs = 0; rs < engine.rowSegments(); ++rs)
        for (int cs = 0; cs < engine.colSegments(); ++cs)
            trace.tiles.push_back(engine.tileAdcTally(rs, cs));
    trace.readCycles = engine.readCycles();
    trace.adcClips = engine.adcClips();
}

/** count windows through sequential dotProduct() calls. */
RunTrace
runSequential(const EngineConfig &cfg, std::span<const Word> weights,
              int n, int m, const std::vector<Word> &inputs,
              int count)
{
    BitSerialEngine engine(cfg, weights, n, m);
    RunTrace trace;
    for (int i = 0; i < count; ++i) {
        const auto r = engine.dotProduct(std::span<const Word>(
            inputs.data() + static_cast<std::size_t>(i) * n,
            static_cast<std::size_t>(n)));
        trace.results.insert(trace.results.end(), r.begin(), r.end());
    }
    captureCounters(engine, trace);
    return trace;
}

/** The same windows through one dotProductBatch() call. */
RunTrace
runBatched(const EngineConfig &cfg, std::span<const Word> weights,
           int n, int m, const std::vector<Word> &inputs, int count)
{
    BitSerialEngine engine(cfg, weights, n, m);
    RunTrace trace;
    trace.results = engine.dotProductBatch(inputs, count);
    captureCounters(engine, trace);
    return trace;
}

void
expectTracesEqual(const RunTrace &a, const RunTrace &b,
                  const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.results, b.results);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(a.transient.abftChecks, b.transient.abftChecks);
    EXPECT_EQ(a.transient.abftMismatches, b.transient.abftMismatches);
    EXPECT_EQ(a.transient.abftRetries, b.transient.abftRetries);
    EXPECT_EQ(a.transient.abftRetryCycles,
              b.transient.abftRetryCycles);
    EXPECT_EQ(a.transient.abftUncorrected,
              b.transient.abftUncorrected);
    EXPECT_EQ(a.transient.abftDisabledTiles,
              b.transient.abftDisabledTiles);
    ASSERT_EQ(a.tiles.size(), b.tiles.size());
    for (std::size_t i = 0; i < a.tiles.size(); ++i) {
        EXPECT_EQ(a.tiles[i].samples, b.tiles[i].samples)
            << "tile " << i;
        EXPECT_EQ(a.tiles[i].clips, b.tiles[i].clips) << "tile " << i;
        EXPECT_EQ(a.tiles[i].bitCycles, b.tiles[i].bitCycles)
            << "tile " << i;
    }
    EXPECT_EQ(a.readCycles, b.readCycles);
    EXPECT_EQ(a.adcClips, b.adcClips);
}

/** A named configuration point of the equivalence sweep. */
struct SweepPoint
{
    const char *name;
    EngineConfig cfg;
};

/** Same encoding sweep the single-window fast path is proved on. */
std::vector<SweepPoint>
sweepPoints()
{
    std::vector<SweepPoint> points;
    {
        SweepPoint p{"default-ce", {}};
        points.push_back(p);
    }
    {
        SweepPoint p{"w1-unflipped", {}};
        p.cfg.cellBits = 1;
        p.cfg.flipEncoding = false;
        points.push_back(p);
    }
    {
        SweepPoint p{"w4-abft", {}};
        p.cfg.cellBits = 4;
        p.cfg.abftChecksum = true;
        points.push_back(p);
    }
    {
        SweepPoint p{"biased-dac2", {}};
        p.cfg.dacBits = 2;
        p.cfg.inputMode = InputMode::Biased;
        points.push_back(p);
    }
    {
        SweepPoint p{"biased-dac4-w4", {}};
        p.cfg.dacBits = 4;
        p.cfg.cellBits = 4;
        p.cfg.inputMode = InputMode::Biased;
        points.push_back(p);
    }
    {
        SweepPoint p{"stuck-spares-abft", {}};
        p.cfg.spareCols = 4;
        p.cfg.abftChecksum = true;
        p.cfg.noise.stuckAtFraction = 0.01;
        p.cfg.noise.stuckMode = StuckMode::RandomLevel;
        points.push_back(p);
    }
    {
        SweepPoint p{"write-noise", {}};
        p.cfg.noise.writeSigmaLevels = 0.4;
        p.cfg.noise.maxProgramPulses = 6;
        points.push_back(p);
    }
    return points;
}

/**
 * The window sets the batched sweep runs at each count: full-range
 * random windows (one repeated), and sign-extended small magnitudes
 * whose high phases are equal across the whole block, so phases
 * share GEMM readings — non-negative (ReLU'd), both signs, all-zero,
 * all -1 — plus a signed set in which the last window alone breaks
 * that equality (one large row), so its phases must not share.
 */
std::vector<std::pair<std::string, std::vector<Word>>>
windowSets(Rng &rng, int n, int count)
{
    std::vector<std::pair<std::string, std::vector<Word>>> sets;
    auto full = randomWords(rng, n * count);
    if (count >= 3)
        std::copy(full.begin(), full.begin() + n,
                  full.begin() + static_cast<std::size_t>(2) * n);
    sets.emplace_back("full", std::move(full));
    sets.emplace_back("relu", randomWords(rng, n * count, 0, 127));
    sets.emplace_back("signed", randomWords(rng, n * count, -8, 7));
    sets.emplace_back("zero", std::vector<Word>(
                                  static_cast<std::size_t>(n) * count, 0));
    sets.emplace_back("minus-one",
                      std::vector<Word>(
                          static_cast<std::size_t>(n) * count, -1));
    auto broken = randomWords(rng, n * count, -8, 7);
    broken[static_cast<std::size_t>(count - 1) * n + 3] = 0x1234;
    sets.emplace_back("signed-broken", std::move(broken));
    return sets;
}

TEST(Batched, GoldenEquivalenceSweep)
{
    const int n = 200, m = 20; // 2 row segments x >=2 col segments
    Rng rng(0xBA7C4);
    const auto weights = randomWords(rng, n * m);

    for (const auto &point : sweepPoints()) {
        // Ground truth: the legacy scalar path, window by window.
        EngineConfig scalar = point.cfg;
        scalar.threads = 1;
        scalar.fastPath = false;

        // Counts straddle the block-size clamp (min 8), so at 2+
        // threads 13 windows run as blocks of 8 and 5 and the broken
        // window shares a block with some of the others.
        for (const int count : {1, 5, 13}) {
            for (const auto &[set, inputs] : windowSets(rng, n, count)) {
                const auto golden = runSequential(scalar, weights, n, m,
                                                  inputs, count);
                for (const int threads : {1, 2, 4, 8}) {
                    EngineConfig fast = point.cfg;
                    fast.threads = threads;
                    fast.fastPath = true;
                    expectTracesEqual(
                        golden,
                        runBatched(fast, weights, n, m, inputs, count),
                        std::string(point.name) + " " + set + " count" +
                            std::to_string(count) + " t" +
                            std::to_string(threads));
                }
            }
        }
    }
}

/**
 * Read noise on the packed tiers, differentially against the scalar
 * oracle (fastPath = false, sequential dotProduct()): ABFT whose
 * retries fire (and sometimes run out), the fixed and the adaptive
 * ADC policy, sparse stuck-On cells (ABFT stays armed on some tiles)
 * and dense ones (saturating windows read past the ADC ceiling and
 * every checksum column fails verification), 0 and 2 spare columns,
 * at n in {1, 8, 81, 300} windows, on every compiled kernel tier:
 * the batched GEMM at 1 and 4 threads, one-window packed calls
 * serially. Two's complement runs w = 2 cells on 32 columns, biased
 * mode w = 4 cells on 16 (both converters then have headroom only
 * dense stuck-On columns can exceed). One input mode and ABFT
 * setting per test case, so ctest spreads the sweep.
 */
void
readNoiseSweep(InputMode mode, bool abft)
{
    const int n = 100, m = 6; // 2 row segments x 2-3 column segments
    const int maxCount = 300;
    Rng rng(0x2EAD0 + static_cast<int>(mode) * 2 + (abft ? 1 : 0));
    const auto weights = randomWords(rng, n * m);
    // Every seventh window saturates every digit (all-ones two's
    // complement, or the largest biased value), so the dense
    // stuck-On columns read past the converter ceiling.
    auto inputs = randomWords(rng, n * maxCount);
    const Word hot = mode == InputMode::TwosComplement
        ? Word{-1}
        : Word{32767};
    for (int i = 0; i < maxCount; i += 7)
        std::fill_n(inputs.begin() + static_cast<std::ptrdiff_t>(i) * n,
                    n, hot);

    TierGuard guard;
    const int tiers = static_cast<int>(kernel::detectedTier()) + 1;
    for (const bool adaptive : {false, true}) {
        for (const double stuck : {0.0, 0.02, 0.4}) {
            for (const int spares : {0, 2}) {
                EngineConfig cfg;
                cfg.rows = 64;
                cfg.cols = 32;
                cfg.inputMode = mode;
                if (mode == InputMode::Biased) {
                    cfg.cols = 16;
                    cfg.cellBits = 4;
                }
                cfg.spareCols = spares;
                cfg.abftChecksum = abft;
                cfg.noise.sigmaLsb = 0.25;
                cfg.noise.stuckAtFraction = stuck;
                cfg.noise.stuckMode = StuckMode::On;
                if (adaptive)
                    cfg.adcPolicy = AdcPolicy::adaptive();
                EngineConfig scalar = cfg;
                scalar.threads = 1;
                scalar.fastPath = false;
                const std::string point =
                    std::string(adaptive ? "adaptive" : "fixed") +
                    " stuck-on " + std::to_string(stuck) +
                    " spares" + std::to_string(spares);
                for (const int count : {1, 8, 81, maxCount}) {
                    const std::vector<Word> in(
                        inputs.begin(),
                        inputs.begin() +
                            static_cast<std::ptrdiff_t>(count) * n);
                    const auto golden =
                        runSequential(scalar, weights, n, m, in, count);
                    if (count == maxCount) {
                        // The sweep must reach the paths it claims to.
                        if (abft && stuck < 0.1) {
                            EXPECT_GT(golden.transient.abftRetries, 0u)
                                << point;
                            EXPECT_GT(golden.transient.abftUncorrected,
                                      0u) << point;
                        }
                        if (stuck > 0.1)
                            EXPECT_GT(golden.adcClips, 0u) << point;
                    }
                    for (int tier = 0; tier < tiers; ++tier) {
                        const auto t = static_cast<kernel::Tier>(tier);
                        kernel::forceTier(t);
                        const std::string label = point + " n" +
                            std::to_string(count) + " " +
                            kernel::tierName(t);
                        for (const int threads : {1, 4}) {
                            EngineConfig fast = cfg;
                            fast.threads = threads;
                            expectTracesEqual(
                                golden,
                                runBatched(fast, weights, n, m, in,
                                           count),
                                "batched " + label + " t" +
                                    std::to_string(threads));
                        }
                        EngineConfig fast = cfg;
                        fast.threads = 1;
                        expectTracesEqual(
                            golden,
                            runSequential(fast, weights, n, m, in,
                                          count),
                            "one-window " + label);
                    }
                }
            }
        }
    }
}

TEST(Batched, ReadNoiseSweepTwosComplement)
{
    readNoiseSweep(InputMode::TwosComplement, false);
}

TEST(Batched, ReadNoiseSweepTwosComplementAbft)
{
    readNoiseSweep(InputMode::TwosComplement, true);
}

TEST(Batched, ReadNoiseSweepBiased)
{
    readNoiseSweep(InputMode::Biased, false);
}

TEST(Batched, ReadNoiseSweepBiasedAbft)
{
    readNoiseSweep(InputMode::Biased, true);
}

TEST(Batched, EveryCompiledTierIsInvisibleAtEngineLevel)
{
    const int n = 200, m = 20;
    const int count = 13;
    Rng rng(0x71E2);
    const auto weights = randomWords(rng, n * m);
    const auto inputs = randomWords(rng, n * count);

    EngineConfig scalar;
    scalar.threads = 1;
    scalar.fastPath = false;
    const auto golden =
        runSequential(scalar, weights, n, m, inputs, count);

    EngineConfig fast;
    fast.threads = 4;
    TierGuard guard;
    for (int t = 0; t <= static_cast<int>(kernel::detectedTier());
         ++t) {
        kernel::forceTier(static_cast<kernel::Tier>(t));
        expectTracesEqual(
            golden, runBatched(fast, weights, n, m, inputs, count),
            std::string("tier ") +
                kernel::tierName(static_cast<kernel::Tier>(t)));
    }
}

TEST(Batched, NoisyConfigBatchesWithPerWindowNoise)
{
    // Read noise runs on the batched GEMM; window i must draw the
    // exact noise stream the i-th sequential call would see, on the
    // packed one-window path and on the scalar oracle alike.
    EngineConfig noisy;
    noisy.threads = 1;
    noisy.noise.sigmaLsb = 0.5;
    const int n = 128, m = 16, count = 3;
    Rng rng(0x0157);
    const auto weights = randomWords(rng, n * m);
    const auto inputs = randomWords(rng, n * count);

    BitSerialEngine batched(noisy, weights, n, m);
    ASSERT_TRUE(batched.fastPathActive());
    const auto got = batched.dotProductBatch(inputs, count);

    EngineConfig scalar = noisy;
    scalar.fastPath = false;
    for (const auto &cfg : {noisy, scalar}) {
        BitSerialEngine seq(cfg, weights, n, m);
        std::vector<Acc> want;
        for (int i = 0; i < count; ++i) {
            const auto r = seq.dotProduct(std::span<const Word>(
                inputs.data() + static_cast<std::size_t>(i) * n,
                static_cast<std::size_t>(n)));
            want.insert(want.end(), r.begin(), r.end());
        }
        EXPECT_EQ(got, want) << "fastPath " << cfg.fastPath;
        EXPECT_TRUE(batched.stats() == seq.stats());
    }
}

TEST(Batched, MixedBatchAndSequentialCallsShareTheOpStream)
{
    // A batch of k windows advances the op sequence by k, so later
    // per-window calls land on the same op numbers either way.
    EngineConfig cfg;
    cfg.threads = 1;
    const int n = 128, m = 16;
    Rng rng(0x3A7);
    const auto weights = randomWords(rng, n * m);
    const auto inputs = randomWords(rng, n * 5);
    const auto tail = randomWords(rng, n);

    BitSerialEngine a(cfg, weights, n, m);
    auto gotBatch = a.dotProductBatch(inputs, 5);
    const auto gotTail = a.dotProduct(tail);

    BitSerialEngine b(cfg, weights, n, m);
    std::vector<Acc> wantBatch;
    for (int i = 0; i < 5; ++i) {
        const auto r = b.dotProduct(std::span<const Word>(
            inputs.data() + static_cast<std::size_t>(i) * n,
            static_cast<std::size_t>(n)));
        wantBatch.insert(wantBatch.end(), r.begin(), r.end());
    }
    const auto wantTail = b.dotProduct(tail);
    EXPECT_EQ(gotBatch, wantBatch);
    EXPECT_EQ(gotTail, wantTail);
    EXPECT_TRUE(a.stats() == b.stats());
    EXPECT_EQ(a.readCycles(), b.readCycles());
}

TEST(Batched, EmptyBatchIsANoOp)
{
    EngineConfig cfg;
    cfg.threads = 1;
    Rng rng(0xE);
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine engine(cfg, weights, 128, 16);
    const auto out = engine.dotProductBatch({}, 0);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(engine.stats().ops, 0u);
    EXPECT_EQ(engine.readCycles(), 0u);
}

TEST(Batched, BadBatchArgumentsAreFatal)
{
    EngineConfig cfg;
    cfg.threads = 1;
    Rng rng(0xBAD);
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine engine(cfg, weights, 128, 16);
    const auto x = randomWords(rng, 128);
    EXPECT_THROW((void)engine.dotProductBatch(x, -1), FatalError);
    EXPECT_THROW((void)engine.dotProductBatch(x, 2), FatalError);
}

} // namespace
} // namespace isaac::xbar
