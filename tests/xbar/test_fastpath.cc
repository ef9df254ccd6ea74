/**
 * @file
 * Packed bit-plane fast path + phase dedupe: the golden
 * equivalence suite. The fast path is only allowed to exist because
 * it is *invisible* — results, EngineStats, per-tile AdcTally, and
 * TransientStats must be bit-identical to the legacy scalar path for
 * every configuration and thread count, shared phases included. These
 * tests sweep the encoding space, prove the dispatch rules
 * (drifting/injected configs fall back to scalar; read noise runs
 * packed and matches the scalar oracle's noise realization), and
 * prove invalidation on reprogramming.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "xbar/engine.h"

namespace isaac::xbar {
namespace {

std::vector<Word>
randomWords(Rng &rng, int n, int lo = -32768, int hi = 32767)
{
    std::vector<Word> v(static_cast<std::size_t>(n));
    for (auto &w : v)
        w = static_cast<Word>(rng.uniform(lo, hi));
    return v;
}

/** Everything an engine run is observable by. */
struct RunTrace
{
    std::vector<std::vector<Acc>> results;
    EngineStats stats;
    resilience::TransientStats transient;
    std::vector<AdcTally> tiles;
    std::uint64_t readCycles = 0;
    std::uint64_t adcClips = 0;
};

/** Run a sequence of inputs (with repeats) and trace everything. */
RunTrace
runSequence(const EngineConfig &cfg, std::span<const Word> weights,
            int n, int m,
            const std::vector<std::vector<Word>> &inputs)
{
    BitSerialEngine engine(cfg, weights, n, m);
    RunTrace trace;
    for (const auto &x : inputs)
        trace.results.push_back(engine.dotProduct(x));
    trace.stats = engine.stats();
    trace.transient = engine.transientStats();
    for (int rs = 0; rs < engine.rowSegments(); ++rs)
        for (int cs = 0; cs < engine.colSegments(); ++cs)
            trace.tiles.push_back(engine.tileAdcTally(rs, cs));
    trace.readCycles = engine.readCycles();
    trace.adcClips = engine.adcClips();
    return trace;
}

void
expectTracesEqual(const RunTrace &a, const RunTrace &b,
                  const std::string &label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i)
        EXPECT_EQ(a.results[i], b.results[i]) << "op " << i;
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
    EXPECT_TRUE(a.transient == b.transient);
    EXPECT_EQ(a.readCycles, b.readCycles);
    EXPECT_EQ(a.adcClips, b.adcClips);
}

/** A named configuration point of the equivalence sweep. */
struct SweepPoint
{
    const char *name;
    EngineConfig cfg;
};

/**
 * The sweep: {cellBits, dacBits, flipEncoding, spares, ABFT on/off,
 * TwosComplement/Biased} plus programming-time non-idealities
 * (write noise, stuck cells) that the packed path must read through
 * exactly because they only shape the *stored* levels.
 */
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
        // Stuck cells + spares: the remapper moves columns, the
        // checksum derives from stored levels, and the packed planes
        // must capture exactly what landed.
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
    {
        // Adaptive ADC: the per-cycle resolution (and so bitCycles)
        // follows each reading's unit column.
        SweepPoint p{"adaptive-abft-spares2", {}};
        p.cfg.adcPolicy = AdcPolicy::adaptive();
        p.cfg.spareCols = 2;
        p.cfg.abftChecksum = true;
        p.cfg.noise.stuckAtFraction = 0.01;
        p.cfg.noise.stuckMode = StuckMode::RandomLevel;
        points.push_back(p);
    }
    {
        SweepPoint p{"biased-adaptive-abft-spares2", {}};
        p.cfg.dacBits = 2;
        p.cfg.inputMode = InputMode::Biased;
        p.cfg.adcPolicy = AdcPolicy::adaptive();
        p.cfg.spareCols = 2;
        p.cfg.abftChecksum = true;
        p.cfg.noise.stuckAtFraction = 0.01;
        p.cfg.noise.stuckMode = StuckMode::RandomLevel;
        points.push_back(p);
    }
    {
        // An under-sized converter clips, so ABFT checks mismatch,
        // retry and give up: every transient counter moves.
        SweepPoint p{"clipping-abft", {}};
        p.cfg.adcPolicy = AdcPolicy::fixed(5);
        p.cfg.abftChecksum = true;
        points.push_back(p);
    }
    return points;
}

TEST(FastPath, GoldenEquivalenceSweep)
{
    const int n = 200, m = 20; // 2 row segments x >=2 col segments
    Rng rng(0xFA57);
    const auto weights = randomWords(rng, n * m);
    // Full-range vectors, with repeats across calls.
    std::vector<std::vector<Word>> full;
    full.push_back(randomWords(rng, n));
    full.push_back(randomWords(rng, n, -50, 50));
    full.push_back(full[0]);
    full.push_back(randomWords(rng, n));
    full.push_back(full[1]);
    // Sign-extended small magnitudes: their high phases repeat one
    // digit vector (all-zero, or all-ones rows where negative), so
    // phase dedupe shares most tile readings within each call.
    std::vector<std::vector<Word>> small;
    small.push_back(randomWords(rng, n, -8, 7));
    small.push_back(randomWords(rng, n, 0, 127)); // ReLU'd activations
    small.push_back(std::vector<Word>(static_cast<std::size_t>(n), 0));
    small.push_back(std::vector<Word>(static_cast<std::size_t>(n), -1));
    small.push_back(randomWords(rng, n, -2, 1));
    small.push_back(small[0]);

    for (const auto &point : sweepPoints()) {
        EngineConfig scalar = point.cfg;
        scalar.threads = 1;
        scalar.fastPath = false;
        for (const auto *inputs : {&full, &small}) {
            const std::string set = inputs == &full ? "full" : "small";
            const auto golden =
                runSequence(scalar, weights, n, m, *inputs);
            if (std::string(point.name) == "clipping-abft") {
                EXPECT_GT(golden.adcClips, 0u) << set;
                EXPECT_GT(golden.transient.abftRetries, 0u) << set;
            }
            for (const int threads : {1, 2, 4, 8}) {
                EngineConfig fast = point.cfg;
                fast.threads = threads;
                fast.fastPath = true;
                expectTracesEqual(
                    golden, runSequence(fast, weights, n, m, *inputs),
                    std::string(point.name) + " " + set + " t" +
                        std::to_string(threads));
            }
        }
    }
}

TEST(FastPath, InvalidationOnReprogram)
{
    const int n = 200, m = 20;
    Rng rng(0x4EBD);
    const auto w1 = randomWords(rng, n * m);
    const auto w2 = randomWords(rng, n * m);
    const auto x = randomWords(rng, n);

    EngineConfig cfg;
    cfg.threads = 1;
    BitSerialEngine engine(cfg, w1, n, m);
    EngineConfig scalar = cfg;
    scalar.fastPath = false;

    // program -> read -> reprogram -> read: the second read must see
    // the new weights, not packed planes of the old ones.
    {
        BitSerialEngine ref(scalar, w1, n, m);
        EXPECT_EQ(engine.dotProduct(x), ref.dotProduct(x));
    }
    engine.reprogram(w2);
    {
        BitSerialEngine ref(scalar, w2, n, m);
        EXPECT_EQ(engine.dotProduct(x), ref.dotProduct(x));
    }
}

TEST(FastPath, NoisyConfigRunsPackedAndMatchesScalar)
{
    EngineConfig noisy;
    noisy.threads = 1;
    noisy.noise.sigmaLsb = 0.5;
    Rng rng(0x0157);
    const auto weights = randomWords(rng, 128 * 16);
    const auto x = randomWords(rng, 128);

    BitSerialEngine engine(noisy, weights, 128, 16);
    EXPECT_TRUE(engine.fastPathActive());
    const auto got = engine.dotProduct(x);
    // The same digit vectors again: every read draws fresh noise,
    // keyed by (op, phase), so neither calls nor phases share reads.
    const auto again = engine.dotProduct(x);

    // The knob only picks the tier: identical noise realization.
    EngineConfig legacy = noisy;
    legacy.fastPath = false;
    BitSerialEngine ref(legacy, weights, 128, 16);
    EXPECT_FALSE(ref.fastPathActive());
    EXPECT_EQ(got, ref.dotProduct(x));
    EXPECT_EQ(again, ref.dotProduct(x));
    EXPECT_TRUE(engine.stats() == ref.stats());
    EXPECT_EQ(engine.readCycles(), ref.readCycles());
}

TEST(FastPath, DriftConfigFallsBackToScalar)
{
    EngineConfig drifty;
    drifty.threads = 1;
    drifty.noise.driftLevelsPerOp = 0.01;
    drifty.noise.refreshIntervalOps = 16;
    Rng rng(0xD21F);
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine engine(drifty, weights, 128, 16);
    EXPECT_FALSE(engine.fastPathActive());
}

TEST(FastPath, InjectionDisablesFastPath)
{
    EngineConfig cfg;
    cfg.threads = 1;
    cfg.abftChecksum = true;
    Rng rng(0x1412);
    const auto weights = randomWords(rng, 128 * 16);
    const auto x = randomWords(rng, 128);

    BitSerialEngine engine(cfg, weights, 128, 16);
    engine.dotProduct(x); // read packed while clean
    ASSERT_TRUE(engine.fastPathActive());
    engine.injectCellFault(0, 0, 3, 5, 0);
    EXPECT_FALSE(engine.fastPathActive());

    // Post-injection reads must match a scalar engine with the same
    // injection — the clean packed planes must not leak through.
    EngineConfig scalar = cfg;
    scalar.fastPath = false;
    BitSerialEngine ref(scalar, weights, 128, 16);
    ref.dotProduct(x);
    ref.injectCellFault(0, 0, 3, 5, 0);
    EXPECT_EQ(engine.dotProduct(x), ref.dotProduct(x));
    const auto ts = engine.transientStats();
    const auto rts = ref.transientStats();
    EXPECT_EQ(ts.abftMismatches, rts.abftMismatches);
    EXPECT_EQ(ts.abftRetries, rts.abftRetries);
}

TEST(FastPath, CrossbarPackedMatchesScalar)
{
    // Array-level equivalence, including stuck cells frozen at
    // arbitrary levels and multi-bit digits.
    const int rows = 100, cols = 37, cellBits = 3;
    CrossbarArray xb(rows, cols, cellBits);
    Rng rng(0xB17);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            xb.program(r, c,
                       static_cast<int>(rng.uniform(0, 7)));
    xb.forceStuck(5, 7, 6);
    xb.forceStuck(63, 0, 1);
    xb.forceStuck(64, 36, 5);

    for (const int digitBits : {1, 2, 4}) {
        std::vector<int> digits(static_cast<std::size_t>(rows));
        for (auto &d : digits)
            d = static_cast<int>(
                rng.uniform(0, (1 << digitBits) - 1));
        const int words = xb.planeWords();
        std::vector<std::uint64_t> planes(
            static_cast<std::size_t>(digitBits) * words, 0);
        for (int r = 0; r < rows; ++r)
            for (int j = 0; j < digitBits; ++j)
                if ((digits[static_cast<std::size_t>(r)] >> j) & 1)
                    planes[static_cast<std::size_t>(j) * words +
                           r / 64] |= std::uint64_t{1} << (r % 64);

        const auto scalar = xb.readAllBitlines(digits, 0);
        std::vector<Acc> packed;
        xb.readAllBitlinesPackedBatch(planes, digitBits, 1, packed);
        EXPECT_EQ(scalar, packed) << "digitBits " << digitBits;
    }
}

/** maxPackedReading()'s bound, recomputed from the stored levels. */
Acc
bruteForceMaxReading(const CrossbarArray &xb, int digitBits)
{
    Acc best = 0;
    for (int c = 0; c < xb.cols(); ++c) {
        Acc sum = 0;
        for (int r = 0; r < xb.rows(); ++r)
            sum += xb.cell(r, c);
        best = std::max(best, sum);
    }
    return best * ((Acc{1} << digitBits) - 1);
}

TEST(FastPath, PlaneRebuildAfterMutation)
{
    CrossbarArray xb(70, 5, 2);
    std::vector<int> digits(70, 1);
    std::vector<std::uint64_t> planes(2, 0); // 70 rows -> 2 words
    planes[0] = ~std::uint64_t{0};
    planes[1] = (std::uint64_t{1} << (70 - 64)) - 1;

    std::vector<Acc> out;
    xb.readAllBitlinesPackedBatch(planes, 1, 1, out);
    EXPECT_EQ(out[2], 0);
    EXPECT_EQ(xb.maxPackedReading(2), 0);

    xb.program(69, 2, 3); // last row: exercises the word boundary
    xb.readAllBitlinesPackedBatch(planes, 1, 1, out);
    EXPECT_EQ(out[2], 3);
    // The cached clip bound follows every stored-level mutation.
    EXPECT_EQ(xb.maxPackedReading(1), bruteForceMaxReading(xb, 1));
    EXPECT_EQ(xb.maxPackedReading(2), bruteForceMaxReading(xb, 2));
    EXPECT_EQ(xb.maxPackedReading(1), 3);

    xb.program(0, 4, 2);
    xb.program(1, 4, 2);
    EXPECT_EQ(xb.maxPackedReading(1), bruteForceMaxReading(xb, 1));
    EXPECT_EQ(xb.maxPackedReading(1), 4);

    xb.forceStuck(69, 2, 1);
    xb.readAllBitlinesPackedBatch(planes, 1, 1, out);
    EXPECT_EQ(out[2], 1);
    xb.forceStuck(5, 4, 3);
    EXPECT_EQ(xb.maxPackedReading(1), bruteForceMaxReading(xb, 1));
    EXPECT_EQ(xb.maxPackedReading(4), bruteForceMaxReading(xb, 4));
    EXPECT_EQ(xb.maxPackedReading(1), 7);
}

TEST(FastPath, PackedReadPlusNoiseMatchesScalarRead)
{
    // A read-noise array reads packed: the clean packed sums plus
    // one applyReadNoise() draw per column are the scalar read.
    CrossbarArray xb(8, 3, 2);
    NoiseSpec spec;
    spec.sigmaLsb = 0.8;
    xb.setNoise(spec);
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 3; ++c)
            xb.program(r, c, (r + c) % 4);
    EXPECT_TRUE(xb.packedReadExact());
    const std::vector<int> digits(8, 1);
    std::vector<std::uint64_t> planes(1, 0xFF);
    for (const std::uint64_t seq : {0ull, 7ull, 1ull << 40}) {
        std::vector<Acc> out;
        xb.readAllBitlinesPackedBatch(planes, 1, 1, out);
        for (int c = 0; c < 3; ++c)
            out[static_cast<std::size_t>(c)] = xb.applyReadNoise(
                out[static_cast<std::size_t>(c)], seq, c);
        EXPECT_EQ(out, xb.readAllBitlines(digits, seq)) << seq;
    }

    // Drift changes the conductances themselves: packed reads stay
    // refused there.
    CrossbarArray drifty(8, 2, 2);
    NoiseSpec driftSpec;
    driftSpec.driftLevelsPerOp = 0.1;
    drifty.setNoise(driftSpec);
    std::vector<Acc> out;
    EXPECT_THROW(drifty.readAllBitlinesPackedBatch(planes, 1, 1, out),
                 FatalError);
    EXPECT_FALSE(drifty.packedReadExact());
}

TEST(FastPath, UnequalPhasesAreNeverShared)
{
    // Phases may share a tile reading only when their whole digit
    // vector matches. 128 rows = two plane words; inputs in {0..3}
    // put phase 0 and phase 1 on planes that agree on one word and
    // differ on the other, while phases 2..15 present the all-zero
    // vector (which they do share).
    const std::uint64_t same = 0x0123456789ABCDEFull;
    const std::uint64_t a = 0xFEDCBA9876543210ull;
    const std::uint64_t b = 0x5555AAAA3333CCCCull;
    const auto inputsFor = [](std::uint64_t p0w0, std::uint64_t p0w1,
                              std::uint64_t p1w0, std::uint64_t p1w1) {
        std::vector<Word> x(128, 0);
        for (int r = 0; r < 64; ++r) {
            x[static_cast<std::size_t>(r)] = static_cast<Word>(
                ((p0w0 >> r) & 1) | (((p1w0 >> r) & 1) << 1));
            x[static_cast<std::size_t>(64 + r)] = static_cast<Word>(
                ((p0w1 >> r) & 1) | (((p1w1 >> r) & 1) << 1));
        }
        return x;
    };
    EngineConfig cfg;
    cfg.threads = 1;
    Rng rng(0xC0111);
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine engine(cfg, weights, 128, 16);
    ASSERT_EQ(engine.rowSegments() * engine.colSegments(), 1);
    ASSERT_TRUE(engine.fastPathActive());
    EngineConfig scalar = cfg;
    scalar.fastPath = false;
    BitSerialEngine oracle(scalar, weights, 128, 16);

    for (const auto &x : {inputsFor(same, a, same, b),
                          inputsFor(a, same, b, same),
                          inputsFor(a, b, a, b)}) {
        EXPECT_EQ(engine.dotProduct(x), oracle.dotProduct(x));
    }

    // Across a block, phases share only when they match in every
    // window: here phases 0 and 1 agree in each window but the last
    // (inputs in {0, 3}), which differs in one row.
    std::vector<Word> block;
    for (int w = 0; w < 3; ++w) {
        const auto x = inputsFor(a, b, a, b);
        block.insert(block.end(), x.begin(), x.end());
    }
    block[static_cast<std::size_t>(2) * 128 + 77] = 1;
    const auto got = engine.dotProductBatch(block, 3);
    for (int w = 0; w < 3; ++w) {
        const std::vector<Acc> want = oracle.dotProduct(
            std::span<const Word>(block).subspan(
                static_cast<std::size_t>(w) * 128, 128));
        EXPECT_EQ(std::vector<Acc>(got.begin() + w * 16,
                                   got.begin() + (w + 1) * 16),
                  want)
            << "window " << w;
    }
    EXPECT_TRUE(engine.stats() == oracle.stats());
    EXPECT_EQ(engine.readCycles(), oracle.readCycles());
}

TEST(FastPath, ResetStatsReplaysExactly)
{
    // resetStats() promises a replayed run reports what a fresh
    // engine would: same results, counters and read cycles.
    EngineConfig cfg;
    cfg.threads = 1;
    Rng rng(0x2E5E7);
    const auto weights = randomWords(rng, 128 * 16);
    const auto x = randomWords(rng, 128);
    const auto y = randomWords(rng, 128, -50, 50);

    BitSerialEngine engine(cfg, weights, 128, 16);
    engine.dotProduct(x);
    engine.dotProduct(y);
    engine.dotProduct(x);
    const auto firstResults = engine.dotProduct(y);
    const auto firstStats = engine.stats();
    const auto firstTally = engine.tileAdcTally(0, 0);
    const auto firstCycles = engine.readCycles();

    engine.resetStats();
    EXPECT_EQ(engine.readCycles(), 0u);
    EXPECT_EQ(engine.stats(), EngineStats{});

    engine.dotProduct(x);
    engine.dotProduct(y);
    engine.dotProduct(x);
    EXPECT_EQ(engine.dotProduct(y), firstResults);
    EXPECT_TRUE(engine.stats() == firstStats);
    EXPECT_EQ(engine.tileAdcTally(0, 0).samples, firstTally.samples);
    EXPECT_EQ(engine.tileAdcTally(0, 0).bitCycles,
              firstTally.bitCycles);
    EXPECT_EQ(engine.readCycles(), firstCycles);
}

} // namespace
} // namespace isaac::xbar
