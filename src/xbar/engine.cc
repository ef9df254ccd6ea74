#include "xbar/engine.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "resilience/remap.h"
#include "xbar/batch_kernel.h"
#include "xbar/encoding.h"

namespace isaac::xbar {

int
EngineConfig::adcBits() const
{
    const int data = adcResolution(rows, dacBits, cellBits,
                                   flipEncoding);
    // The unit column sums raw input digits over all rows; it must
    // be representable too. For the default design point (128 rows,
    // v=1, w=2, encoded) both requirements are exactly 8 bits.
    const Acc unitMax = static_cast<Acc>(rows) *
        ((Acc{1} << dacBits) - 1);
    const int unit = log2Ceil(static_cast<std::uint64_t>(unitMax) + 1);
    return adcPolicy.capBits(std::max(data, unit));
}

void
EngineConfig::validate() const
{
    if (rows <= 0 || cols <= 0)
        fatal("EngineConfig: array dimensions must be positive");
    if (cellBits < 1 || cellBits > 8 || kDataBits % cellBits != 0)
        fatal("EngineConfig: cell bits must divide 16");
    if (dacBits < 1 || dacBits > 8 || kDataBits % dacBits != 0)
        fatal("EngineConfig: DAC bits must divide 16");
    if (inputMode == InputMode::TwosComplement && dacBits != 1) {
        fatal("EngineConfig: two's-complement input streaming "
              "requires a 1-bit DAC; use InputMode::Biased");
    }
    if (outputsPerArray() < 1) {
        fatal("EngineConfig: array narrower than one sliced weight ("
              + std::to_string(slicesPerWeight()) + " columns)");
    }
    if (spareCols < 0 || spareCols > cols)
        fatal("EngineConfig: spare columns must be in [0, cols]");
    if (noise.maxProgramPulses < 1)
        fatal("EngineConfig: maxProgramPulses must be >= 1");
    if (maxReadRetries < 0)
        fatal("EngineConfig: maxReadRetries must be non-negative");
    if (retryBackoffCycles < 1)
        fatal("EngineConfig: retryBackoffCycles must be >= 1");
    if (threads < 0 || threads > kMaxThreads)
        fatal("EngineConfig: thread count must be in [0, " +
              std::to_string(kMaxThreads) + "]");
    adcPolicy.validate();
}

BitSerialEngine::BitSerialEngine(const EngineConfig &cfg,
                                 std::span<const Word> weights,
                                 int numInputs, int numOutputs)
    : cfg(cfg), _numInputs(numInputs), _numOutputs(numOutputs),
      adc(cfg.adcBits(), cfg.noise.anyEnabled())
{
    cfg.validate();
    if (numInputs <= 0 || numOutputs <= 0)
        fatal("BitSerialEngine: matrix dimensions must be positive");
    if (weights.size() !=
        static_cast<std::size_t>(numInputs) * numOutputs) {
        fatal("BitSerialEngine: weight span size does not match the "
              "matrix dimensions");
    }

    _rowSegments = static_cast<int>(ceilDiv(numInputs, cfg.rows));
    _colSegments = static_cast<int>(
        ceilDiv(numOutputs, cfg.outputsPerArray()));
    tiles.resize(static_cast<std::size_t>(_rowSegments) *
                 _colSegments);

    _log.configure(kLogTileBase + kLogTileStride * tiles.size());
    _folded.assign(_log.counters(), 0);
    for (int rs = 0; rs < _rowSegments; ++rs) {
        for (int cs = 0; cs < _colSegments; ++cs) {
            auto &t = tile(rs, cs);
            t.usedRows = std::min(cfg.rows,
                                  numInputs - rs * cfg.rows);
            t.localOutputs =
                std::min(cfg.outputsPerArray(),
                         numOutputs - cs * cfg.outputsPerArray());
            // Physical columns: data + configured spares + the unit
            // column + the ABFT checksum column if enabled. Each
            // tile's fault/write streams are salted with its index
            // so arrays fail independently.
            t.array = std::make_unique<CrossbarArray>(
                cfg.rows,
                cfg.cols + cfg.spareCols + 1 +
                    (cfg.abftChecksum ? 1 : 0),
                cfg.cellBits);
            t.array->setNoise(
                cfg.noise,
                static_cast<std::uint64_t>(rs) * _colSegments + cs);
        }
    }
    // Tiles are independent (each owns its array and write RNG), so
    // program them in parallel; within a tile the write order is the
    // serial one, keeping stored levels bit-identical.
    parallelFor(
        static_cast<std::int64_t>(tiles.size()), cfg.threads,
        [&](std::int64_t i, int) {
            const int rs = static_cast<int>(i) / _colSegments;
            const int cs = static_cast<int>(i) % _colSegments;
            programTile(tile(rs, cs), weights, rs * cfg.rows,
                        cs * cfg.outputsPerArray());
        });
}

BitSerialEngine::ArrayTile &
BitSerialEngine::tile(int rs, int cs)
{
    return tiles[static_cast<std::size_t>(rs) * _colSegments + cs];
}

const BitSerialEngine::ArrayTile &
BitSerialEngine::tile(int rs, int cs) const
{
    return tiles[static_cast<std::size_t>(rs) * _colSegments + cs];
}

std::int64_t
BitSerialEngine::programTile(ArrayTile &t,
                             std::span<const Word> weights,
                             int rowBase, int outBase)
{
    const int slices = cfg.slicesPerWeight();
    const int dataCols = t.localOutputs * slices;
    const int logicalCols = dataCols + 1; // + the unit column
    t.flipped.assign(static_cast<std::size_t>(dataCols), false);
    t.sumBiased.assign(static_cast<std::size_t>(t.localOutputs), 0);

    // Build the intended level matrix in logical layout: biased
    // digits, then the flip encoding, then the unit column (a
    // 1-valued cell in every used row, producing the sum of the
    // input digits each phase).
    std::vector<int> next(
        static_cast<std::size_t>(cfg.rows) * logicalCols, 0);
    auto at = [&](int r, int c) -> int & {
        return next[static_cast<std::size_t>(r) * logicalCols + c];
    };
    for (int o = 0; o < t.localOutputs; ++o) {
        const int k = outBase + o;
        for (int r = 0; r < t.usedRows; ++r) {
            const Word w = weights[static_cast<std::size_t>(k) *
                                       _numInputs +
                                   (rowBase + r)];
            const std::uint16_t u = biasWeight(w);
            t.sumBiased[static_cast<std::size_t>(o)] += u;
            const auto digits = sliceWeight(u, cfg.cellBits);
            for (int s = 0; s < slices; ++s)
                at(r, o * slices + s) =
                    digits[static_cast<std::size_t>(s)];
        }
    }
    if (cfg.flipEncoding) {
        std::vector<int> levels(static_cast<std::size_t>(t.usedRows));
        for (int c = 0; c < dataCols; ++c) {
            for (int r = 0; r < t.usedRows; ++r)
                levels[static_cast<std::size_t>(r)] = at(r, c);
            if (shouldFlipColumn(levels, cfg.cellBits)) {
                t.flipped[static_cast<std::size_t>(c)] = true;
                for (int r = 0; r < t.usedRows; ++r)
                    at(r, c) = flipLevel(at(r, c), cfg.cellBits);
            }
        }
    }
    for (int r = 0; r < t.usedRows; ++r)
        at(r, dataCols) = 1;

    // First programming pass: fault-aware placement decides which
    // physical column serves each logical column (identity unless
    // program-verify flags mismatches and spares are available).
    // Reprogramming keeps the placement and rewrites differentially.
    std::int64_t writes = 0;
    std::vector<int> stored;
    if (t.colMap.empty()) {
        std::vector<int> preferred(
            static_cast<std::size_t>(logicalCols));
        for (int c = 0; c < dataCols; ++c)
            preferred[static_cast<std::size_t>(c)] = c;
        preferred[static_cast<std::size_t>(dataCols)] =
            cfg.cols + cfg.spareCols;
        std::vector<int> spares(
            static_cast<std::size_t>(cfg.spareCols));
        for (int s = 0; s < cfg.spareCols; ++s)
            spares[static_cast<std::size_t>(s)] = cfg.cols + s;
        auto plan = resilience::assignColumns(
            *t.array, next, cfg.rows, t.usedRows, logicalCols,
            preferred, spares);
        t.colMap = std::move(plan.colMap);
        t.faults = std::move(plan.faults);
        t.remappedColumns = plan.remappedColumns;
        t.uncorrectableCells = plan.uncorrectableCells;
        writes = plan.cellWrites;
        stored = std::move(plan.stored);
    } else {
        auto plan = resilience::reprogramColumns(
            *t.array, next, t.intended, cfg.rows, t.usedRows,
            logicalCols, t.colMap);
        t.faults = std::move(plan.faults);
        t.uncorrectableCells = plan.uncorrectableCells;
        writes = plan.cellWrites;
        stored = std::move(plan.stored);
    }
    t.intended = std::move(next);
    if (cfg.abftChecksum)
        programChecksum(t, stored);
    return writes;
}

void
BitSerialEngine::programChecksum(ArrayTile &t,
                                 std::span<const int> stored)
{
    // Checksum targets come from the *stored* levels the placement
    // pass left behind — reusing the readback its verification loop
    // already performed instead of re-reading every cell — unflipped
    // to the logical encoding so the digital check in
    // evalTileAttempts, which also unflips, stays consistent.
    // Deriving targets from readback rather than intent means
    // permanent write failures the remapper already reported do not
    // raise ABFT alarms forever.
    const int slices = cfg.slicesPerWeight();
    const int dataCols = t.localOutputs * slices;
    const int logicalCols = dataCols + 1;
    const int mask = (1 << cfg.cellBits) - 1;
    std::vector<int> target(static_cast<std::size_t>(t.usedRows), 0);
    for (int r = 0; r < t.usedRows; ++r) {
        int sum = 0;
        for (int c = 0; c < dataCols; ++c) {
            int lvl = stored[static_cast<std::size_t>(r) *
                                 logicalCols +
                             c];
            if (t.flipped[static_cast<std::size_t>(c)])
                lvl = flipLevel(lvl, cfg.cellBits);
            sum += lvl;
        }
        target[static_cast<std::size_t>(r)] = sum & mask;
    }
    // The checksum column obeys the same flip rule as data columns
    // so its bitline sum stays inside the encoded ADC range.
    t.checksumFlipped =
        cfg.flipEncoding && shouldFlipColumn(target, cfg.cellBits);
    if (t.checksumFlipped) {
        for (int &lvl : target)
            lvl = flipLevel(lvl, cfg.cellBits);
    }
    t.abftOk = true;
    const int phys = checksumCol();
    for (int r = 0; r < t.usedRows; ++r) {
        const int want = target[static_cast<std::size_t>(r)];
        int have = t.array->cell(r, phys);
        if (have != want) {
            t.array->program(r, phys, want);
            have = t.array->cell(r, phys);
        }
        if (have != want)
            t.abftOk = false; // Defective column: run unchecked.
    }
}

std::int64_t
BitSerialEngine::reprogram(std::span<const Word> weights)
{
    if (weights.size() !=
        static_cast<std::size_t>(_numInputs) * _numOutputs) {
        fatal("BitSerialEngine::reprogram: weight span size does "
              "not match the matrix dimensions");
    }
    const auto count = static_cast<std::int64_t>(tiles.size());
    std::vector<std::int64_t> writes(
        static_cast<std::size_t>(
            parallelWorkers(cfg.threads, count)),
        0);
    parallelFor(count, cfg.threads, [&](std::int64_t i, int w) {
        const int rs = static_cast<int>(i) / _colSegments;
        const int cs = static_cast<int>(i) % _colSegments;
        writes[static_cast<std::size_t>(w)] +=
            programTile(tile(rs, cs), weights, rs * cfg.rows,
                        cs * cfg.outputsPerArray());
    });
    std::int64_t total = 0;
    for (std::int64_t w : writes)
        total += w;
    return total;
}

bool
BitSerialEngine::fastPathActive() const
{
    return cfg.fastPath && !cfg.noise.driftEnabled() &&
        !_injected.load(std::memory_order_relaxed);
}

std::uint64_t
BitSerialEngine::readSeq(std::uint64_t opSeq, int p, int attempt) const
{
    // The noise sequence salts the attempt into the high bits, so an
    // ABFT re-read draws fresh noise; the drift clock stays pinned to
    // opSeq — noise excursions are retryable, drifted conductances
    // are not.
    return opSeq * static_cast<std::uint64_t>(cfg.phases()) +
        static_cast<std::uint64_t>(p) +
        (static_cast<std::uint64_t>(attempt) << 40);
}

template <typename Fn>
void
BitSerialEngine::forEachSampledColumn(const ArrayTile &t, int dataCols,
                                      bool checking, Fn fn) const
{
    for (int c = 0; c <= dataCols; ++c)
        fn(t.colMap[static_cast<std::size_t>(c)]);
    if (checking)
        fn(checksumCol());
}

void
BitSerialEngine::addReadNoise(const ArrayTile &t, int dataCols,
                              bool checking, std::uint64_t seq,
                              std::vector<Acc> &currents) const
{
    forEachSampledColumn(t, dataCols, checking, [&](int c) {
        Acc &v = currents[static_cast<std::size_t>(c)];
        v = t.array->applyReadNoise(v, seq, c);
    });
}

void
BitSerialEngine::runPhaseGroup(std::span<const Word> inputs,
                               const PhaseGroup &g,
                               std::span<const std::uint64_t> planes,
                               std::uint64_t opSeq, Partial &part) const
{
    const int slices = cfg.slicesPerWeight();
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    const int rs = g.rs;
    const int p = g.phases[0];

    const int used = tile(rs, 0).usedRows;
    // The packed path arrives with its digit planes; the scalar
    // read primitive wants one digit per row.
    if (planes.empty()) {
        auto &digits = part.digits;
        digits.assign(static_cast<std::size_t>(used), 0);
        for (int r = 0; r < used; ++r) {
            const Word x =
                inputs[static_cast<std::size_t>(rs * cfg.rows + r)];
            if (twosComp) {
                digits[static_cast<std::size_t>(r)] = bitOf(x, p);
            } else {
                const std::uint16_t y = static_cast<std::uint16_t>(
                    static_cast<Acc>(x) + kWeightBias);
                digits[static_cast<std::size_t>(r)] =
                    digitOf(static_cast<Word>(y), p * cfg.dacBits,
                            cfg.dacBits);
            }
        }
    }
    // The DAC streams every member phase.
    part.stats.dacActivations +=
        static_cast<std::uint64_t>(used) * g.count;
    const auto repeats = static_cast<std::uint64_t>(g.count - 1);

    for (int cs = 0; cs < _colSegments; ++cs) {
        const auto &t = tile(rs, cs);
        const int dataCols = t.localOutputs * slices;
        auto &tileTally = part.tileAdc[static_cast<std::size_t>(
            rs * _colSegments + cs)];
        const bool checking = cfg.abftChecksum && t.abftOk;

        const EngineStats statsBefore = part.stats;
        const AdcTally tallyBefore = tileTally;
        const resilience::TransientStats trBefore = part.transient;
        Acc unit = 0;
        evalTilePhase(t, dataCols, checking, planes, p, opSeq, part,
                      tileTally, unit);
        if (repeats) {
            // The other members present the same digit vector to the
            // same noise-free array, so their reads would repeat this
            // one exactly: charge each the same counter deltas,
            // including the array's own read cycles.
            const auto rep = [repeats](std::uint64_t now,
                                       std::uint64_t before) {
                return (now - before) * repeats;
            };
            const std::uint64_t reads = rep(part.stats.crossbarReads,
                                            statsBefore.crossbarReads);
            part.stats.crossbarReads += reads;
            part.stats.adcSamples +=
                rep(part.stats.adcSamples, statsBefore.adcSamples);
            tileTally.samples +=
                rep(tileTally.samples, tallyBefore.samples);
            tileTally.clips += rep(tileTally.clips, tallyBefore.clips);
            tileTally.bitCycles +=
                rep(tileTally.bitCycles, tallyBefore.bitCycles);
            auto &tr = part.transient;
            tr.abftChecks += rep(tr.abftChecks, trBefore.abftChecks);
            tr.abftMismatches +=
                rep(tr.abftMismatches, trBefore.abftMismatches);
            tr.abftRetries += rep(tr.abftRetries, trBefore.abftRetries);
            tr.abftRetryCycles +=
                rep(tr.abftRetryCycles, trBefore.abftRetryCycles);
            tr.abftUncorrected +=
                rep(tr.abftUncorrected, trBefore.abftUncorrected);
            t.array->chargeReadCycles(reads);
        }

        for (int i = 0; i < g.count; ++i) {
            mergeTilePhase(t, cs, g.phases[static_cast<std::size_t>(i)],
                           unit, part,
                           twosComp ? std::span<Acc>(part.result)
                                    : std::span<Acc>(part.rawSum),
                           part.unitTotal);
        }
    }
}

void
BitSerialEngine::mergeTilePhase(const ArrayTile &t, int cs, int p,
                                Acc unit, Partial &part,
                                std::span<Acc> acc,
                                Acc &unitTotal) const
{
    const int slices = cfg.slicesPerWeight();
    const int phases = cfg.phases();
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    const auto &colQ = part.colQ;
    for (int o = 0; o < t.localOutputs; ++o) {
        Acc merged = 0;
        for (int s = 0; s < slices; ++s) {
            const int c = o * slices + s;
            merged += colQ[static_cast<std::size_t>(c)] *
                (Acc{1} << (s * cfg.cellBits));
            ++part.stats.shiftAdds;
        }
        const std::size_t k = static_cast<std::size_t>(
            cs * cfg.outputsPerArray() + o);
        if (twosComp) {
            // Remove the weight bias for this phase, then
            // shift-and-add (subtract for the sign bit).
            const Acc v = merged - kWeightBias * unit;
            acc[k] += (p == phases - 1 ? -v : v) * (Acc{1} << p);
        } else {
            acc[k] += merged * (Acc{1} << (p * cfg.dacBits));
        }
        ++part.stats.shiftAdds;
    }
    // unitTotal is a row-side quantity: accumulate it once per
    // (phase, row segment), not per column tile.
    if (!twosComp && cs == 0)
        unitTotal += unit * (Acc{1} << (p * cfg.dacBits));
}

template <typename ReadFn>
void
BitSerialEngine::evalTileAttempts(const ArrayTile &t, int dataCols,
                                  bool checking, Partial &part,
                                  AdcTally &tileTally, Acc &unit,
                                  ReadFn readFn) const
{
    // Read-attempt loop. Each attempt samples the unit column and
    // every mapped data column (spares the remapper left unused are
    // never sampled); with ABFT active the checksum column is
    // sampled too and the quantized total is verified mod 2^w. A
    // mismatch triggers a bounded re-read — every read primitive
    // draws a fresh noise sequence per attempt (readSeq) when read
    // noise is on — and the retry decision depends only on the
    // currents readFn supplies, so every execution path shares this
    // loop and every counter it touches.
    //
    // Resolution law: the unit column converts first at the static
    // per-tile bound (its reading is the sum of this cycle's input
    // digits, unknowable before converting); the data and checksum
    // columns then run at the per-cycle bound the unit certifies —
    // reading <= (2^w - 1) * unit. A fixed policy resolves the full
    // converter width on every conversion (resolutionFor == cap).
    const int cap = adc.bits();
    const bool adaptive = cfg.adcPolicy.isAdaptive();
    const int unitRes = adaptive
        ? cfg.adcPolicy.resolutionFor(
              static_cast<Acc>(t.usedRows) *
                  ((Acc{1} << cfg.dacBits) - 1),
              cap)
        : cap;
    const Acc maxLevel = (Acc{1} << cfg.cellBits) - 1;
    auto &colQ = part.colQ;
    colQ.assign(static_cast<std::size_t>(dataCols), 0);
    for (int attempt = 0;; ++attempt) {
        const std::vector<Acc> &currents = readFn(attempt);
        ++part.stats.crossbarReads;
        unit = adc.quantizeAt(
            currents[static_cast<std::size_t>(
                t.colMap[static_cast<std::size_t>(dataCols)])],
            unitRes, tileTally);
        ++part.stats.adcSamples;
        const int dataRes = adaptive
            ? cfg.adcPolicy.resolutionFor(unit * maxLevel, cap)
            : cap;
        Acc rawTotal = 0;
        for (int c = 0; c < dataCols; ++c) {
            const int phys = t.colMap[static_cast<std::size_t>(c)];
            Acc v = adc.quantizeAt(
                currents[static_cast<std::size_t>(phys)], dataRes,
                tileTally);
            ++part.stats.adcSamples;
            if (t.flipped[static_cast<std::size_t>(c)])
                v = unflipColumnSum(v, unit, cfg.cellBits);
            colQ[static_cast<std::size_t>(c)] = v;
            rawTotal += v;
        }
        if (!checking)
            break;
        Acc s = adc.quantizeAt(
            currents[static_cast<std::size_t>(checksumCol())],
            dataRes, tileTally);
        ++part.stats.adcSamples;
        if (t.checksumFlipped)
            s = unflipColumnSum(s, unit, cfg.cellBits);
        ++part.transient.abftChecks;
        const Acc mod = Acc{1} << cfg.cellBits;
        if (((rawTotal - s) % mod + mod) % mod == 0)
            break;
        if (attempt == 0)
            ++part.transient.abftMismatches;
        if (attempt >= cfg.maxReadRetries) {
            ++part.transient.abftUncorrected;
            break;
        }
        ++part.transient.abftRetries;
        part.transient.abftRetryCycles +=
            static_cast<std::uint64_t>(cfg.retryBackoffCycles)
            << attempt;
    }
}

void
BitSerialEngine::evalTilePhase(const ArrayTile &t, int dataCols,
                               bool checking,
                               std::span<const std::uint64_t> planes,
                               int p, std::uint64_t opSeq,
                               Partial &part, AdcTally &tileTally,
                               Acc &unit) const
{
    if (!planes.empty()) {
        // The packed read yields the noise-free sums; the attempt's
        // draws land on exactly the columns the ladder samples, which
        // is all a scalar read's draws are observed through.
        const bool noisy = cfg.noise.readNoiseEnabled();
        evalTileAttempts(
            t, dataCols, checking, part, tileTally, unit,
            [&](int attempt) -> const std::vector<Acc> & {
                t.array->readAllBitlinesPacked(planes, cfg.dacBits,
                                               part.currents);
                if (noisy) {
                    addReadNoise(t, dataCols, checking,
                                 readSeq(opSeq, p, attempt),
                                 part.currents);
                }
                return part.currents;
            });
    } else {
        evalTileAttempts(
            t, dataCols, checking, part, tileTally, unit,
            [&](int attempt) -> const std::vector<Acc> & {
                t.array->readAllBitlinesInto(
                    part.digits, readSeq(opSeq, p, attempt), opSeq,
                    part.currents);
                return part.currents;
            });
    }
}

std::vector<Acc>
BitSerialEngine::dotProduct(std::span<const Word> inputs) const
{
    if (inputs.size() != static_cast<std::size_t>(_numInputs))
        fatal("BitSerialEngine::dotProduct: wrong input length");
    return dotProductAt(
        inputs, _opSeq.fetch_add(1, std::memory_order_relaxed));
}

std::vector<Acc>
BitSerialEngine::dotProductAt(std::span<const Word> inputs,
                              std::uint64_t opSeq) const
{
    const int phases = cfg.phases();
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;

    // Stage the digit planes once per row segment (fast path) and
    // group phases: on a clean packed engine every phase whose digit
    // vector equals an earlier one's shares that phase's tile
    // readings, which is common — sign-extended small activations
    // repeat their high phases, and ReLU'd ones present all-zero
    // vectors there. Read noise draws per (op, phase), so noisy reads
    // never share, and the scalar path keeps one group per phase.
    const bool fast = fastPathActive();
    const bool share = fast && !cfg.noise.readNoiseEnabled();
    const auto phaseWords =
        static_cast<std::size_t>(cfg.dacBits) * ((cfg.rows + 63) / 64);
    std::vector<std::vector<std::uint64_t>> planes(
        static_cast<std::size_t>(fast ? _rowSegments : 0));
    std::vector<PhaseGroup> groups;
    groups.reserve(static_cast<std::size_t>(phases) * _rowSegments);
    for (int rs = 0; rs < _rowSegments; ++rs) {
        const std::size_t firstGroup = groups.size();
        const std::uint64_t *dig = nullptr;
        if (fast) {
            auto &mine = planes[static_cast<std::size_t>(rs)];
            packBitPlanesBatch(inputs, 0, 1, rs, tile(rs, 0).usedRows,
                               mine);
            dig = mine.data();
        }
        const auto slice = [&](int p) {
            return dig + static_cast<std::size_t>(p) * phaseWords;
        };
        for (int p = 0; p < phases; ++p) {
            auto g = std::find_if(
                groups.begin() + static_cast<std::ptrdiff_t>(firstGroup),
                groups.end(), [&](const PhaseGroup &h) {
                    return share &&
                        std::equal(slice(p), slice(p) + phaseWords,
                                   slice(h.phases[0]));
                });
            if (g == groups.end())
                g = groups.insert(groups.end(), PhaseGroup{rs});
            g->phases[static_cast<std::size_t>(g->count++)] = p;
        }
    }

    // One task per phase group; partial sums, stats, and ADC tallies
    // land in per-worker accumulators. 64-bit integer addition is
    // associative, so any partitioning merges to the exact serial
    // result.
    const auto tasks = static_cast<std::int64_t>(groups.size());
    const int workers = parallelWorkers(cfg.threads, tasks);
    std::vector<Partial> parts(static_cast<std::size_t>(workers));
    for (auto &part : parts) {
        part.result.assign(static_cast<std::size_t>(_numOutputs), 0);
        if (!twosComp)
            part.rawSum.assign(static_cast<std::size_t>(_numOutputs),
                               0);
        part.tileAdc.assign(tiles.size(), AdcTally{});
    }

    parallelFor(tasks, cfg.threads, [&](std::int64_t task, int w) {
        const auto &g = groups[static_cast<std::size_t>(task)];
        std::span<const std::uint64_t> gPlanes;
        if (fast) {
            gPlanes = std::span(planes[static_cast<std::size_t>(g.rs)])
                          .subspan(static_cast<std::size_t>(g.phases[0]) *
                                       phaseWords,
                                   phaseWords);
        }
        runPhaseGroup(inputs, g, gPlanes, opSeq,
                      parts[static_cast<std::size_t>(w)]);
    });

    // Merge the per-worker partials (slot order; the sums are
    // order-insensitive anyway).
    std::vector<Acc> result(std::move(parts[0].result));
    std::vector<Acc> rawSum(std::move(parts[0].rawSum));
    Acc unitTotal = parts[0].unitTotal;
    EngineStats delta = parts[0].stats;
    resilience::TransientStats transientDelta = parts[0].transient;
    std::vector<AdcTally> tileTally(std::move(parts[0].tileAdc));
    for (std::size_t w = 1; w < parts.size(); ++w) {
        const auto &part = parts[w];
        transientDelta.merge(part.transient);
        for (int k = 0; k < _numOutputs; ++k)
            result[static_cast<std::size_t>(k)] +=
                part.result[static_cast<std::size_t>(k)];
        if (!twosComp) {
            for (int k = 0; k < _numOutputs; ++k)
                rawSum[static_cast<std::size_t>(k)] +=
                    part.rawSum[static_cast<std::size_t>(k)];
        }
        unitTotal += part.unitTotal;
        delta.crossbarReads += part.stats.crossbarReads;
        delta.adcSamples += part.stats.adcSamples;
        delta.shiftAdds += part.stats.shiftAdds;
        delta.dacActivations += part.stats.dacActivations;
        for (std::size_t i = 0; i < tileTally.size(); ++i)
            tileTally[i].merge(part.tileAdc[i]);
    }
    AdcTally tally;
    for (const auto &t : tileTally)
        tally.merge(t);

    if (!twosComp) {
        // sum(x*w) = sum(y*u) - B*sum(y) - B*sum(u) + R*B^2 with
        // y = x + B, u = w + B (Sec. V's bias, applied to both
        // operands).
        Acc totalUsedRows = 0;
        for (int rs = 0; rs < _rowSegments; ++rs)
            totalUsedRows += tile(rs, 0).usedRows;
        for (int k = 0; k < _numOutputs; ++k) {
            Acc sumU = 0;
            const int cs = k / cfg.outputsPerArray();
            const int o = k % cfg.outputsPerArray();
            for (int rs = 0; rs < _rowSegments; ++rs)
                sumU += tile(rs, cs)
                            .sumBiased[static_cast<std::size_t>(o)];
            result[static_cast<std::size_t>(k)] =
                rawSum[static_cast<std::size_t>(k)] -
                kWeightBias * unitTotal - kWeightBias * sumU +
                totalUsedRows * kWeightBias * kWeightBias;
        }
    }

    // Drift refresh policy: after every refreshIntervalOps
    // operations, every array is re-verified against its stored
    // levels (the read-path drift model already treats refreshed
    // cells as exact — see CrossbarArray::effectiveLevel — so the
    // pass is pure accounting: one pulse per programmed cell,
    // charged to the WriteModel by the callers that price energy).
    // Keyed by opSeq, so any call interleaving charges identically.
    if (cfg.noise.driftEnabled() && cfg.noise.refreshIntervalOps &&
        (opSeq + 1) % cfg.noise.refreshIntervalOps == 0) {
        for (const auto &t : tiles) {
            ++transientDelta.driftRefreshes;
            transientDelta.refreshPulses += static_cast<std::uint64_t>(
                t.array->programmedCells());
        }
    }

    adc.addTally(tally);
    publishDelta(1, delta, tally, transientDelta, tileTally);
    return result;
}

void
BitSerialEngine::packBitPlanesBatch(
    std::span<const Word> inputs, int first, int n, int rs, int used,
    std::vector<std::uint64_t> &dig) const
{
    const int words = (cfg.rows + 63) / 64;
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    dig.assign(static_cast<std::size_t>(kDataBits) * words * n, 0);
    // Distance between bit-plane b and b + 1 in the matrix.
    const std::size_t planeStride =
        static_cast<std::size_t>(words) * n;
    for (int i = 0; i < n; ++i) {
        const Word *x = inputs.data() +
            static_cast<std::size_t>(first + i) * _numInputs +
            static_cast<std::size_t>(rs) * cfg.rows;
        for (int r = 0; r < used; ++r) {
            // The streamed 16-bit value: raw two's-complement bits
            // (bitOf semantics) or the biased x + 2^15 (digitOf on
            // the biased value); either way bit b lands in plane b.
            unsigned y = twosComp
                ? static_cast<std::uint16_t>(x[r])
                : static_cast<std::uint16_t>(static_cast<Acc>(x[r]) +
                                             kWeightBias);
            if (!y)
                continue;
            const std::uint64_t bit = std::uint64_t{1} << (r & 63);
            std::uint64_t *base = dig.data() +
                static_cast<std::size_t>(r >> 6) * n + i;
            // Scatter the set bits (ctz walk: no per-plane branch
            // mispredictions, and sign-extended small activations
            // skip their all-zero planes for free).
            do {
                const int b = std::countr_zero(y);
                y &= y - 1;
                base[static_cast<std::size_t>(b) * planeStride] |=
                    bit;
            } while (y);
        }
    }
}

void
BitSerialEngine::runBatchBlock(std::span<const Word> inputs,
                               int first, int n,
                               std::uint64_t firstOp,
                               std::span<Acc> out, Acc *unitTotals,
                               Partial &part) const
{
    const int slices = cfg.slicesPerWeight();
    const int phases = cfg.phases();
    const int words = (cfg.rows + 63) / 64;
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    const bool noisy = cfg.noise.readNoiseEnabled();
    std::vector<std::uint64_t> dig;
    std::vector<Acc> curMat;
    Acc dummyUnitTotal = 0;
    // Column-major output accumulator (batchAcc[k * n + i]): the
    // vectorized digital pass adds into contiguous window runs and
    // one transpose at the end lands the block in `out`. ABFT tiles
    // merge straight into `out` instead; mixing is fine because both
    // only ever add.
    auto &batchAcc = part.batchAcc;
    batchAcc.assign(static_cast<std::size_t>(_numOutputs) * n, 0);
    auto &units = part.unitsBatch;
    auto &merged = part.mergedBatch;
    const Acc maxCode = adc.maxCode();
    const int cap = adc.bits();
    const bool adaptive = cfg.adcPolicy.isAdaptive();
    const Acc maxLevel = (Acc{1} << cfg.cellBits) - 1;
    // Clamped-ladder scratch: per-window data-column code ceilings
    // (all maxCode under a fixed policy; derived from the quantized
    // unit under an adaptive one, mirroring evalTileAttempts).
    std::vector<Acc> dataCeil;
    // Clip feasibility, decided once per tile per block: when even
    // the all-ones digit pattern cannot push any column past the ADC
    // ceiling — the common case; the flip encoding exists to
    // guarantee it for clean weights — quantize() is the identity on
    // every reading of the tile and the digital pass can skip
    // clamping entirely. Stuck-at-high cells can break the bound
    // (maxPackedReading reads the *stored* levels, so they are
    // counted), in which case the tile takes the clamped ladder. So
    // does every tile under read noise: a draw can lift any reading
    // past the bound.
    std::vector<char> mayClip(tiles.size(), 1);
    for (std::size_t ti = 0; ti < tiles.size() && !noisy; ++ti) {
        mayClip[ti] =
            tiles[ti].array->maxPackedReading(cfg.dacBits) > maxCode;
    }
    const std::size_t phaseStride =
        static_cast<std::size_t>(cfg.dacBits) * words * n;
    for (int rs = 0; rs < _rowSegments; ++rs) {
        const int used = tile(rs, 0).usedRows;
        // One pass over the block's inputs packs every phase's
        // planes (phase p consumes the slice at bit p * dacBits);
        // the DAC still streams every phase, so its activations are
        // charged for all of them here.
        packBitPlanesBatch(inputs, first, n, rs, used, dig);
        part.stats.dacActivations +=
            static_cast<std::uint64_t>(used) * n * phases;
        for (int p = 0; p < phases; ++p) {
            const std::span<const std::uint64_t> digP(
                dig.data() + static_cast<std::size_t>(p) * phaseStride,
                phaseStride);
            for (int cs = 0; cs < _colSegments; ++cs) {
                const auto &t = tile(rs, cs);
                const int dataCols = t.localOutputs * slices;
                const int physCols = t.array->cols();
                const std::size_t ti =
                    static_cast<std::size_t>(rs * _colSegments + cs);
                auto &tileTally = part.tileAdc[ti];
                const bool checking = cfg.abftChecksum && t.abftOk;
                t.array->readAllBitlinesPackedBatch(digP, cfg.dacBits,
                                                    n, curMat);
                if (checking) {
                    // ABFT tiles keep the shared per-window attempt
                    // ladder (retries and their counters must match
                    // a sequential run exactly).
                    for (int i = 0; i < n; ++i) {
                        Acc unit = 0;
                        evalTileAttempts(
                            t, dataCols, checking, part, tileTally,
                            unit,
                            [&](int attempt)
                                -> const std::vector<Acc> & {
                                // The currents are the window's GEMM
                                // column, gathered once when clean
                                // (attempts then repeat it) and per
                                // attempt under read noise, which
                                // draws afresh for every attempt.
                                // Every attempt charges its read
                                // cycle so readCycles() matches a
                                // per-window run under ABFT retries.
                                if (attempt == 0 || noisy) {
                                    part.currents.resize(
                                        static_cast<std::size_t>(
                                            physCols));
                                    for (int c = 0; c < physCols; ++c)
                                        part.currents[static_cast<
                                            std::size_t>(c)] =
                                            curMat[static_cast<
                                                       std::size_t>(
                                                       c) *
                                                       n +
                                                   i];
                                }
                                if (noisy) {
                                    addReadNoise(
                                        t, dataCols, checking,
                                        readSeq(firstOp + static_cast<
                                                    std::uint64_t>(i),
                                                p, attempt),
                                        part.currents);
                                }
                                t.array->chargeReadCycles(1);
                                return part.currents;
                            });
                        const std::size_t base =
                            static_cast<std::size_t>(first + i) *
                            _numOutputs;
                        mergeTilePhase(
                            t, cs, p, unit, part,
                            out.subspan(base,
                                        static_cast<std::size_t>(
                                            _numOutputs)),
                            unitTotals ? unitTotals[first + i]
                                       : dummyUnitTotal);
                    }
                    continue;
                }
                // Unchecked tiles: one vectorized column-major
                // digital pass over the GEMM matrix, bit-identical
                // to n trips through evalTileAttempts (single
                // attempt) + mergeTilePhase. The window index is the
                // contiguous dimension, so every inner loop below is
                // a straight-line sweep the compiler vectorizes.
                // Counters are commutative sums, charged in bulk:
                part.stats.crossbarReads +=
                    static_cast<std::uint64_t>(n);
                part.stats.adcSamples +=
                    static_cast<std::uint64_t>(dataCols + 1) * n;
                tileTally.samples +=
                    static_cast<std::uint64_t>(dataCols + 1) * n;
                if (!adaptive) {
                    // Fixed policy: every conversion runs the full
                    // SAR ladder, so the cycle count is a closed
                    // form. Adaptive tiles charge per window below
                    // (the resolution depends on each unit reading).
                    tileTally.bitCycles +=
                        static_cast<std::uint64_t>(dataCols + 1) * n *
                        static_cast<std::uint64_t>(cap);
                }
                t.array->chargeReadCycles(n);
                part.stats.shiftAdds +=
                    static_cast<std::uint64_t>(n) * t.localOutputs *
                    (slices + 1);
                if (noisy) {
                    // The single attempt's draws, in place: column
                    // rows of the GEMM matrix are contiguous, and
                    // window i's draw is keyed by its own op number.
                    forEachSampledColumn(
                        t, dataCols, false, [&](int c) {
                            Acc *row = curMat.data() +
                                static_cast<std::size_t>(c) * n;
                            for (int i = 0; i < n; ++i) {
                                row[i] = t.array->applyReadNoise(
                                    row[i],
                                    readSeq(firstOp +
                                                static_cast<
                                                    std::uint64_t>(i),
                                            p, 0),
                                    c);
                            }
                        });
                }
                const Acc *unitRow = curMat.data() +
                    static_cast<std::size_t>(t.colMap[static_cast<
                        std::size_t>(dataCols)]) * n;
                if (!mayClip[ti]) {
                    if (adaptive) {
                        // The adaptive ceilings cover every clean
                        // reading whenever the fixed ones do (the
                        // unit-certified bound dominates the data
                        // readings, and the capped case falls back
                        // to maxCode — see evalTileAttempts), so the
                        // merge below stays bit-identical; only the
                        // realized comparator cycles differ.
                        const int unitRes = cfg.adcPolicy.resolutionFor(
                            static_cast<Acc>(t.usedRows) *
                                ((Acc{1} << cfg.dacBits) - 1),
                            cap);
                        std::uint64_t cycles = 0;
                        for (int i = 0; i < n; ++i) {
                            cycles += static_cast<std::uint64_t>(
                                unitRes +
                                dataCols *
                                    cfg.adcPolicy.resolutionFor(
                                        unitRow[i] * maxLevel, cap));
                        }
                        tileTally.bitCycles += cycles;
                    }
                    // Clip-free merge: quantize() is the identity on
                    // every reading of this tile (per the bound
                    // above), so the slices fold straight into the
                    // column-major accumulator as power-of-two
                    // shift/add rows through the kernel's vector
                    // tiers, and the unit column needs no clamped
                    // copy.
                    static_assert(kWeightBias == Acc{1} << 15,
                                  "bias-removal shift assumes the "
                                  "2^15 weight bias");
                    const int phShift =
                        twosComp ? p : p * cfg.dacBits;
                    const bool neg = twosComp && p == phases - 1;
                    for (int o = 0; o < t.localOutputs; ++o) {
                        Acc *accRow = batchAcc.data() +
                            static_cast<std::size_t>(
                                cs * cfg.outputsPerArray() + o) *
                                n;
                        for (int s = 0; s < slices; ++s) {
                            const int c = o * slices + s;
                            const Acc *row = curMat.data() +
                                static_cast<std::size_t>(
                                    t.colMap[static_cast<
                                        std::size_t>(c)]) *
                                    n;
                            const int shift =
                                s * cfg.cellBits + phShift;
                            if (t.flipped[static_cast<std::size_t>(
                                    c)]) {
                                kernel::scaleAddFlipped(
                                    accRow, row, unitRow,
                                    cfg.cellBits, shift, neg, n);
                            } else {
                                kernel::scaleAdd(accRow, row, shift,
                                                 neg, n);
                            }
                        }
                        if (twosComp) {
                            // Remove the per-phase weight bias:
                            // -sign * (unit << 15) << p.
                            kernel::scaleAdd(accRow, unitRow, 15 + p,
                                             !neg, n);
                        }
                    }
                    if (!twosComp && cs == 0 && unitTotals) {
                        kernel::scaleAdd(unitTotals + first, unitRow,
                                         p * cfg.dacBits, false, n);
                    }
                    continue;
                }
                // Clamped fallback (a stuck-at-high column or a noise
                // draw can push readings past the ADC ceiling): the
                // scalar ladder, clip counting included.
                std::uint64_t clips = 0;
                // Unit column first (quantize clamp order matches the
                // scalar ladder; a packed read can never go negative
                // and read noise clamps at 0, so quantize()'s one
                // panic case never arises). Under an adaptive policy
                // the unit converts at the tile's static-bound
                // resolution and each window's data columns clamp at
                // the ceiling its quantized unit certifies, exactly
                // as evalTileAttempts does.
                const int unitRes = adaptive
                    ? cfg.adcPolicy.resolutionFor(
                          static_cast<Acc>(t.usedRows) *
                              ((Acc{1} << cfg.dacBits) - 1),
                          cap)
                    : cap;
                const Acc unitCeil = (Acc{1} << unitRes) - 1;
                units.resize(static_cast<std::size_t>(n));
                dataCeil.assign(static_cast<std::size_t>(n), maxCode);
                std::uint64_t cycles = 0;
                for (int i = 0; i < n; ++i) {
                    const Acc u = unitRow[i];
                    clips += static_cast<std::uint64_t>(u > unitCeil);
                    const Acc uq = u > unitCeil ? unitCeil : u;
                    units[static_cast<std::size_t>(i)] = uq;
                    if (adaptive) {
                        const int res = cfg.adcPolicy.resolutionFor(
                            uq * maxLevel, cap);
                        dataCeil[static_cast<std::size_t>(i)] =
                            (Acc{1} << res) - 1;
                        cycles += static_cast<std::uint64_t>(
                            unitRes + dataCols * res);
                    }
                }
                if (adaptive)
                    tileTally.bitCycles += cycles;
                merged.resize(static_cast<std::size_t>(n));
                const Acc full = (Acc{1} << cfg.cellBits) - 1;
                for (int o = 0; o < t.localOutputs; ++o) {
                    std::fill(merged.begin(), merged.end(), Acc{0});
                    for (int s = 0; s < slices; ++s) {
                        const int c = o * slices + s;
                        const Acc *row = curMat.data() +
                            static_cast<std::size_t>(
                                t.colMap[static_cast<std::size_t>(
                                    c)]) * n;
                        const Acc w = Acc{1} << (s * cfg.cellBits);
                        if (t.flipped[static_cast<std::size_t>(c)]) {
                            for (int i = 0; i < n; ++i) {
                                const Acc lim = dataCeil[
                                    static_cast<std::size_t>(i)];
                                Acc v = row[i];
                                clips += static_cast<std::uint64_t>(
                                    v > lim);
                                v = v > lim ? lim : v;
                                v = full *
                                        units[static_cast<
                                            std::size_t>(i)] -
                                    v;
                                merged[static_cast<std::size_t>(i)] +=
                                    v * w;
                            }
                        } else {
                            for (int i = 0; i < n; ++i) {
                                const Acc lim = dataCeil[
                                    static_cast<std::size_t>(i)];
                                Acc v = row[i];
                                clips += static_cast<std::uint64_t>(
                                    v > lim);
                                v = v > lim ? lim : v;
                                merged[static_cast<std::size_t>(i)] +=
                                    v * w;
                            }
                        }
                    }
                    const std::size_t k = static_cast<std::size_t>(
                        cs * cfg.outputsPerArray() + o);
                    Acc *accRow = batchAcc.data() + k * n;
                    if (twosComp) {
                        const Acc ph = Acc{1} << p;
                        const Acc sign = p == phases - 1 ? -1 : 1;
                        for (int i = 0; i < n; ++i) {
                            accRow[i] += sign *
                                (merged[static_cast<std::size_t>(i)] -
                                 kWeightBias *
                                     units[static_cast<std::size_t>(
                                         i)]) *
                                ph;
                        }
                    } else {
                        const Acc ph = Acc{1} << (p * cfg.dacBits);
                        for (int i = 0; i < n; ++i)
                            accRow[i] +=
                                merged[static_cast<std::size_t>(i)] *
                                ph;
                    }
                }
                tileTally.clips += clips;
                if (!twosComp && cs == 0 && unitTotals) {
                    const Acc ph = Acc{1} << (p * cfg.dacBits);
                    for (int i = 0; i < n; ++i)
                        unitTotals[first + i] +=
                            units[static_cast<std::size_t>(i)] * ph;
                }
            }
        }
    }
    // Land the column-major accumulator in the windows' out slices.
    for (int i = 0; i < n; ++i) {
        Acc *row = out.data() +
            static_cast<std::size_t>(first + i) * _numOutputs;
        for (int k = 0; k < _numOutputs; ++k)
            row[k] +=
                batchAcc[static_cast<std::size_t>(k) * n + i];
    }
}

std::vector<Acc>
BitSerialEngine::dotProductBatch(std::span<const Word> inputs,
                                 int count) const
{
    if (count < 0 ||
        inputs.size() !=
            static_cast<std::size_t>(count) * _numInputs) {
        fatal("BitSerialEngine::dotProductBatch: input span does not "
              "hold count x numInputs words");
    }
    std::vector<Acc> out(
        static_cast<std::size_t>(count) * _numOutputs, 0);
    if (count == 0)
        return out;
    // Claim the op-sequence range `count` dotProduct() calls would;
    // window i runs as op opSeq0 + i on every path, so its noise and
    // drift realization is the sequential caller's whatever the
    // thread count, and later calls observe the same sequence.
    const std::uint64_t opSeq0 = _opSeq.fetch_add(
        static_cast<std::uint64_t>(count), std::memory_order_relaxed);
    if (!fastPathActive()) {
        // Drifting / fault-injected / scalar-oracle engines: each
        // window is one dotProduct() under its claimed op number.
        parallelFor(count, cfg.threads, [&](std::int64_t i, int) {
            const auto r = dotProductAt(
                inputs.subspan(static_cast<std::size_t>(i) * _numInputs,
                               static_cast<std::size_t>(_numInputs)),
                opSeq0 + static_cast<std::uint64_t>(i));
            std::copy(r.begin(), r.end(),
                      out.begin() +
                          static_cast<std::size_t>(i) * _numOutputs);
        });
        return out;
    }

    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;

    // One task per contiguous window block. A block owns its windows
    // end to end — their result slices and unit totals are written
    // by exactly one worker — so only the commutative counters go
    // through per-worker Partials. The block size balances SIMD row
    // length against load balance; results and counters are
    // independent of it (and of the thread count).
    const int blockSize = std::clamp(
        static_cast<int>(
            ceilDiv(static_cast<std::int64_t>(count),
                    static_cast<std::int64_t>(
                        parallelWorkers(cfg.threads, count)))),
        8, 256);
    const auto blocks = static_cast<std::int64_t>(
        ceilDiv(count, blockSize));
    const int workers = parallelWorkers(cfg.threads, blocks);
    std::vector<Partial> parts(static_cast<std::size_t>(workers));
    for (auto &part : parts)
        part.tileAdc.assign(tiles.size(), AdcTally{});
    std::vector<Acc> unitTotals;
    if (!twosComp)
        unitTotals.assign(static_cast<std::size_t>(count), 0);

    parallelFor(blocks, cfg.threads, [&](std::int64_t blk, int w) {
        const int first = static_cast<int>(blk) * blockSize;
        runBatchBlock(inputs, first,
                      std::min(blockSize, count - first),
                      opSeq0 + static_cast<std::uint64_t>(first),
                      std::span<Acc>(out),
                      twosComp ? nullptr : unitTotals.data(),
                      parts[static_cast<std::size_t>(w)]);
    });

    EngineStats delta = parts[0].stats;
    resilience::TransientStats transientDelta = parts[0].transient;
    std::vector<AdcTally> tileTally(std::move(parts[0].tileAdc));
    for (std::size_t w = 1; w < parts.size(); ++w) {
        const auto &part = parts[w];
        transientDelta.merge(part.transient);
        delta.crossbarReads += part.stats.crossbarReads;
        delta.adcSamples += part.stats.adcSamples;
        delta.shiftAdds += part.stats.shiftAdds;
        delta.dacActivations += part.stats.dacActivations;
        for (std::size_t i = 0; i < tileTally.size(); ++i)
            tileTally[i].merge(part.tileAdc[i]);
    }
    AdcTally tally;
    for (const auto &t : tileTally)
        tally.merge(t);

    if (!twosComp) {
        // The same bias inversion dotProduct() applies, per window
        // (sum(x*w) = sum(y*u) - B*sum(y) - B*sum(u) + R*B^2).
        Acc totalUsedRows = 0;
        for (int rs = 0; rs < _rowSegments; ++rs)
            totalUsedRows += tile(rs, 0).usedRows;
        std::vector<Acc> sumU(static_cast<std::size_t>(_numOutputs));
        for (int k = 0; k < _numOutputs; ++k) {
            const int cs = k / cfg.outputsPerArray();
            const int o = k % cfg.outputsPerArray();
            Acc s = 0;
            for (int rs = 0; rs < _rowSegments; ++rs)
                s += tile(rs, cs)
                         .sumBiased[static_cast<std::size_t>(o)];
            sumU[static_cast<std::size_t>(k)] = s;
        }
        for (int i = 0; i < count; ++i) {
            Acc *row =
                out.data() + static_cast<std::size_t>(i) * _numOutputs;
            for (int k = 0; k < _numOutputs; ++k) {
                row[k] = row[k] -
                    kWeightBias *
                        unitTotals[static_cast<std::size_t>(i)] -
                    kWeightBias * sumU[static_cast<std::size_t>(k)] +
                    totalUsedRows * kWeightBias * kWeightBias;
            }
        }
    }

    // fastPathActive() implies drift is disabled, so the periodic
    // refresh accounting dotProduct() performs can never trigger.
    adc.addTally(tally);
    publishDelta(static_cast<std::uint64_t>(count), delta, tally,
                 transientDelta, tileTally);
    return out;
}

int
BitSerialEngine::physicalArrays() const
{
    return _rowSegments * _colSegments;
}

void
BitSerialEngine::publishDelta(
    std::uint64_t ops, const EngineStats &delta,
    const AdcTally &total, const resilience::TransientStats &tr,
    std::span<const AdcTally> tileTally) const
{
    // Flatten the finished call's counters into the log layout and
    // publish them as one epoch. The delta lives entirely in
    // caller-owned scratch, so this is the only point where the call
    // touches shared state — and it touches only this thread's slot.
    std::vector<std::uint64_t> flat(_log.counters(), 0);
    flat[0] = ops;
    flat[1] = delta.crossbarReads;
    flat[2] = delta.adcSamples;
    flat[3] = total.clips;
    flat[4] = delta.shiftAdds;
    flat[5] = delta.dacActivations;
    flat[6] = total.bitCycles;
    std::uint64_t *t = flat.data() + kLogEngineFields;
    t[0] = tr.abftChecks;
    t[1] = tr.abftMismatches;
    t[2] = tr.abftRetries;
    t[3] = tr.abftRetryCycles;
    t[4] = tr.abftUncorrected;
    t[5] = tr.abftDisabledTiles;
    t[6] = tr.driftRefreshes;
    t[7] = tr.refreshPulses;
    t[8] = tr.eccWords;
    t[9] = tr.eccBitFlips;
    t[10] = tr.eccSingles;
    t[11] = tr.eccDoubles;
    t[12] = tr.eccRecomputedWords;
    t[13] = tr.eccRecomputeCycles;
    t[14] = tr.packetsSent;
    t[15] = tr.packetsCorrupted;
    t[16] = tr.packetsRetransmitted;
    t[17] = tr.packetBackoffCycles;
    t[18] = tr.packetsUncorrected;
    t[19] = tr.deadLinks;
    for (std::size_t i = 0; i < tileTally.size(); ++i) {
        const std::size_t base = kLogTileBase + kLogTileStride * i;
        flat[base] = tileTally[i].samples;
        flat[base + 1] = tileTally[i].clips;
        flat[base + 2] = tileTally[i].bitCycles;
    }
    _log.publish(flat);
}

void
BitSerialEngine::foldLocked() const
{
    _log.fold(_foldCursor, _folded);
}

EngineStats
BitSerialEngine::stats() const
{
    std::lock_guard<std::mutex> lock(_foldMutex);
    foldLocked();
    EngineStats s;
    s.ops = _folded[0];
    s.crossbarReads = _folded[1];
    s.adcSamples = _folded[2];
    s.adcClips = _folded[3];
    s.shiftAdds = _folded[4];
    s.dacActivations = _folded[5];
    s.adcBitCycles = _folded[6];
    return s;
}

void
BitSerialEngine::resetStats()
{
    {
        // Rewind the epoch log and the reader-side cursor together.
        // The caller guarantees no dotProduct() is in flight (same
        // contract as reprogram), so reset() observes no half-
        // published epochs; dropping the cursor forgets the cached
        // pre-reset snapshots outright.
        std::lock_guard<std::mutex> lock(_foldMutex);
        _log.reset();
        _foldCursor = EpochLog::Cursor{};
        std::fill(_folded.begin(), _folded.end(), std::uint64_t{0});
    }
    adc.resetStats();
    for (auto &t : tiles)
        t.array->resetStats();
    // Rewind the op counter so a replayed workload draws the same
    // noise/drift/retry realization a fresh engine would (the arrays
    // rewind their own sequences above).
    _opSeq.store(0, std::memory_order_relaxed);
}

void
BitSerialEngine::advanceOpClock(std::uint64_t ops)
{
    _opSeq.fetch_add(ops, std::memory_order_relaxed);
}

std::uint64_t
BitSerialEngine::adcClips() const
{
    return adc.clips();
}

std::uint64_t
BitSerialEngine::readCycles() const
{
    std::uint64_t cycles = 0;
    for (const auto &t : tiles)
        cycles += t.array->readCycles();
    return cycles;
}

double
BitSerialEngine::cellUtilization() const
{
    const double perArray = static_cast<double>(cfg.rows) *
        (cfg.cols + cfg.spareCols + 1 + (cfg.abftChecksum ? 1 : 0));
    double used = 0;
    for (const auto &t : tiles) {
        used += static_cast<double>(t.usedRows) *
            (t.localOutputs * cfg.slicesPerWeight() + 1);
    }
    return used / (perArray * static_cast<double>(tiles.size()));
}

resilience::ArrayFaultReport
BitSerialEngine::faultReport() const
{
    resilience::ArrayFaultReport report;
    for (int rs = 0; rs < _rowSegments; ++rs)
        for (int cs = 0; cs < _colSegments; ++cs)
            report.merge(tileFaultReport(rs, cs));
    return report;
}

resilience::ArrayFaultReport
BitSerialEngine::tileFaultReport(int rs, int cs) const
{
    const auto &t = tile(rs, cs);
    resilience::ArrayFaultReport report;
    report.stuckCells = t.array->stuckCells();
    report.faultyCells = t.faults.count();
    report.remappedColumns = t.remappedColumns;
    report.uncorrectableCells = t.uncorrectableCells;
    report.programPulses =
        static_cast<std::int64_t>(t.array->programPulses());
    return report;
}

const resilience::FaultMap &
BitSerialEngine::faultMap(int rs, int cs) const
{
    return tile(rs, cs).faults;
}

AdcTally
BitSerialEngine::tileAdcTally(int rs, int cs) const
{
    const std::size_t i =
        static_cast<std::size_t>(rs) * _colSegments + cs;
    std::lock_guard<std::mutex> lock(_foldMutex);
    foldLocked();
    AdcTally tally;
    const std::size_t base = kLogTileBase + kLogTileStride * i;
    tally.samples = _folded[base];
    tally.clips = _folded[base + 1];
    tally.bitCycles = _folded[base + 2];
    return tally;
}

std::uint64_t
BitSerialEngine::programPulses() const
{
    std::uint64_t pulses = 0;
    for (const auto &t : tiles)
        pulses += t.array->programPulses();
    return pulses;
}

resilience::TransientStats
BitSerialEngine::transientStats() const
{
    resilience::TransientStats out;
    {
        std::lock_guard<std::mutex> lock(_foldMutex);
        foldLocked();
        const std::uint64_t *t = _folded.data() + kLogEngineFields;
        out.abftChecks = t[0];
        out.abftMismatches = t[1];
        out.abftRetries = t[2];
        out.abftRetryCycles = t[3];
        out.abftUncorrected = t[4];
        out.abftDisabledTiles = t[5];
        out.driftRefreshes = t[6];
        out.refreshPulses = t[7];
        out.eccWords = t[8];
        out.eccBitFlips = t[9];
        out.eccSingles = t[10];
        out.eccDoubles = t[11];
        out.eccRecomputedWords = t[12];
        out.eccRecomputeCycles = t[13];
        out.packetsSent = t[14];
        out.packetsCorrupted = t[15];
        out.packetsRetransmitted = t[16];
        out.packetBackoffCycles = t[17];
        out.packetsUncorrected = t[18];
        out.deadLinks = t[19];
    }
    // Disabled-tile count is structural (like the fault census), so
    // it is derived from the live tile state rather than accumulated.
    if (cfg.abftChecksum) {
        for (const auto &t : tiles)
            out.abftDisabledTiles += !t.abftOk;
    }
    return out;
}

void
BitSerialEngine::injectCellFault(int rs, int cs, int row, int col,
                                 int level)
{
    if (rs < 0 || rs >= _rowSegments || cs < 0 || cs >= _colSegments)
        fatal("BitSerialEngine::injectCellFault: tile out of range");
    auto &t = tile(rs, cs);
    t.array->forceStuck(row, col, level);
    // Stored levels no longer match what programming left behind, so
    // the packed fast path stands down — the campaign tests rely on the scalar path re-observing the
    // corrupted cell on every subsequent read. The per-tile taint
    // lets repairTile() re-arm the fast path once the last injured
    // tile is rebuilt.
    t.tainted = true;
    _injected.store(true, std::memory_order_relaxed);
}

TileRepairReport
BitSerialEngine::repairTile(int rs, int cs)
{
    if (rs < 0 || rs >= _rowSegments || cs < 0 || cs >= _colSegments)
        fatal("BitSerialEngine::repairTile: tile out of range");
    if (cfg.noise.writeNoiseEnabled()) {
        fatal("BitSerialEngine::repairTile: the march test cannot "
              "distinguish transient write errors from permanent "
              "faults; online repair requires writeSigmaLevels = 0");
    }
    ArrayTile &t = tile(rs, cs);
    TileRepairReport report;

    // Quarantined march: exercise every cell at both rails to census
    // the tile's current permanent faults. Destructive (the array
    // ends all-max), but the tile is rebuilt just below from the
    // intended levels the programming pass retained, so nothing is
    // lost.
    const auto marched = resilience::extractFaultMap(*t.array);
    report.faultsFound = marched.count();

    // Fresh content-aware placement against the new fault set — the
    // same preferred/spare layout the first programming pass used.
    // Columns whose preferred physical column went bad migrate onto
    // spares; when spares run out the least-bad column stays and its
    // mismatches surface as uncorrectableCells for the caller's
    // degradation decision.
    const int slices = cfg.slicesPerWeight();
    const int dataCols = t.localOutputs * slices;
    const int logicalCols = dataCols + 1;
    std::vector<int> preferred(static_cast<std::size_t>(logicalCols));
    for (int c = 0; c < dataCols; ++c)
        preferred[static_cast<std::size_t>(c)] = c;
    preferred[static_cast<std::size_t>(dataCols)] =
        cfg.cols + cfg.spareCols;
    std::vector<int> spares(static_cast<std::size_t>(cfg.spareCols));
    for (int s = 0; s < cfg.spareCols; ++s)
        spares[static_cast<std::size_t>(s)] = cfg.cols + s;
    auto plan = resilience::assignColumns(
        *t.array, t.intended, cfg.rows, t.usedRows, logicalCols,
        preferred, spares);
    t.colMap = std::move(plan.colMap);
    t.faults = std::move(plan.faults);
    t.remappedColumns = plan.remappedColumns;
    t.uncorrectableCells = plan.uncorrectableCells;
    if (cfg.abftChecksum)
        programChecksum(t, plan.stored);
    t.tainted = false;

    report.remappedColumns = t.remappedColumns;
    report.uncorrectableCells = t.uncorrectableCells;
    report.abftOk = !cfg.abftChecksum || t.abftOk;

    // The packed fast path stands down only while some tile still
    // carries an un-repaired injected fault: this tile's stored
    // levels once again match what programming left behind.
    bool tainted = false;
    for (const auto &other : tiles)
        tainted = tainted || other.tainted;
    _injected.store(tainted, std::memory_order_relaxed);
    return report;
}

bool
BitSerialEngine::abftActive(int rs, int cs) const
{
    return cfg.abftChecksum && tile(rs, cs).abftOk;
}

} // namespace isaac::xbar
