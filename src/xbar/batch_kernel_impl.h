/**
 * @file
 * Shared skeleton of the batched popcount GEMM, instantiated once per
 * instruction-set tier. Each tier translation unit supplies only the
 * innermost accumulation row as a functor,
 *
 *   accumRow(Acc *dst, const uint64_t *dp, uint64_t pw, int shift, n)
 *     : dst[i] += popcount(dp[i] & pw) << shift   for i in [0, n),
 *
 * and everything else — loop structure, zero-plane skipping, the
 * register-resident n == 1 special cases — is this template. Keeping
 * the skeleton in one place is what makes the tiers bit-exact by
 * construction: they can only differ in how a row of popcounts is
 * computed, never in what is summed.
 *
 * The n == 1 cases are plain scalar code on purpose: a single digit
 * vector has no lane parallelism to exploit, and compiling this
 * header inside a tier TU means std::popcount lowers to that tier's
 * best instruction (hardware POPCNT from the popcnt tier up).
 */

#ifndef ISAAC_XBAR_BATCH_KERNEL_IMPL_H
#define ISAAC_XBAR_BATCH_KERNEL_IMPL_H

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/types.h"

namespace isaac::xbar::kernel::detail {

template <typename AccumRow>
inline void
batchedBitlineSumsImpl(const std::uint64_t *cellPlanes, int cols,
                       int cellBits, int words,
                       const std::uint64_t *dig, int digitBits, int n,
                       Acc *out, AccumRow accumRow)
{
    // Single-vector reads are what one-window calls (classifier
    // layers, private-kernel engines) issue, one per tile and
    // distinct phase; keep the digit words in registers across the
    // whole column sweep for the common 1-bit-DAC shapes.
    if (n == 1 && digitBits == 1 && words == 1) {
        const std::uint64_t d0 = dig[0];
        const std::uint64_t *cellPlane = cellPlanes;
        for (int c = 0; c < cols; ++c) {
            Acc sum = 0;
            for (int b = 0; b < cellBits; ++b, ++cellPlane)
                sum += static_cast<Acc>(
                           std::popcount(d0 & cellPlane[0]))
                    << b;
            out[static_cast<std::size_t>(c)] = sum;
        }
        return;
    }
    if (n == 1 && digitBits == 1 && words == 2) {
        const std::uint64_t d0 = dig[0];
        const std::uint64_t d1 = dig[1];
        const std::uint64_t *cellPlane = cellPlanes;
        for (int c = 0; c < cols; ++c) {
            Acc sum = 0;
            for (int b = 0; b < cellBits; ++b, cellPlane += 2)
                sum += static_cast<Acc>(
                           std::popcount(d0 & cellPlane[0]) +
                           std::popcount(d1 & cellPlane[1]))
                    << b;
            out[static_cast<std::size_t>(c)] = sum;
        }
        return;
    }

    // General batched shape: per column, stream each (cell bit, digit
    // bit, plane word) term across the whole window row. The cell
    // word is one broadcast operand; the window row dst/dp are
    // contiguous, which is the layout accumRow vectorizes over. A
    // zero cell word contributes nothing at any input — skip it (flip
    // encoding makes all-zero high planes common).
    for (int c = 0; c < cols; ++c) {
        const std::uint64_t *cp = cellPlanes +
            static_cast<std::size_t>(c) * cellBits * words;
        Acc *dst = out + static_cast<std::size_t>(c) * n;
        std::fill(dst, dst + n, Acc{0});
        for (int b = 0; b < cellBits; ++b) {
            for (int j = 0; j < digitBits; ++j) {
                for (int w = 0; w < words; ++w) {
                    const std::uint64_t pw =
                        cp[static_cast<std::size_t>(b) * words + w];
                    if (!pw)
                        continue;
                    accumRow(dst,
                             dig +
                                 (static_cast<std::size_t>(j) * words +
                                  w) *
                                     n,
                             pw, b + j, n);
                }
            }
        }
    }
}

/**
 * Portable bodies of the digital-merge rows (scaleAdd /
 * scaleAddFlipped in batch_kernel.h): the scalar/popcnt tiers run
 * these whole, the vector tiers only for the sub-vector tail. Pure
 * shift/add loops over the contiguous window index — every
 * multiplier in the engine's merge (slice weight 2^(s*w), phase
 * weight 2^(p*v), the 2^15 weight bias, the slice ceiling 2^w - 1)
 * is a power of two, which is what makes the vector tiers trivially
 * bit-exact: 64-bit shift/add/sub has exactly one answer. The engine
 * also calls these directly for rows shorter than one vector, where
 * the tier dispatch has nothing to win.
 */
inline void
scaleAddImpl(Acc *acc, const Acc *row, int shift, bool negate, int n)
{
    if (negate) {
        for (int i = 0; i < n; ++i)
            acc[i] -= row[i] << shift;
    } else {
        for (int i = 0; i < n; ++i)
            acc[i] += row[i] << shift;
    }
}

inline void
scaleAddFlippedImpl(Acc *acc, const Acc *row, const Acc *units,
                    int cellBits, int shift, bool negate, int n)
{
    // Unflipped slice value: (2^w - 1) * unit - v, the linear form
    // of encoding.cc's unflipColumnSum.
    if (negate) {
        for (int i = 0; i < n; ++i) {
            acc[i] -=
                ((units[i] << cellBits) - units[i] - row[i]) << shift;
        }
    } else {
        for (int i = 0; i < n; ++i) {
            acc[i] +=
                ((units[i] << cellBits) - units[i] - row[i]) << shift;
        }
    }
}

/** The portable accumulation row (scalar and popcnt tiers). */
struct ScalarAccumRow
{
    void
    operator()(Acc *dst, const std::uint64_t *dp, std::uint64_t pw,
               int shift, int n) const
    {
        for (int i = 0; i < n; ++i) {
            dst[i] += static_cast<Acc>(std::popcount(dp[i] & pw))
                << shift;
        }
    }
};

} // namespace isaac::xbar::kernel::detail

#endif // ISAAC_XBAR_BATCH_KERNEL_IMPL_H
