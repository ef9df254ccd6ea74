/**
 * @file
 * Trace / SlotResource utility tests.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "sim/trace.h"

namespace isaac::sim {
namespace {

TEST(Trace, MergeAccumulatesEveryCounter)
{
    Trace a;
    a.edramReadBytes = 1;
    a.edramWriteBytes = 2;
    a.busBytes = 3;
    a.xbarReads = 4;
    a.adcSamples = 5;
    a.shiftAdds = 6;
    a.sigmoidOps = 7;
    a.maxPoolValues = 8;
    a.orWrites = 9;

    Trace b = a;
    b.merge(a);
    EXPECT_EQ(b.edramReadBytes, 2u);
    EXPECT_EQ(b.edramWriteBytes, 4u);
    EXPECT_EQ(b.busBytes, 6u);
    EXPECT_EQ(b.xbarReads, 8u);
    EXPECT_EQ(b.adcSamples, 10u);
    EXPECT_EQ(b.shiftAdds, 12u);
    EXPECT_EQ(b.sigmoidOps, 14u);
    EXPECT_EQ(b.maxPoolValues, 16u);
    EXPECT_EQ(b.orWrites, 18u);
}

TEST(SlotResource, BacklogDrainsForward)
{
    SlotResource r(1);
    // Saturate cycles 10..14, then ask for cycle 10 again: lands 15.
    for (Cycle c = 10; c < 15; ++c)
        EXPECT_EQ(r.reserve(c), c);
    EXPECT_EQ(r.reserve(10), 15u);
    // Earlier cycles remain available.
    EXPECT_EQ(r.reserve(3), 3u);
}

TEST(SlotResource, ManyReservationsStayBounded)
{
    SlotResource r(2);
    Cycle last = 0;
    for (int i = 0; i < 100000; ++i)
        last = r.reserve(static_cast<Cycle>(i / 4));
    EXPECT_GE(last, 100000u / 4);
    EXPECT_EQ(r.totalReservations(), 100000u);
}

/**
 * The original cycle-by-cycle probe, kept as the oracle the skip-map
 * SlotResource must agree with booking for booking (GC included).
 */
class ProbingSlots
{
  public:
    explicit ProbingSlots(int slots) : slots(slots) {}

    Cycle
    reserve(Cycle earliest)
    {
        Cycle cycle = earliest;
        while (true) {
            const auto it = used.find(cycle);
            if (it == used.end() || it->second < slots)
                break;
            ++cycle;
        }
        ++used[cycle];
        if (used.size() > 1u << 20)
            used.erase(used.begin(),
                       used.lower_bound(cycle > (1u << 18)
                                            ? cycle - (1u << 18)
                                            : 0));
        return cycle;
    }

  private:
    int slots;
    std::map<Cycle, int> used;
};

TEST(SlotResource, MatchesTheProbingOracleOnRandomTraffic)
{
    // Mixed traffic: a request front advancing slower than one slot
    // per booking (the backlog behind it grows), requests reaching
    // back into booked history, and jumps far ahead that leave holes
    // to fill later.
    Rng rng(0x5107);
    const int bookings = 6000;
    for (const int slots : {1, 2, 3, 5}) {
        SlotResource fast(slots);
        ProbingSlots oracle(slots);
        Cycle front = 0;
        for (int i = 0; i < bookings; ++i) {
            Cycle want = front;
            switch (rng.uniform(0, 9)) {
              case 0:
                want = front > 500
                    ? front - static_cast<Cycle>(rng.uniform(0, 500))
                    : 0;
                break;
              case 1:
                want = front + static_cast<Cycle>(rng.uniform(0, 5000));
                break;
              case 2:
                break;
              default:
                front += static_cast<Cycle>(rng.uniform(0, 2));
                want = front;
                break;
            }
            ASSERT_EQ(fast.reserve(want), oracle.reserve(want))
                << "slots " << slots << " booking " << i;
        }
        EXPECT_EQ(fast.totalReservations(),
                  static_cast<std::uint64_t>(bookings));
    }
}

TEST(SlotResource, GarbageCollectionMatchesTheProbingOracle)
{
    // Over 2^20 booked cycles, those 2^18 behind the latest booking
    // are forgotten and read as free again — in both versions, and
    // full runs behind the cut must not leave dangling skips.
    SlotResource fast(1);
    ProbingSlots oracle(1);
    const Cycle n = (Cycle{1} << 20) + 16;
    for (Cycle c = 0; c < n; ++c) {
        const Cycle want = c < 4096 ? 0 : 2 * c;
        ASSERT_EQ(fast.reserve(want), oracle.reserve(want)) << c;
    }
    Rng rng(0x6C);
    for (int i = 0; i < 2000; ++i) {
        const auto want = static_cast<Cycle>(rng.uniform(0, 2 * n));
        ASSERT_EQ(fast.reserve(want), oracle.reserve(want)) << i;
    }
}

} // namespace
} // namespace isaac::sim
