/**
 * @file
 * Activity counters and slot-based resource booking for the
 * cycle-level simulators.
 */

#ifndef ISAAC_SIM_TRACE_H
#define ISAAC_SIM_TRACE_H

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"

namespace isaac::sim {

/** Switching-activity counters accumulated by a simulation. */
struct Trace
{
    std::uint64_t edramReadBytes = 0;
    std::uint64_t edramWriteBytes = 0;
    std::uint64_t busBytes = 0;
    std::uint64_t xbarReads = 0;
    std::uint64_t adcSamples = 0;
    std::uint64_t shiftAdds = 0;
    std::uint64_t sigmoidOps = 0;
    std::uint64_t maxPoolValues = 0;
    std::uint64_t orWrites = 0;

    void
    merge(const Trace &other)
    {
        edramReadBytes += other.edramReadBytes;
        edramWriteBytes += other.edramWriteBytes;
        busBytes += other.busBytes;
        xbarReads += other.xbarReads;
        adcSamples += other.adcSamples;
        shiftAdds += other.shiftAdds;
        sigmoidOps += other.sigmoidOps;
        maxPoolValues += other.maxPoolValues;
        orWrites += other.orWrites;
    }
};

/**
 * A resource with a fixed number of slots per cycle (an eDRAM with N
 * banks, a bus, a pair of sigmoid units). reserve() books the
 * earliest free slot at or after the requested cycle.
 *
 * Full cycles form a next-free-cycle skip map (union-find with path
 * compression): each full cycle points at a later cycle that was
 * free when last looked at, so a request landing in a long backlog
 * skips it in near-constant amortized time instead of probing it
 * cycle by cycle. Once more than 2^20 cycles hold bookings, those
 * more than 2^18 cycles behind the latest booking are forgotten (and
 * so count as free again), bounding memory on long runs.
 */
class SlotResource
{
  public:
    explicit SlotResource(int slotsPerCycle);

    /** Book one slot at the earliest cycle >= `earliest`. */
    Cycle reserve(Cycle earliest);

    /** Slots booked so far (for utilization checks). */
    std::uint64_t totalReservations() const { return reservations; }

  private:
    /** Bookings of one cycle; `next` is meaningful once it is full:
     *  a later cycle to resume the free-slot search from. */
    struct Booked
    {
        int count = 0;
        Cycle next = 0;
    };

    int slots;
    std::map<Cycle, Booked> used;
    /** Path-compression scratch (full cycles walked by one search). */
    std::vector<std::map<Cycle, Booked>::iterator> path;
    std::uint64_t reservations = 0;
};

} // namespace isaac::sim

#endif // ISAAC_SIM_TRACE_H
