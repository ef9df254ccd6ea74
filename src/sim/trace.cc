#include "sim/trace.h"

#include "common/logging.h"

namespace isaac::sim {

SlotResource::SlotResource(int slotsPerCycle) : slots(slotsPerCycle)
{
    if (slotsPerCycle < 1)
        fatal("SlotResource: need at least one slot per cycle");
}

Cycle
SlotResource::reserve(Cycle earliest)
{
    // Follow the skip pointers from `earliest` to the first cycle
    // that is not full, then point every full cycle on the way
    // straight at it (path compression).
    path.clear();
    Cycle cycle = earliest;
    auto it = used.find(cycle);
    while (it != used.end() && it->second.count >= slots) {
        path.push_back(it);
        cycle = it->second.next;
        it = used.find(cycle);
    }
    for (auto &full : path)
        full->second.next = cycle;
    if (it == used.end())
        it = used.emplace(cycle, Booked{}).first;
    if (++it->second.count == slots)
        it->second.next = cycle + 1;
    ++reservations;
    // Garbage-collect long-past entries to bound memory on long runs.
    // Skip pointers only lead forward, so no surviving entry points
    // into the erased range.
    if (used.size() > 1u << 20)
        used.erase(used.begin(),
                   used.lower_bound(cycle > (1u << 18)
                                        ? cycle - (1u << 18)
                                        : 0));
    return cycle;
}

} // namespace isaac::sim
