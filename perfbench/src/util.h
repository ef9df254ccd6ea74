/**
 * @file
 * Measurement helpers shared by the benchmark workloads: wall and
 * process-CPU clocks, resident-set probes, order statistics, the
 * host fingerprint, and shortest round-trip number formatting.
 */

#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

inline double
millis(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

/** CPU time consumed by every thread of this process, in seconds. */
double processCpuSeconds();

/** High-water resident set of this process, in MiB. */
double peakRssMb();

/** Current resident set of this process, in bytes. */
double currentRssBytes();

/** Median of `v` (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** A nearest-rank percentile of a sample and the samples beyond it. */
struct Percentile
{
    double pct = 0;
    double value = 0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

/**
 * The highest nearest-rank percentile of `v` with at least `minBeyond`
 * samples beyond it (at most half the sample when it is small).
 */
Percentile tailPercentile(std::vector<double> v, std::size_t minBeyond);

/** Shortest decimal text that parses back to exactly `v`. */
std::string num(double v);

/** Aggregate CPU tick counters from the first line of /proc/stat. */
struct CpuTicks
{
    std::uint64_t user = 0;  ///< user + nice
    std::uint64_t steal = 0; ///< Taken by the hypervisor.
    std::uint64_t total = 0; ///< Every column summed.
};

CpuTicks readCpuTicks();

/**
 * The host fingerprint every result carries: CPU model, hardware
 * threads, the popcount-kernel tier the library dispatches to, the
 * build type, and the share of all CPU ticks the hypervisor stole
 * between `before` and `after` (also given relative to user time).
 */
std::string hostJson(const CpuTicks &before, const CpuTicks &after);

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
