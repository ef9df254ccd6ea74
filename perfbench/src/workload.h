/**
 * @file
 * What every workload shares: the command-line options, the
 * operation tally that decides `correct`, and the result a run
 * prints (metrics plus a free-form detail record).
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/json_writer.h"

namespace perfbench {

/** Parsed command line of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /**
     * Smoke-test hook: corrupt one expected output (or the expected
     * campaign hash) so the run must report a failed operation.
     */
    bool corrupt = false;
};

/**
 * Attempted and failed operations of one run. An operation is one
 * inference, one scenario, or one cross-check (counters, hashes);
 * it fails on a wrong output, an exception, or a broken invariant.
 */
class Tally
{
  public:
    /** Count one operation; prints the first few failures. */
    void record(bool ok, const std::string &what);

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

  private:
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** Everything one run reports. */
struct Result
{
    Tally tally;
    std::vector<Metric> metrics;
    /** Workload-specific context for the record file. */
    isaac::core::JsonObject details;

    void add(std::string name, std::string unit, double value)
    {
        metrics.push_back({std::move(name), std::move(unit), value});
    }
};

/** The closed-loop serving workloads: "serve-conv", "serve-fc". */
bool isServeWorkload(const std::string &name);
void runServe(const Options &opts, Result &result);

/** "campaign-mixed". */
void runCampaign(const Options &opts, Result &result);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
