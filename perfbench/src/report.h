/**
 * @file
 * Output of a run: metrics derived from a traced walk, the per-layer
 * table and Chrome trace files, and the result line and record file.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <string>
#include <vector>

#include "plan_tracer.h"
#include "workload.h"

namespace perfbench {

/** JSON array of numbers, each with all its digits. */
std::string numArray(const std::vector<double> &v);

/**
 * latency_p50_ms and latency_tail_ms of one run. The tail is the
 * highest percentile with ten samples beyond it; the percentile, the
 * sample count and the samples beyond it go in the details and on a
 * printed line.
 */
void addLatencyMetrics(Result &result, const std::vector<double> &latencyMs);

/**
 * The per-layer metrics a traced walk yields: per-image self time of
 * each step kind, the walk's span coverage, per-window Dot time, the
 * batch width, and the exact engine counters per image.
 */
void addLayerMetrics(Result &result, const PlanTracer &tracer);

/**
 * Print the per-layer table and write it, with the Chrome trace, as
 * perfbench/out/<workload>-layers.txt and -trace.json.
 */
void writeTraceFiles(const Options &opts, const PlanTracer &tracer);

/**
 * Print the host fingerprint line, write the run's record to
 * perfbench/out/<workload>-seed<seed>-trace<0|1>.json, and print the
 * result line (always last on stdout).
 */
void emitResult(const Options &opts, const Result &result,
                const std::string &hostJson);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
