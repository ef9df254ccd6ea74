#include "report.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/json_writer.h"

namespace perfbench {

using isaac::pipeline::StepKind;

namespace {

/** Output directory, relative to the working directory. */
const std::string kOutDir = "perfbench/out";

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text;
    return static_cast<bool>(f);
}

} // namespace

std::string
numArray(const std::vector<double> &v)
{
    isaac::core::JsonArray out;
    for (const double x : v)
        out.item(num(x));
    return out.str();
}

void
addLatencyMetrics(Result &result, const std::vector<double> &latencyMs)
{
    constexpr std::size_t kTailBeyond = 10;
    const double p50 = median(latencyMs);
    const auto tail = tailPercentile(latencyMs, kTailBeyond);
    result.add("latency_p50_ms", "ms", p50);
    result.add("latency_tail_ms", "ms", tail.value);
    result.details.raw("latency_tail_pct", num(tail.pct))
        .field("latency_samples", static_cast<std::uint64_t>(tail.samples))
        .field("latency_samples_beyond_tail",
               static_cast<std::uint64_t>(tail.beyond));
    std::printf("latency: p50 %.3f ms, p%.4g %.3f ms (%zu samples, %zu "
                "beyond the tail)\n",
                p50, tail.pct, tail.value, tail.samples, tail.beyond);
}

void
addLayerMetrics(Result &result, const PlanTracer &tracer)
{
    const double images = static_cast<double>(tracer.images());
    const auto totals = tracer.engineTotals();
    result.add("core.dot_ms", "ms", tracer.msPerImage(StepKind::Dot));
    result.add("core.stage_in_ms", "ms",
               tracer.msPerImage(StepKind::StageIn));
    result.add("core.stage_out_ms", "ms",
               tracer.msPerImage(StepKind::StageOut));
    result.add("core.transfer_ms", "ms",
               tracer.msPerImage(StepKind::Transfer));
    result.add("core.pool_ms", "ms", tracer.msPerImage(StepKind::Pool));
    result.add("core.walk_coverage", "frac", tracer.coverage());
    result.add("xbar.ns_per_window", "ns", tracer.nsPerWindow());
    result.add("xbar.windows_per_dot", "count", tracer.windowsPerDot());
    result.add("xbar.crossbar_reads_per_item", "count",
               static_cast<double>(totals.crossbarReads) / images);
    result.add("xbar.adc_samples_per_item", "count",
               static_cast<double>(totals.adcSamples) / images);
    result.add("xbar.adc_bit_cycles_per_item", "count",
               static_cast<double>(totals.adcBitCycles) / images);
    result.add("xbar.shift_adds_per_item", "count",
               static_cast<double>(totals.shiftAdds) / images);
}

void
writeTraceFiles(const Options &opts, const PlanTracer &tracer)
{
    std::filesystem::create_directories(kOutDir);
    const std::string base = kOutDir + "/" + opts.workload;
    const auto table = tracer.layerTable(opts.workload);
    std::fputs(table.c_str(), stdout);
    if (!writeFile(base + "-layers.txt", table) ||
        !writeFile(base + "-trace.json", tracer.chromeTrace(opts.workload)))
        std::fprintf(stderr, "perfbench: cannot write %s-*\n", base.c_str());
    else
        std::printf("wrote %s-layers.txt and %s-trace.json\n", base.c_str(),
                    base.c_str());
}

void
emitResult(const Options &opts, const Result &result,
           const std::string &hostJson)
{
    isaac::core::JsonObject metrics;
    for (const auto &m : result.metrics) {
        isaac::core::JsonObject v;
        v.raw("value", num(m.value)).field("unit", m.unit);
        metrics.raw(m.name, v.str());
    }
    const bool correct = result.tally.failed() == 0;

    isaac::core::JsonObject record;
    record.field("workload", opts.workload)
        .field("seed", opts.seed)
        .raw("seconds", num(opts.seconds))
        .field("trace", opts.trace)
        .raw("host", hostJson)
        .raw("details", result.details.str())
        .field("correct", correct)
        .field("attempted", result.tally.attempted())
        .field("failed", result.tally.failed())
        .raw("metrics", metrics.str());
    std::filesystem::create_directories(kOutDir);
    const std::string path = kOutDir + "/" + opts.workload + "-seed" +
        std::to_string(opts.seed) + "-trace" + (opts.trace ? "1" : "0") +
        ".json";
    if (!writeFile(path, record.str() + "\n"))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());

    isaac::core::JsonObject host;
    host.raw("host", hostJson);
    std::printf("%s\n", host.str().c_str());

    isaac::core::JsonObject line;
    line.field("correct", correct)
        .field("attempted", result.tally.attempted())
        .field("failed", result.tally.failed())
        .raw("metrics", metrics.str());
    std::printf("%s\n", line.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
