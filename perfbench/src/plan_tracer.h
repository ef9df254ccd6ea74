/**
 * @file
 * The traced serial walk: runs one image at a time through a
 * compiled model's ExecutionPlan by calling
 * CompiledModel::executeStep per node, timing every node and
 * recording the crossbar-engine counter deltas around each Dot.
 *
 * Spans are keyed by the stable StepNode id and the image key the
 * walk claimed, held in memory, and written out at the end as a
 * per-layer table and a Chrome trace-event JSON. Tracing lives here,
 * around the library's public calls; the library itself is unchanged.
 */

#ifndef PERFBENCH_PLAN_TRACER_H
#define PERFBENCH_PLAN_TRACER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/accelerator.h"
#include "nn/tensor.h"
#include "pipeline/execution_plan.h"
#include "util.h"
#include "xbar/engine.h"

namespace perfbench {

/** Field-wise a - b of two engine counter snapshots. */
isaac::xbar::EngineStats minus(const isaac::xbar::EngineStats &a,
                               const isaac::xbar::EngineStats &b);

/** Every engine counter multiplied by n. */
isaac::xbar::EngineStats scaled(const isaac::xbar::EngineStats &s,
                                std::uint64_t n);

class PlanTracer
{
  public:
    /**
     * Walk `input` through every node of `model`'s plan on the
     * calling thread under a freshly claimed image key; returns the
     * final layer's output. `label` names the image span.
     */
    isaac::nn::Tensor walk(const isaac::core::CompiledModel &model,
                           const isaac::nn::Tensor &input,
                           const std::string &label);

    std::uint64_t images() const { return _images; }

    /** Wall time of all walks, in seconds. */
    double walkSeconds() const { return _walkNs * 1e-9; }

    /** Node self time of one step kind per walked image, in ms. */
    double msPerImage(isaac::pipeline::StepKind kind) const;

    /** Share of the walks' wall time covered by node spans. */
    double coverage() const;

    /** Dot-node time per crossbar window, in ns. */
    double nsPerWindow() const;

    /** Mean windows per Dot call (the batch width n). */
    double windowsPerDot() const;

    /** Engine counter deltas summed over every Dot call. */
    isaac::xbar::EngineStats engineTotals() const;

    /** Fixed-width per-node table (one row per StepNode id). */
    std::string layerTable(const std::string &title) const;

    /** Chrome trace-event JSON of the kept spans. */
    std::string chromeTrace(const std::string &workload) const;

  private:
    /** Totals of one IR node over every walked image. */
    struct NodeTotals
    {
        int id = -1;
        isaac::pipeline::StepKind kind = isaac::pipeline::StepKind::Dot;
        std::string layer;
        std::uint64_t calls = 0;
        double ns = 0;
        std::uint64_t windows = 0; ///< Dot only: windows evaluated.
        isaac::xbar::EngineStats engine; ///< Dot only: counter delta.
    };

    struct Span
    {
        int node = -1; ///< -1 marks the enclosing image span.
        std::uint64_t image = 0;
        double startUs = 0;
        double durUs = 0;
        std::uint64_t windows = 0;
        std::uint64_t reads = 0;
        std::string label; ///< Image spans only.
    };

    /** Images whose spans go to the trace file. */
    static constexpr std::uint64_t kKeptImages = 24;

    Clock::time_point _origin = Clock::now();
    std::vector<NodeTotals> _nodes; ///< Indexed by StepNode id.
    std::vector<Span> _spans;
    std::uint64_t _images = 0;
    double _walkNs = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PLAN_TRACER_H
