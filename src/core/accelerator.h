/**
 * @file
 * The top-level ISAAC accelerator API.
 *
 * An Accelerator owns a design point (arch::IsaacConfig). Compiling a
 * network against it produces a CompiledModel holding
 *
 *  - the inter-layer pipeline plan (replication, tile allocation),
 *  - the analytic performance/energy report,
 *  - and, for functional execution, one bit-serial crossbar engine
 *    per dot-product layer (per window for private kernels),
 *    programmed with the sliced/biased/flipped weight encoding.
 *
 * CompiledModel::infer() runs an input through the full analog
 * pipeline model and returns results that are bit-identical to the
 * software reference executor (tests assert this).
 */

#ifndef ISAAC_CORE_ACCELERATOR_H
#define ISAAC_CORE_ACCELERATOR_H

#include <atomic>
#include <memory>
#include <vector>

#include "arch/config.h"
#include "nn/reference.h"
#include "pipeline/execution_plan.h"
#include "pipeline/perf.h"
#include "resilience/health.h"
#include "xbar/engine.h"

namespace isaac::core {

/** Options controlling compilation. */
struct CompileOptions
{
    /** Chips the plan may use. */
    int chips = 1;

    /** Fixed-point format of activations and weights. */
    FixedFormat format{12};

    /**
     * Build the functional crossbar engines. Disable for large
     * networks where only the analytic plan/report is wanted
     * (engines materialize every weight in simulated crossbars).
     */
    bool functional = true;
};

/** A network bound to an ISAAC configuration. */
class CompiledModel
{
  public:
    /** The pipeline plan (replication, tiles, buffering). */
    const pipeline::PipelinePlan &plan() const { return _plan; }

    /** Analytic throughput/power/energy report. */
    const pipeline::IsaacPerf &perf() const { return _perf; }

    const nn::Network &network() const { return net; }

    /**
     * The lowered execution-plan IR (annotated with this plan's
     * resource grants). Every inference path — infer/inferAll/
     * inferBatch, serve::InferenceSession, and the cycle-level
     * simulators' ready-time precompute — walks this one graph.
     */
    const pipeline::ExecutionPlan &executionPlan() const
    {
        return _ir;
    }

    /** Whether functional crossbar engines were materialized. */
    bool isFunctional() const { return opts.functional; }

    /**
     * Run one inference through the analog pipeline model. Requires
     * functional compilation.
     */
    nn::Tensor infer(const nn::Tensor &input) const;

    /** Per-layer outputs of one inference. */
    std::vector<nn::Tensor> inferAll(const nn::Tensor &input) const;

    /**
     * Run a batch of inferences (the steady-state pipeline keeps
     * several images in flight; functionally they are independent).
     * Routed through serve::InferenceSession: images claim their
     * keys in batch order and pipeline across layer-steps.
     */
    std::vector<nn::Tensor>
    inferBatch(const std::vector<nn::Tensor> &inputs) const;

    /**
     * Claim `count` consecutive logical image keys. The key — not
     * execution order — seeds the per-image transient-injection
     * streams, so claiming at submission time makes any execution
     * interleaving replay the sequential streams exactly. All entry
     * points (inferAll, inferBatch, serve sessions) share this one
     * counter; resetStats() rewinds it.
     */
    std::uint64_t claimImageKeys(std::uint64_t count = 1) const;

    /**
     * Execute one IR step for one image: transforms `cur` in place
     * (compute steps replace it, hand-off steps pass it through the
     * protected buffer/NoC models) and accumulates the image's
     * transient activity into `local`. Steps of one image must run
     * in IR order; steps of different images may run concurrently.
     */
    void executeStep(const pipeline::StepNode &node, nn::Tensor &cur,
                     std::uint64_t imageKey,
                     resilience::TransientStats &local) const;

    /**
     * Fold one finished image's transient activity into the model's
     * health roll-up. Call exactly once per walked image.
     */
    void finishImage(const resilience::TransientStats &local) const;

    /**
     * inferAll with an explicit image key: walks the IR start to
     * finish on the calling thread. Public so schedulers replaying
     * specific keys (and parity tests) can drive it directly.
     */
    std::vector<nn::Tensor> inferAllKeyed(const nn::Tensor &input,
                                          std::uint64_t imageKey)
        const;

    /** Aggregated crossbar-engine activity since compilation. */
    xbar::EngineStats engineStats() const;

    /** ADC clip events across all engines (0 unless noisy). */
    std::uint64_t adcClips() const;

    /** Physical crossbars materialized by the functional model. */
    int functionalArrays() const;

    /** Engine groups materialized for a layer (0 for non-dot). */
    std::int64_t engineGroupCount(std::size_t layerIdx) const;

    /**
     * Engine reuse hook: the functional engine serving one layer's
     * window group (group 0 for shared kernels). Serving backends
     * and parity tests read per-tile tallies and reuse the engines
     * across sessions through this accessor; nullptr when the model
     * is analytic-only or the layer has no dot product.
     */
    const xbar::BitSerialEngine *engine(std::size_t layerIdx,
                                        std::int64_t group = 0) const;

    /**
     * Mutable engine access for the self-healing supervisor
     * (serve::HealthWatchdog): online repair (repairTile) and fault
     * injection are structural mutations, so the caller must ensure
     * no dotProduct() overlaps — the serving runtime's exclusive
     * repair lock provides that. nullptr exactly when engine() is.
     */
    xbar::BitSerialEngine *engineMut(std::size_t layerIdx,
                                     std::int64_t group = 0);

    /**
     * Graceful degradation: rebuild one layer's engine group from
     * the weight store on fresh arrays — the functional analogue of
     * the chip simulator's dead-tile server migration — and annotate
     * the ExecutionPlan's Dot node through recordMigration() (tile
     * grant shrinks, migratedCopies/degraded set). Returns the
     * migrated copy count. The rebuilt engine reproduces the
     * compile-time config (including the per-engine noise-seed salt),
     * so its manufactured-defect and noise streams replay those of a
     * fresh compile; its activity counters restart from zero (the
     * quarantined tile's history dies with it). Must not overlap
     * in-flight inferences — hold the repair lock.
     */
    std::int64_t degradeDotLayer(std::size_t layerIdx,
                                 std::int64_t group = 0);

    /** Aggregate fault census across every functional engine. */
    resilience::ArrayFaultReport faultReport() const;

    /**
     * Transient-error counters rolled up across the whole stack:
     * the engines' ABFT/refresh activity plus the buffer-ECC and
     * NoC-retry activity the inference paths fed the health monitor.
     * Deterministic per seed and identical at any thread count.
     */
    resilience::TransientStats transientStats() const;

    /**
     * Zero every activity counter (engine stats, ADC tallies,
     * transient counters) and rewind the deterministic noise/drift
     * sequences, so a replayed workload reports exactly what a
     * freshly compiled model would.
     */
    void resetStats();

    /**
     * Rewind the model to a scenario boundary: the one entry point a
     * fault-injection campaign calls between back-to-back scenarios
     * on a shared compiled model. Today this is resetStats() — which
     * already rewinds the engine op clocks (drift age), ADC
     * tallies, health roll-up, and the session image-key counter
     * together — under a name that states the contract:
     * after this call, a run is bit-identical to the same run on a
     * freshly compiled model (tests/campaign pins this). Stored cell
     * levels are untouched; they are scenario state, not activity.
     * Must not overlap in-flight inferences.
     */
    void resetForScenario();

    /**
     * Advance every functional engine's drift clock by `ops`: the
     * campaign's "drift age" axis, placing the model at a chosen
     * point on the decay curve before measuring. No effect on any
     * counter; resetForScenario() rewinds it. Must not overlap
     * in-flight inferences.
     */
    void ageArrays(std::uint64_t ops);

    /**
     * Structured resilience summary of the functional model: the
     * fault census, ADC saturation, and the transient-error roll-up.
     * Structural degradation fields (dead tiles, migrated servers)
     * are filled by the chip simulator, not here.
     */
    resilience::ResilienceSummary resilienceSummary() const;

  private:
    friend class Accelerator;
    CompiledModel(const nn::Network &net,
                  const nn::WeightStore &weights,
                  const arch::IsaacConfig &cfg, CompileOptions opts);

    nn::Tensor runDotLayer(std::size_t layerIdx,
                           const nn::Tensor &input) const;

    /** fatal() unless functional engines exist; names the knob. */
    void requireFunctional(const char *what) const;

    /**
     * The engine config one (layer, group) was compiled with,
     * including the per-engine noise-seed decorrelation salt — the
     * one recipe compile and degradeDotLayer() share.
     */
    xbar::EngineConfig engineConfigFor(std::size_t layerIdx,
                                       std::int64_t group) const;

    const nn::Network &net;
    const nn::WeightStore &weights;
    arch::IsaacConfig cfg;
    CompileOptions opts;
    pipeline::PipelinePlan _plan;
    /** The lowered task graph (annotated from _plan). */
    pipeline::ExecutionPlan _ir;
    pipeline::IsaacPerf _perf;
    nn::SigmoidLut lut;
    /** Executes pooling/SPP layers (shared semantics). */
    std::unique_ptr<nn::ReferenceExecutor> poolExec;
    /** engines[layer][windowGroup]; one group for shared kernels. */
    std::vector<std::vector<std::unique_ptr<xbar::BitSerialEngine>>>
        engines;
    /** Roll-up of buffer-ECC / NoC-retry activity. */
    mutable resilience::HealthMonitor health;
    /** Logical image counter keying the injection streams. */
    mutable std::atomic<std::uint64_t> _imageSeq{0};
};

/** Entry point: a configured ISAAC system. */
class Accelerator
{
  public:
    explicit Accelerator(arch::IsaacConfig cfg = {});

    const arch::IsaacConfig &config() const { return cfg; }

    /**
     * Bind a network and its weights to this accelerator.
     * The network and weight store must outlive the CompiledModel.
     */
    CompiledModel compile(const nn::Network &net,
                          const nn::WeightStore &weights,
                          CompileOptions opts = {}) const;

  private:
    arch::IsaacConfig cfg;
};

} // namespace isaac::core

#endif // ISAAC_CORE_ACCELERATOR_H
