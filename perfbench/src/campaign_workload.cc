/**
 * @file
 * campaign-mixed: a fault/noise campaign over TinyCNN through
 * campaign::Runner, three scenarios at a time.
 *
 * The grid mixes three read-noise scenarios, which run on the scalar
 * tier, with eighteen batched-tier scenarios over write noise and
 * stuck cells with 0 or 2 spare columns, two of them clean. Every
 * scenario compiles fresh arrays (program-verify, remap) and then
 * serves and scores a batch against the reference, so the scalar
 * tier, programming and scoring carry the load.
 *
 * Each timed sweep is one Runner::run of the whole grid, so the
 * latency sample is a sweep's wall time. Every sweep's report must
 * hash to the first sweep's, and its clean scenarios must agree with
 * the fixed-point reference exactly.
 */

#include <future>
#include <optional>
#include <unordered_set>

#include "campaign/runner.h"
#include "common/thread_pool.h"
#include "core/accelerator.h"
#include "nn/reference.h"
#include "pipeline/execution_plan.h"
#include "pipeline/replication.h"
#include "plan_tracer.h"
#include "report.h"
#include "serve/session.h"
#include "workload.h"

namespace perfbench {

using namespace isaac;

namespace {

constexpr const char *kNetwork = "tinycnn";
constexpr int kThreads = 3;     ///< Scenario-major worker threads.
constexpr int kBatch = 4;       ///< Images each scenario serves.
constexpr int kSetupReps = 5;   ///< Cold set-ups per run (median).
constexpr int kOverheadRounds = 8; ///< Walk/infer rounds per clean model.
const FixedFormat kFormat{12};
/** How campaign::Runner derives its weight seed from the master seed. */
constexpr std::uint64_t kWeightSeedSalt = 0x5EED5EED5EED5EEDull;

std::vector<campaign::Grid>
grids()
{
    // The scalar-tier scenarios come first, one per thread, so the
    // cheap batched-tier ones fill in behind them and the sweep ends
    // with all threads busy.
    campaign::Grid scalar;
    scalar.readSigma = {0.5};
    scalar.stuckRate = {0.005};
    scalar.spareCols = {2};
    scalar.trials = kThreads;

    campaign::Grid batched;
    batched.writeSigma = {0.0, 0.15, 0.3};
    batched.stuckRate = {0.0, 0.002, 0.005};
    batched.spareCols = {0, 2};
    return {scalar, batched};
}

/** The scenarios of grids() in Runner::run's order. */
std::vector<campaign::Scenario>
enumerate(std::uint64_t seed)
{
    std::vector<campaign::Scenario> out;
    std::unordered_set<std::string> ids;
    for (const auto &g : grids())
        for (auto &s : g.enumerate(seed))
            if (ids.insert(s.id()).second)
                out.push_back(std::move(s));
    return out;
}

/** True when every Dot engine of `model` takes the packed path. */
bool
batchedTier(const core::CompiledModel &model)
{
    const auto &net = model.network();
    for (std::size_t i = 0; i < net.size(); ++i)
        for (std::int64_t g = 0; g < model.engineGroupCount(i); ++g)
            if (!model.engine(i, g)->fastPathActive())
                return false;
    return true;
}

/**
 * One scenario run the way Runner::run runs it: inside a parallelFor
 * region, where the scenario's session executes on the calling
 * thread. Called from outside such a region, a read-noise scenario's
 * session interleaves its images across a pool worker and the
 * draining caller, and its result is not reproducible run to run.
 */
campaign::ScenarioResult
runAsCampaign(const campaign::Runner &runner, const campaign::Scenario &s)
{
    campaign::ScenarioResult res;
    parallelFor(1, kThreads,
                [&](std::int64_t, int) { res = runner.runScenario(s); });
    return res;
}

struct Setups
{
    std::vector<double> totalS; ///< Runner construction + first scenario.
    std::string firstRecord;    ///< The first scenario's JSON record.
};

/**
 * kSetupReps cold set-ups: construct the Runner (network, weights,
 * inputs, reference ground truth) and run the first scenario. The
 * last runner is kept in `runner`.
 */
Setups
runSetups(const Options &opts, const campaign::Scenario &first,
          std::optional<campaign::Runner> &runner, Tally &tally)
{
    Setups st;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        runner.reset();
        const auto t0 = Clock::now();
        runner.emplace(kNetwork, opts.seed,
                       campaign::RunnerOptions{.batch = kBatch,
                                               .threads = kThreads});
        const auto record = runAsCampaign(*runner, first).toJson();
        st.totalS.push_back(seconds(Clock::now() - t0));
        if (rep == 0)
            st.firstRecord = record;
        tally.record(record == st.firstRecord,
                     "setup: first scenario differs between set-ups");
    }
    return st;
}

void
runUntraced(const Options &opts, Result &result)
{
    auto &tally = result.tally;
    const auto scenarios = enumerate(opts.seed);
    std::optional<campaign::Runner> runner;
    const auto st = runSetups(opts, scenarios[0], runner, tally);

    // The first sweep fixes the hash the others must reproduce.
    std::optional<std::uint64_t> expectedHash;
    std::vector<double> sweepMs;
    std::uint64_t done = 0;
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    while (seconds(Clock::now() - start) < opts.seconds) {
        const auto t0 = Clock::now();
        campaign::Report report;
        try {
            report = runner->run(grids());
        } catch (const std::exception &e) {
            tally.record(false, std::string("sweep: ") + e.what());
            continue;
        }
        sweepMs.push_back(millis(Clock::now() - t0));
        for (const auto &r : report.scenarios)
            tally.record(!r.timedOut && (!r.scenario.clean() ||
                                         (r.agreement == 1.0 &&
                                          r.maxRel == 0.0)),
                         "scenario " + r.scenario.id() + " failed");
        if (!expectedHash) {
            tally.record(report.cleanScenarioCount() > 0,
                         "sweep: the grid has no clean scenario");
            // The Pareto flag depends on the whole campaign; a lone
            // scenario's record always carries false.
            auto first = report.scenarios.at(0);
            first.pareto = false;
            tally.record(first.toJson() == st.firstRecord,
                         "sweep: first scenario differs from set-up");
            expectedHash = report.contentHash() ^ (opts.corrupt ? 1u : 0u);
        }
        tally.record(report.contentHash() == *expectedHash,
                     "sweep: report hash differs from the first sweep");
        done += report.scenarios.size();
    }
    const double wallS = seconds(Clock::now() - start);
    const double cpuS = processCpuSeconds() - cpu0;

    result.add("setup_s", "s", median(st.totalS));
    result.add("items_per_s", "1/s", static_cast<double>(done) / wallS);
    addLatencyMetrics(result, sweepMs);
    result.add("cpu_ms_per_item", "ms",
               1e3 * cpuS / static_cast<double>(done));
    result.add("peak_rss_mb", "MB", peakRssMb());
    result.details.field("items", done)
        .field("sweeps", static_cast<std::uint64_t>(sweepMs.size()))
        .field("scenarios_per_sweep",
               static_cast<std::uint64_t>(scenarios.size()))
        .field("threads", kThreads)
        .field("batch", kBatch)
        .raw("setup_s_all", numArray(st.totalS));
}

void
runTraced(const Options &opts, Result &result)
{
    auto &tally = result.tally;
    const auto scenarios = enumerate(opts.seed);
    const auto net = campaign::buildNetwork(kNetwork);

    std::vector<double> planS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        const auto plan =
            pipeline::planPipeline(net, scenarios[0].config(1), 1);
        const auto ir = pipeline::ExecutionPlan::lower(net, plan);
        planS.push_back(seconds(Clock::now() - t0));
        tally.record(ir.topologicallyOrdered(), "plan: not topological");
    }

    std::optional<campaign::Runner> runner;
    const auto st = runSetups(opts, scenarios[0], runner, tally);
    const auto &inputs = runner->inputs();

    // The walk compiles its own models, on the weights the runner
    // synthesizes, and checks clean scenarios against the reference
    // executor.
    const auto weights = campaign::synthesizeStructuredWeights(
        net, opts.seed ^ kWeightSeedSalt);
    const nn::ReferenceExecutor ref(net, weights, kFormat, /*threads=*/1);
    std::vector<nn::Tensor> expected;
    std::vector<double> refMs;
    for (const auto &in : inputs) {
        const auto t0 = Clock::now();
        expected.push_back(ref.run(in));
        refMs.push_back(millis(Clock::now() - t0));
    }
    if (opts.corrupt)
        expected[0].raw()[0] ^= 1;

    PlanTracer tracer;
    std::vector<double> batchedMs, scalarMs, compileMs;
    double scalarTotal = 0, allTotal = 0;
    PlanTracer overheadTracer;
    double serialS = 0;
    std::uint64_t serialItems = 0;
    int arrays = 0;
    resilience::ArrayFaultReport faults;
    double admitWaitMs = 0;
    serve::SessionStats session;
    const auto start = Clock::now();
    for (int pass = 0;
         pass == 0 || seconds(Clock::now() - start) < opts.seconds; ++pass) {
        for (const auto &s : scenarios) {
            auto t0 = Clock::now();
            const auto res = runAsCampaign(*runner, s);
            const double scenarioMs = millis(Clock::now() - t0);
            tally.record(!res.timedOut && (!s.clean() || res.agreement == 1.0),
                         "scenario " + s.id() + " failed");

            t0 = Clock::now();
            const core::Accelerator acc(s.config(1));
            auto model = acc.compile(net, weights, {});
            compileMs.push_back(millis(Clock::now() - t0));
            model.resetForScenario();
            const bool batched = batchedTier(model);
            (batched ? batchedMs : scalarMs).push_back(scenarioMs);
            allTotal += scenarioMs;
            if (!batched)
                scalarTotal += scenarioMs;

            for (std::size_t i = 0; i < inputs.size(); ++i) {
                const auto out = tracer.walk(model, inputs[i],
                                             batched ? "batched" : "scalar");
                if (s.clean())
                    tally.record(out.raw() == expected[i].raw(),
                                 "traced walk: clean output differs from "
                                 "reference");
            }
            if (pass == 0)
                faults.merge(model.faultReport());
            if (!s.clean())
                continue;

            // Tracing cost on the clean models: the traced walk against
            // untraced serial infer(), alternating image by image. A
            // separate tracer keeps these extra walks out of the layer
            // metrics, which weigh every scenario alike.
            for (int round = 0; round < kOverheadRounds; ++round) {
                for (std::size_t i = 0; i < inputs.size(); ++i) {
                    tally.record(overheadTracer.walk(model, inputs[i], "clean")
                                         .raw() == expected[i].raw(),
                                 "traced walk: clean output differs from "
                                 "reference");
                    t0 = Clock::now();
                    const auto out = model.infer(inputs[i]);
                    serialS += seconds(Clock::now() - t0);
                    ++serialItems;
                    tally.record(out.raw() == expected[i].raw(),
                                 "serial infer: output differs from "
                                 "reference");
                }
            }
            if (pass > 0)
                continue;

            // The scenario's own session shape, on the first pass.
            arrays = model.functionalArrays();
            serve::SessionOptions so;
            so.queueDepth = inputs.size();
            so.workers = 1;
            serve::InferenceSession sess(model, so);
            std::vector<std::future<nn::Tensor>> futs;
            for (const auto &in : inputs) {
                t0 = Clock::now();
                futs.push_back(sess.submit(in));
                admitWaitMs += millis(Clock::now() - t0);
            }
            sess.drain();
            for (std::size_t i = 0; i < futs.size(); ++i)
                tally.record(futs[i].get().raw() == expected[i].raw(),
                             "session: output differs from reference");
            sess.shutdown();
            const auto ss = sess.stats();
            session.completed += ss.completed;
            session.stepsExecuted += ss.stepsExecuted;
            session.peakInFlight =
                std::max(session.peakInFlight, ss.peakInFlight);
        }
    }

    addLayerMetrics(result, tracer);
    result.add("core.compile_s", "s", 1e-3 * median(compileMs));
    result.add("core.first_result_s", "s", median(st.totalS));
    result.add("pipeline.plan_s", "s", median(planS));
    const double serialMsPerItem =
        1e3 * serialS / static_cast<double>(serialItems);
    result.add("core.infer_serial_items_per_s", "1/s",
               1e3 / serialMsPerItem);
    result.add("core.trace_overhead_frac", "frac",
               1e3 * overheadTracer.walkSeconds() /
                       static_cast<double>(overheadTracer.images()) /
                       serialMsPerItem -
                   1.0);
    result.add("xbar.arrays", "count", arrays);
    // TinyCNN's few arrays come out of already-resident heap, so
    // resident-set growth per cell is measured on the serve workloads.
    result.add("xbar.rss_bytes_per_cell", "B", 0);
    result.add("serve.admit_wait_ms", "ms",
               admitWaitMs / static_cast<double>(session.completed));
    result.add("serve.steps_per_item", "count",
               static_cast<double>(session.stepsExecuted) /
                   static_cast<double>(session.completed));
    result.add("serve.peak_in_flight", "count",
               static_cast<double>(session.peakInFlight));
    result.add("campaign.scenario_ms.batched", "ms", median(batchedMs));
    result.add("campaign.scenario_ms.scalar", "ms", median(scalarMs));
    result.add("campaign.scalar_share", "frac", scalarTotal / allTotal);
    result.add("campaign.compile_ms", "ms", median(compileMs));
    result.add("nn.reference_ms_per_item", "ms", median(refMs));
    result.add("resilience.stuck_cells", "count",
               static_cast<double>(faults.stuckCells));
    result.add("resilience.remapped_columns", "count",
               static_cast<double>(faults.remappedColumns));
    writeTraceFiles(opts, tracer);
}

} // namespace

void
runCampaign(const Options &opts, Result &result)
{
    if (opts.trace)
        runTraced(opts, result);
    else
        runUntraced(opts, result);
}

} // namespace perfbench
