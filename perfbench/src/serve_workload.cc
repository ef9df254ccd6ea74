/**
 * @file
 * The closed-loop serving workloads.
 *
 * serve-conv: nn::vgg(1)'s first four 3x3 convolutions (64, 128,
 *   256, 256 maps with VGG's 2x2 pools) on a 32x32 RGB image, then a
 *   10-way classifier. Every Dot call carries 64-1024 windows, so the
 *   batched popcount GEMM does most of the work.
 * serve-fc: a classifier stack 1024 -> 1024 -> 1024 -> 512 -> 10.
 *   Every Dot call has one window (n = 1), and the model is
 *   weight-heavy, so the per-window path, session step overhead,
 *   crossbar storage and program-verify dominate.
 *
 * One client keeps kDepth requests outstanding on an InferenceSession
 * with kWorkers workers and blocks on the oldest future (no polling).
 * Engines run serially (threads = 1), so at most kWorkers threads
 * compute. Every output is compared with nn::ReferenceExecutor.
 */

#include <deque>
#include <functional>
#include <future>

#include "core/accelerator.h"
#include "nn/reference.h"
#include "nn/weights.h"
#include "pipeline/execution_plan.h"
#include "pipeline/replication.h"
#include "plan_tracer.h"
#include "serve/session.h"
#include "report.h"
#include "workload.h"

namespace perfbench {

using namespace isaac;

namespace {

constexpr int kWorkers = 3;          ///< Session scheduler workers.
constexpr std::size_t kDepth = 4;    ///< Client requests outstanding.
constexpr int kSetupReps = 5;        ///< Cold set-ups per run (median).
constexpr std::uint64_t kWeightSalt = 0x5E12F00Dull;
const FixedFormat kFormat{12};

struct ServeSpec
{
    const char *name;
    /**
     * Distinct images cycled by the client. Large enough that the
     * engines' per-tile digit-vector memo (64 entries, about 8 per
     * image) never replays one image's readings for the next visit.
     */
    std::size_t pool;
    nn::Network (*build)();
};

nn::Network
convStack()
{
    nn::NetworkBuilder b("VGG1-conv4", 3, 32, 32);
    b.conv(3, 64).maxPool(2, 2);  // 32 -> 16
    b.conv(3, 128).maxPool(2, 2); // 16 -> 8
    b.conv(3, 256).conv(3, 256).maxPool(2, 2); // 8 -> 4
    b.fc(10, nn::Activation::None);
    return b.build();
}

nn::Network
fcStack()
{
    nn::NetworkBuilder b("FC-stack", 1024, 1, 1);
    b.fc(1024).fc(1024).fc(512).fc(10, nn::Activation::None);
    return b.build();
}

const ServeSpec kSpecs[] = {
    {"serve-conv", 32, convStack},
    {"serve-fc", 256, fcStack},
};

arch::IsaacConfig
engineConfig()
{
    arch::IsaacConfig cfg;
    cfg.engine.threads = 1; // Parallelism comes from the session only.
    return cfg;
}

serve::SessionOptions
sessionOptions()
{
    serve::SessionOptions so;
    so.queueDepth = kDepth;
    so.workers = kWorkers;
    return so;
}

/** The generated inputs of one run and their reference outputs. */
struct Workload
{
    nn::Network net;
    nn::WeightStore weights;
    std::vector<nn::Tensor> inputs;
    std::vector<nn::Tensor> expected;
    double referenceMsPerItem = 0;
};

Workload
makeWorkload(const ServeSpec &spec, const Options &opts)
{
    auto net = spec.build();
    auto weights = nn::WeightStore::synthesize(net, opts.seed ^ kWeightSalt);
    Workload w{std::move(net), std::move(weights), {}, {}, 0};
    const auto &l0 = w.net.layer(0);
    const nn::ReferenceExecutor ref(w.net, w.weights, kFormat, /*threads=*/1);
    std::vector<double> ms;
    for (std::size_t i = 0; i < spec.pool; ++i) {
        w.inputs.push_back(nn::synthesizeInput(
            l0.ni, l0.nx, l0.ny, opts.seed * 1000003ull + i, kFormat));
        const auto t0 = Clock::now();
        w.expected.push_back(ref.run(w.inputs.back()));
        ms.push_back(millis(Clock::now() - t0));
    }
    w.referenceMsPerItem = median(ms);
    if (opts.corrupt)
        w.expected[0].raw()[0] ^= 1;
    return w;
}

/** Timings of the cold set-ups of one run. */
struct SetupTimes
{
    std::vector<double> totalS;   ///< Compile start -> first result.
    std::vector<double> compileS; ///< Accelerator::compile alone.
    std::vector<double> firstS;   ///< Session + first inference.
    double rssBytesPerCell = 0;   ///< First compile's RSS growth / cell.
    int arrays = 0;
    xbar::EngineStats perItem; ///< Engine counters of one inference.
};

/**
 * kSetupReps cold set-ups: compile, open a session, serve the first
 * image and check it. `body` then runs on the last compiled model.
 */
SetupTimes
runSetups(const Workload &w, Tally &tally,
          const std::function<void(const core::CompiledModel &,
                                   const SetupTimes &)> &body)
{
    SetupTimes st;
    const auto cfg = engineConfig();
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double rss0 = currentRssBytes();
        const auto t0 = Clock::now();
        const core::Accelerator acc(cfg);
        const auto model = acc.compile(w.net, w.weights, {});
        const auto t1 = Clock::now();
        bool ok = false;
        try {
            serve::InferenceSession session(model, sessionOptions());
            const auto out = session.submit(w.inputs[0]).get();
            ok = out.raw() == w.expected[0].raw();
        } catch (const std::exception &e) {
            tally.record(false, std::string("setup inference: ") + e.what());
        }
        const auto t2 = Clock::now();
        tally.record(ok, "setup: first result differs from reference");
        st.totalS.push_back(seconds(t2 - t0));
        st.compileS.push_back(seconds(t1 - t0));
        st.firstS.push_back(seconds(t2 - t1));
        const auto counters = model.engineStats();
        if (rep == 0) {
            st.arrays = model.functionalArrays();
            const double cells = static_cast<double>(st.arrays) *
                cfg.engine.rows * cfg.engine.cols;
            st.rssBytesPerCell = (currentRssBytes() - rss0) / cells;
            st.perItem = counters;
        } else {
            tally.record(counters == st.perItem,
                         "setup: engine counters differ between set-ups");
        }
        if (rep + 1 == kSetupReps)
            body(model, st);
    }
    return st;
}

/** What one closed-loop run measured. */
struct LoopStats
{
    std::uint64_t completed = 0;
    double wallS = 0;
    double cpuS = 0;
    std::vector<double> latencyMs;
    double admitWaitMs = 0; ///< Summed time submit() blocked.
    serve::SessionStats session;
};

/**
 * The closed loop: keep kDepth requests outstanding for `secs`
 * seconds, blocking on the oldest future, then drain. Each output is
 * checked against the reference, and the engine counters must grow by
 * exactly one image's worth per request.
 */
LoopStats
closedLoop(const core::CompiledModel &model, const Workload &w,
           const xbar::EngineStats &perItem, double secs, Tally &tally)
{
    struct Pending
    {
        std::future<nn::Tensor> fut;
        Clock::time_point submitted;
        std::size_t idx;
    };
    LoopStats ls;
    const auto before = model.engineStats();
    serve::InferenceSession session(model, sessionOptions());
    std::deque<Pending> pending;
    std::size_t next = 0;
    auto submitNext = [&] {
        Pending p;
        p.idx = next++ % w.inputs.size();
        p.submitted = Clock::now();
        p.fut = session.submit(w.inputs[p.idx]);
        ls.admitWaitMs += millis(Clock::now() - p.submitted);
        pending.push_back(std::move(p));
    };

    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(secs));
    auto last = start;
    for (std::size_t i = 0; i < kDepth; ++i)
        submitNext();
    while (!pending.empty()) {
        Pending p = std::move(pending.front());
        pending.pop_front();
        bool ok = false;
        try {
            ok = p.fut.get().raw() == w.expected[p.idx].raw();
        } catch (const std::exception &e) {
            tally.record(false, std::string("request: ") + e.what());
        }
        last = Clock::now();
        tally.record(ok, "request: output differs from reference");
        ls.latencyMs.push_back(millis(last - p.submitted));
        ++ls.completed;
        if (last < deadline)
            submitNext();
    }
    ls.wallS = seconds(last - start);
    ls.cpuS = processCpuSeconds() - cpu0;
    session.shutdown();
    ls.session = session.stats();

    tally.record(minus(model.engineStats(), before) ==
                     scaled(perItem, ls.completed),
                 "loop: engine counters are not one image's worth per "
                 "request");
    const auto &ss = ls.session;
    tally.record(ss.completed == ss.submitted && ss.rejected == 0 &&
                     ss.timedOut == 0 && ss.healFailed == 0,
                 "loop: session rejected, timed out or failed requests");
    return ls;
}

} // namespace

bool
isServeWorkload(const std::string &name)
{
    for (const auto &s : kSpecs)
        if (name == s.name)
            return true;
    return false;
}

void
runServe(const Options &opts, Result &result)
{
    const ServeSpec *spec = nullptr;
    for (const auto &s : kSpecs)
        if (opts.workload == s.name)
            spec = &s;
    const auto w = makeWorkload(*spec, opts);
    auto &tally = result.tally;

    if (!opts.trace) {
        LoopStats ls;
        const auto st = runSetups(
            w, tally,
            [&](const core::CompiledModel &model, const SetupTimes &setup) {
                ls = closedLoop(model, w, setup.perItem, opts.seconds, tally);
            });
        result.add("setup_s", "s", median(st.totalS));
        result.add("items_per_s", "1/s",
                   static_cast<double>(ls.completed) / ls.wallS);
        addLatencyMetrics(result, ls.latencyMs);
        result.add("cpu_ms_per_item", "ms",
                   1e3 * ls.cpuS / static_cast<double>(ls.completed));
        result.add("peak_rss_mb", "MB", peakRssMb());
        result.details.field("items", ls.completed)
            .field("session_workers", kWorkers)
            .field("client_depth", static_cast<std::uint64_t>(kDepth))
            .field("input_pool", static_cast<std::uint64_t>(w.inputs.size()))
            .raw("setup_s_all", numArray(st.totalS));
        return;
    }

    // Traced run: set-up split into its parts, then the traced walk
    // interleaved image by image with an untraced serial infer() loop,
    // so host drift hits both alike, then a short closed loop for the
    // session's own counters. The two loops visit the pool half a pool
    // apart, so neither replays the other's memoized readings.
    std::vector<double> planS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        const auto plan = pipeline::planPipeline(w.net, engineConfig(), 1);
        const auto ir = pipeline::ExecutionPlan::lower(w.net, plan);
        planS.push_back(seconds(Clock::now() - t0));
        tally.record(ir.topologicallyOrdered(), "plan: not topological");
    }

    PlanTracer tracer;
    double serialS = 0;
    std::uint64_t images = 0;
    LoopStats ls;
    const auto st = runSetups(w, tally, [&](const core::CompiledModel &model,
                                            const SetupTimes &setup) {
        const auto pool = w.inputs.size();
        const auto before = model.engineStats();
        const auto t0 = Clock::now();
        while (seconds(Clock::now() - t0) < 0.75 * opts.seconds) {
            const auto walked = images % pool;
            const auto served = (images + pool / 2) % pool;
            ++images;
            const auto s0 = Clock::now();
            const auto out = model.infer(w.inputs[served]);
            serialS += seconds(Clock::now() - s0);
            tally.record(out.raw() == w.expected[served].raw(),
                         "serial infer: output differs from reference");
            tally.record(tracer.walk(model, w.inputs[walked], "walk").raw() ==
                             w.expected[walked].raw(),
                         "traced walk: output differs from reference");
        }
        tally.record(tracer.engineTotals() == scaled(setup.perItem, images) &&
                         minus(model.engineStats(), before) ==
                             scaled(setup.perItem, 2 * images),
                     "traced walk: engine counters are not one image's "
                     "worth per image");
        ls = closedLoop(model, w, setup.perItem, 0.25 * opts.seconds, tally);
    });

    const double serialMsPerItem =
        1e3 * serialS / static_cast<double>(images);
    const double walkMsPerItem =
        1e3 * tracer.walkSeconds() / static_cast<double>(tracer.images());
    addLayerMetrics(result, tracer);
    result.add("core.compile_s", "s", median(st.compileS));
    result.add("core.first_result_s", "s", median(st.firstS));
    result.add("pipeline.plan_s", "s", median(planS));
    result.add("core.infer_serial_items_per_s", "1/s", 1e3 / serialMsPerItem);
    result.add("core.trace_overhead_frac", "frac",
               walkMsPerItem / serialMsPerItem - 1.0);
    result.add("xbar.arrays", "count", st.arrays);
    result.add("xbar.rss_bytes_per_cell", "B", st.rssBytesPerCell);
    result.add("serve.admit_wait_ms", "ms",
               ls.admitWaitMs / static_cast<double>(ls.completed));
    result.add("serve.steps_per_item", "count",
               static_cast<double>(ls.session.stepsExecuted) /
                   static_cast<double>(ls.session.completed));
    result.add("serve.peak_in_flight", "count",
               static_cast<double>(ls.session.peakInFlight));
    result.add("campaign.scenario_ms.batched", "ms", 0);
    result.add("campaign.scenario_ms.scalar", "ms", 0);
    result.add("campaign.scalar_share", "frac", 0);
    result.add("campaign.compile_ms", "ms", 0);
    result.add("nn.reference_ms_per_item", "ms", w.referenceMsPerItem);
    result.add("resilience.stuck_cells", "count", 0);
    result.add("resilience.remapped_columns", "count", 0);
    writeTraceFiles(opts, tracer);
}

} // namespace perfbench
