#include "plan_tracer.h"

#include <cstdio>

#include "core/json_writer.h"
#include "resilience/health.h"

namespace perfbench {

using isaac::pipeline::StepKind;

namespace {

/** Counters of every engine group of one Dot layer. */
isaac::xbar::EngineStats
layerStats(const isaac::core::CompiledModel &model, std::size_t layer)
{
    isaac::xbar::EngineStats total;
    const auto groups = model.engineGroupCount(layer);
    for (std::int64_t g = 0; g < groups; ++g)
        total.merge(model.engine(layer, g)->stats());
    return total;
}

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

} // namespace

isaac::xbar::EngineStats
minus(const isaac::xbar::EngineStats &a, const isaac::xbar::EngineStats &b)
{
    isaac::xbar::EngineStats d;
    d.ops = a.ops - b.ops;
    d.crossbarReads = a.crossbarReads - b.crossbarReads;
    d.adcSamples = a.adcSamples - b.adcSamples;
    d.adcClips = a.adcClips - b.adcClips;
    d.shiftAdds = a.shiftAdds - b.shiftAdds;
    d.dacActivations = a.dacActivations - b.dacActivations;
    d.adcBitCycles = a.adcBitCycles - b.adcBitCycles;
    return d;
}

isaac::xbar::EngineStats
scaled(const isaac::xbar::EngineStats &s, std::uint64_t n)
{
    isaac::xbar::EngineStats r;
    r.ops = s.ops * n;
    r.crossbarReads = s.crossbarReads * n;
    r.adcSamples = s.adcSamples * n;
    r.adcClips = s.adcClips * n;
    r.shiftAdds = s.shiftAdds * n;
    r.dacActivations = s.dacActivations * n;
    r.adcBitCycles = s.adcBitCycles * n;
    return r;
}

isaac::nn::Tensor
PlanTracer::walk(const isaac::core::CompiledModel &model,
                 const isaac::nn::Tensor &input, const std::string &label)
{
    const auto &plan = model.executionPlan();
    const auto &net = model.network();
    if (_nodes.empty()) {
        _nodes.resize(plan.size());
        for (const auto &node : plan.nodes()) {
            auto &n = _nodes[static_cast<std::size_t>(node.id)];
            n.id = node.id;
            n.kind = node.kind;
            n.layer = net.layer(node.layer).name;
        }
    }
    const bool keep = _images < kKeptImages;
    const std::uint64_t key = model.claimImageKeys(1);
    isaac::resilience::TransientStats local;
    isaac::nn::Tensor cur = input;
    const std::size_t imageSpan = _spans.size();
    if (keep)
        _spans.push_back({-1, key, 0, 0, 0, 0, label});

    const auto imageStart = Clock::now();
    for (const auto &node : plan.nodes()) {
        const bool dot = node.kind == StepKind::Dot;
        isaac::xbar::EngineStats before;
        if (dot)
            before = layerStats(model, node.layer);
        const auto t0 = Clock::now();
        model.executeStep(node, cur, key, local);
        const auto t1 = Clock::now();
        auto &n = _nodes[static_cast<std::size_t>(node.id)];
        ++n.calls;
        n.ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
        std::uint64_t windows = 0, reads = 0;
        if (dot) {
            const auto delta = minus(layerStats(model, node.layer), before);
            windows = static_cast<std::uint64_t>(
                net.layer(node.layer).windowsPerImage());
            reads = delta.crossbarReads;
            n.windows += windows;
            n.engine.merge(delta);
        }
        if (keep) {
            _spans.push_back({node.id, key, micros(t0 - _origin),
                              micros(t1 - t0), windows, reads, {}});
        }
    }
    model.finishImage(local);
    const auto imageEnd = Clock::now();
    _walkNs +=
        std::chrono::duration<double, std::nano>(imageEnd - imageStart)
            .count();
    if (keep) {
        _spans[imageSpan].startUs = micros(imageStart - _origin);
        _spans[imageSpan].durUs = micros(imageEnd - imageStart);
    }
    ++_images;
    return cur;
}

double
PlanTracer::msPerImage(StepKind kind) const
{
    double ns = 0;
    for (const auto &n : _nodes)
        if (n.kind == kind)
            ns += n.ns;
    return _images ? ns * 1e-6 / static_cast<double>(_images) : 0;
}

double
PlanTracer::coverage() const
{
    double ns = 0;
    for (const auto &n : _nodes)
        ns += n.ns;
    return _walkNs > 0 ? ns / _walkNs : 0;
}

double
PlanTracer::nsPerWindow() const
{
    double ns = 0;
    std::uint64_t windows = 0;
    for (const auto &n : _nodes) {
        if (n.kind == StepKind::Dot) {
            ns += n.ns;
            windows += n.windows;
        }
    }
    return windows ? ns / static_cast<double>(windows) : 0;
}

double
PlanTracer::windowsPerDot() const
{
    std::uint64_t calls = 0, windows = 0;
    for (const auto &n : _nodes) {
        if (n.kind == StepKind::Dot) {
            calls += n.calls;
            windows += n.windows;
        }
    }
    return calls ? static_cast<double>(windows) / static_cast<double>(calls)
                 : 0;
}

isaac::xbar::EngineStats
PlanTracer::engineTotals() const
{
    isaac::xbar::EngineStats total;
    for (const auto &n : _nodes)
        total.merge(n.engine);
    return total;
}

std::string
PlanTracer::layerTable(const std::string &title) const
{
    const double images = _images ? static_cast<double>(_images) : 1.0;
    double totalNs = 0;
    for (const auto &n : _nodes)
        totalNs += n.ns;
    std::string out = "=== per-layer: " + title + " (" +
        std::to_string(_images) + " images, serial traced walk) ===\n";
    char row[256];
    std::snprintf(row, sizeof(row), "%4s %-8s %-10s %10s %7s %9s %11s %14s\n",
                  "node", "kind", "layer", "ms/image", "share",
                  "win/call", "ns/window", "reads/image");
    out += row;
    for (const auto &n : _nodes) {
        const bool dot = n.kind == StepKind::Dot;
        std::snprintf(
            row, sizeof(row), "%4d %-8s %-10s %10.4f %6.1f%% %9.0f %11.1f %14.0f\n",
            n.id, isaac::pipeline::toString(n.kind), n.layer.c_str(),
            n.ns * 1e-6 / images, totalNs > 0 ? 100.0 * n.ns / totalNs : 0.0,
            dot && n.calls ? static_cast<double>(n.windows) /
                    static_cast<double>(n.calls)
                           : 0.0,
            dot && n.windows ? n.ns / static_cast<double>(n.windows) : 0.0,
            static_cast<double>(n.engine.crossbarReads) / images);
        out += row;
    }
    std::snprintf(row, sizeof(row),
                  "node self time covers %.2f%% of the walk's %.3f s wall "
                  "time\n",
                  100.0 * coverage(), walkSeconds());
    out += row;
    return out;
}

std::string
PlanTracer::chromeTrace(const std::string &workload) const
{
    isaac::core::JsonArray events;
    for (const auto &s : _spans) {
        isaac::core::JsonObject e;
        isaac::core::JsonObject args;
        args.field("image", s.image);
        if (s.node < 0) {
            e.field("name", "image").field("cat", s.label);
        } else {
            const auto &n = _nodes[static_cast<std::size_t>(s.node)];
            e.field("name", std::string(isaac::pipeline::toString(n.kind)) +
                                " " + n.layer)
                .field("cat", isaac::pipeline::toString(n.kind));
            args.field("node", s.node);
            if (n.kind == StepKind::Dot)
                args.field("windows", s.windows).field("crossbar_reads",
                                                       s.reads);
        }
        e.field("ph", "X")
            .raw("ts", num(s.startUs))
            .raw("dur", num(s.durUs))
            .field("pid", 1)
            .field("tid", 1)
            .raw("args", args.str());
        events.item(e.str());
    }
    isaac::core::JsonObject meta;
    meta.field("workload", workload)
        .field("images_walked", _images)
        .field("images_kept", std::min(_images, kKeptImages));
    isaac::core::JsonObject root;
    root.raw("traceEvents", events.str())
        .field("displayTimeUnit", "ms")
        .raw("otherData", meta.str());
    return root.str();
}

} // namespace perfbench
