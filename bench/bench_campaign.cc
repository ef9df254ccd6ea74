/**
 * @file
 * The Monte Carlo fault-injection campaign lab: sweeps the default
 * scenario suite (write noise x read noise x stuck cells x spares x
 * ADC bits, plus a focused drift grid) on TinyCNN, scores every
 * scenario against the fixed-point reference, and emits
 * BENCH_campaign.json with the full per-scenario table, the
 * accuracy/energy/throughput Pareto frontier, and the
 * agreement-vs-stuck-rate curves at each spare-column budget.
 *
 * The batch size is host-aware: a clean-scenario calibration run
 * sizes the shared input batch so the whole suite fits a sane
 * runtime budget on slow hosts, clamped to [2, 6]. Override with
 * ISAAC_CAMPAIGN_BATCH=<n>.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "campaign/campaign.h"
#include "campaign/runner.h"
#include "core/json_writer.h"

using namespace isaac;

namespace {

constexpr std::uint64_t kMasterSeed = 0xCA3BA16ull;

/**
 * Size the batch for this host: time one clean scenario at batch 2
 * and scale so the suite lands near the budget. Deterministic output
 * either way — batch only changes how many inputs each scenario
 * scores, never how any one scenario draws its faults.
 */
int
chooseBatch(int scenarioCount)
{
    if (const char *env = std::getenv("ISAAC_CAMPAIGN_BATCH")) {
        const int v = std::atoi(env);
        if (v >= 1)
            return v;
    }
    campaign::RunnerOptions probeOpts;
    probeOpts.batch = 2;
    probeOpts.threads = 1;
    const campaign::Runner probe("tinycnn", kMasterSeed, probeOpts);
    campaign::Scenario clean;
    clean.masterSeed = kMasterSeed;
    const auto t0 = std::chrono::steady_clock::now();
    (void)probe.runScenario(clean);
    const double secsPerImage =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        2.0;
    // Read-noise scenarios cost a few times a clean image (one noise
    // draw per sampled column per read); budget ~120 s for the sweep
    // assuming roughly half are noisy.
    constexpr double kBudgetSecs = 120.0;
    const double perScenario =
        kBudgetSecs / static_cast<double>(scenarioCount);
    const int batch = static_cast<int>(
        perScenario / (secsPerImage * 12.0));
    return std::min(6, std::max(2, batch));
}

void
writeJson(const campaign::Report &report, double wallS)
{
    std::FILE *f = std::fopen("BENCH_campaign.json", "w");
    if (!f) {
        std::fprintf(stderr, "bench_campaign: cannot write "
                             "BENCH_campaign.json\n");
        return;
    }
    core::JsonObject root;
    root.field("bench", "campaign");
    // Wall time of the default-suite sweep (Runner::run alone: batch
    // sizing and report printing excluded) and the report's content
    // hash in hex, so a CI log shows speed and determinism together.
    root.field("suite_wall_s", wallS);
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(report.contentHash()));
    root.field("fingerprint", hash);
    root.raw("campaign", report.toJson());
    const std::string text = root.str();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
}

void
printStudy(const campaign::Report &report, double wallS)
{
    std::printf("=== Monte Carlo fault-injection campaign "
                "(%s, %d scenarios, batch %d) ===\n\n",
                report.network.c_str(), report.gridPoints,
                report.batch);
    std::printf("zero-noise self-check: %d scenario(s), "
                "min agreement %.4f, max rel err %g\n",
                report.cleanScenarioCount(),
                report.cleanAgreementMin(), report.cleanMaxRel());
    std::printf("pareto frontier: %zu scenario(s)\n",
                report.paretoFrontier.size());
    std::printf("determinism fingerprint: %016llx (suite wall time "
                "%.1f s)\n\n",
                static_cast<unsigned long long>(report.contentHash()),
                wallS);

    std::printf("%-10s %-8s %-7s %10s %10s %12s\n", "stuck", "mode",
                "spares", "agreement", "max rel",
                "energy/img (J)");
    for (const auto &r : report.scenarios) {
        const auto &s = r.scenario;
        // Print the stuck-cell axis rows (the headline curves);
        // the JSON carries every scenario.
        if (s.writeSigma != 0.0 || s.readSigma != 0.0 ||
            s.driftPerOp != 0.0 || s.adcBits != 0 || s.trial != 0)
            continue;
        std::printf("%-10g %-8s %-7d %10.4f %10.3g %12.3e\n",
                    s.stuckRate,
                    campaign::toToken(s.stuckMode).c_str(),
                    s.spareCols, r.agreement, r.maxRel,
                    r.energyPerImageJ);
    }
    std::printf(
        "\nStuck cells are the dominant axis: past a ~0.2%% rate "
        "the handful of uncorrectable cells that land on "
        "high-order digit columns swamp the outputs, and a small "
        "spare budget only remaps the worst few columns (the same "
        "cliff bench_resilience measures). Gaussian write/read "
        "noise, by contrast, mostly cancels across the bit-serial "
        "reduction. Reduced ADC resolution trades energy for "
        "clipping-driven divergence -- the frontier records which "
        "mixes are efficient.\n\n");
}

void
BM_ScenarioEvaluate(benchmark::State &state)
{
    campaign::RunnerOptions opts;
    opts.batch = 2;
    opts.threads = 1;
    const campaign::Runner runner("tinycnn", kMasterSeed, opts);
    campaign::Scenario s;
    s.masterSeed = kMasterSeed;
    s.stuckRate = 0.005;
    s.spareCols = 2;
    for (auto _ : state) {
        const auto res = runner.runScenario(s);
        benchmark::DoNotOptimize(res.agreement);
    }
}
BENCHMARK(BM_ScenarioEvaluate);

void
runCampaignStudy()
{
    const auto suite = campaign::Grid::defaultSuite();
    int scenarioCount = 0;
    for (const auto &grid : suite) {
        scenarioCount += static_cast<int>(
            grid.enumerate(kMasterSeed).size());
    }
    campaign::RunnerOptions opts;
    opts.batch = chooseBatch(scenarioCount);
    const campaign::Runner runner("tinycnn", kMasterSeed, opts);
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = runner.run(suite);
    const double wallS = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    printStudy(report, wallS);
    writeJson(report, wallS);
}

} // namespace

int
main(int argc, char **argv)
{
    runCampaignStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
