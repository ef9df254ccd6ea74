/**
 * @file
 * Entry point of the end-to-end benchmark.
 *
 *   perfbench --workload <serve-conv|serve-fc|campaign-mixed>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--corrupt]
 *
 * With --trace 0 the run measures the end-to-end metrics; with
 * --trace 1 it makes the separate traced run that yields the
 * per-layer metrics. The last line on stdout is the result object;
 * the exit code is 0 whenever a result was printed. Records, layer
 * tables and traces go to perfbench/out/ under the working directory.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

void
Tally::record(bool ok, const std::string &what)
{
    constexpr std::uint64_t kPrintedFailures = 5;
    ++_attempted;
    if (ok)
        return;
    if (++_failed <= kPrintedFailures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<serve-conv|serve-fc|campaign-mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--corrupt]\n",
                 why.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corrupt") {
            o.corrupt = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                o.workload = value;
                haveWorkload = true;
            } else if (arg == "--seed") {
                o.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value);
            } else if (arg == "--trace") {
                o.trace = std::stoi(value) != 0;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    if (!isServeWorkload(o.workload) && o.workload != "campaign-mixed")
        usage("unknown workload " + o.workload);
    return o;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opts = parse(argc, argv);
    Result result;
    const CpuTicks ticks0 = readCpuTicks();
    try {
        if (isServeWorkload(opts.workload))
            runServe(opts, result);
        else
            runCampaign(opts, result);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                     opts.workload.c_str(), e.what());
        return 1;
    }
    emitResult(opts, result, hostJson(ticks0, readCpuTicks()));
    return 0;
}
