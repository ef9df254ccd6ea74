#include "util.h"

#include <charconv>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "core/json_writer.h"
#include "xbar/batch_kernel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
        static_cast<double>(sysconf(_SC_PAGESIZE));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

Percentile
tailPercentile(std::vector<double> v, std::size_t minBeyond)
{
    Percentile p;
    p.samples = v.size();
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    // Nearest rank: the value at rank r is the r/n percentile. A
    // sample too small for minBeyond keeps half of it beyond.
    p.beyond = std::min(minBeyond, (v.size() - 1) / 2);
    const std::size_t rank = v.size() - p.beyond;
    p.value = v[rank - 1];
    p.pct = 100.0 * static_cast<double>(rank) /
            static_cast<double>(v.size());
    return p;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

CpuTicks
readCpuTicks()
{
    std::ifstream stat("/proc/stat");
    std::string line;
    std::getline(stat, line);
    std::istringstream in(line);
    std::string label;
    in >> label; // "cpu"
    CpuTicks t;
    std::uint64_t col = 0;
    for (int i = 0; in >> col; ++i) {
        t.total += col;
        if (i == 0 || i == 1) // user, nice
            t.user += col;
        if (i == 7)
            t.steal = col;
    }
    // guest/guest_nice (columns 8, 9) are already inside user/nice.
    return t;
}

namespace {

std::string
cpuModel()
{
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

std::string
hostJson(const CpuTicks &before, const CpuTicks &after)
{
    const double total = static_cast<double>(after.total - before.total);
    const double user = static_cast<double>(after.user - before.user);
    const double steal = static_cast<double>(after.steal - before.steal);
    isaac::core::JsonObject o;
    o.field("cpu_model", cpuModel())
        .field("nproc",
               static_cast<int>(std::thread::hardware_concurrency()))
        .field("kernel_tier",
               isaac::xbar::kernel::tierName(
                   isaac::xbar::kernel::activeTier()))
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .raw("steal_share", num(total > 0 ? steal / total : 0.0))
        .raw("steal_vs_user", num(user > 0 ? steal / user : 0.0));
    return o.str();
}

} // namespace perfbench
