/**
 * @file
 * Entry point of the repository benchmark.  Usage:
 *
 *   perfbench --workload <name|all> --seed <n> --seconds <s>
 *             --trace <0|1> [--out <dir>] [--expected <tsv>]
 *             [--commit <id>]
 *
 * Prints the environment stamp, every metric with its unit, the
 * deterministic outputs (as expected.tsv lines) and any failure, then
 * as the last line one JSON object: correct, attempted, failed,
 * metrics.  See README.md for the workloads and metrics.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"

// Instrumented builds are detected through their runtime's symbols:
// GCC defines no macro for --coverage or -fsanitize=undefined.
extern "C" void __gcov_dump(void) __attribute__((weak));
extern "C" void __ubsan_handle_add_overflow(void *, void *, void *)
    __attribute__((weak));

using namespace perfbench;

namespace
{

const char *const kWorkloads[] = {"linecard_backlog", "linecard_sparse",
                                  "switch_sweep", "crossbar_16"};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<linecard_backlog|linecard_sparse|switch_sweep|"
                 "crossbar_16|all> --seed <n> --seconds <s> --trace <0|1>"
                 " [--out <dir>] [--expected <tsv>] [--commit <id>]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseU64(const char *s, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const auto v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        usage((std::string("bad ") + what + ": " + s).c_str());
    return v;
}

/** Environment stamp; @return false for builds whose timings mean
 *  nothing (unoptimised, assertions on, sanitizers, coverage). */
bool
stamp(const Options &opt, const std::string &commit)
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    bool sanitizer = true;
#else
    bool sanitizer = false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    sanitizer = true;
#endif
#endif
    sanitizer = sanitizer || __ubsan_handle_add_overflow != nullptr;
    const bool coverage = __gcov_dump != nullptr;
#ifdef __clang__
    const char *compiler = "clang";
#else
    const char *compiler = "gcc";
#endif
    std::printf("env: nproc=%u jobs=%u compiler=\"%s %s\" commit=%s"
                " optimize=%d ndebug=%d sanitizer=%d coverage=%d\n",
                std::thread::hardware_concurrency(), opt.jobs, compiler,
                __VERSION__, commit.c_str(), optimized, ndebug,
                sanitizer, coverage);
    return optimized && ndebug && !sanitizer && !coverage;
}

Report
runOne(const Options &opt, const std::string &workload)
{
    if (workload == "linecard_backlog")
        return runWorkload(opt, linecardWorkload(opt, true));
    if (workload == "linecard_sparse")
        return runWorkload(opt, linecardWorkload(opt, false));
    if (workload == "switch_sweep")
        return runWorkload(opt, switchWorkload(opt));
    return runWorkload(opt, crossbarWorkload(opt));
}

void
printNumber(std::string &out, double v)
{
    char buf[64];
    if (!std::isfinite(v))
        v = 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string commit = "unknown";
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = parseU64(v, "seed");
        else if (a == "--seconds")
            opt.seconds = static_cast<double>(parseU64(v, "seconds"));
        else if (a == "--trace") {
            const auto t = parseU64(v, "trace");
            if (t > 1)
                usage("--trace takes 0 or 1");
            opt.trace = t == 1;
            have_trace = true;
        } else if (a == "--out")
            opt.outDir = v;
        else if (a == "--expected")
            opt.expectedPath = v;
        else if (a == "--commit")
            commit = v;
        else
            usage(("unknown argument " + a).c_str());
    }
    std::vector<std::string> workloads;
    for (const char *w : kWorkloads)
        if (opt.workload == w || opt.workload == "all")
            workloads.push_back(w);
    if (workloads.empty())
        usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!have_trace)
        usage("--trace is required");
    opt.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    if (!stamp(opt, commit)) {
        std::fprintf(stderr, "perfbench: refusing to report timings from"
                             " an unoptimised, assertion, sanitizer or"
                             " coverage build\n");
        return 3;
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<Metric> metrics;
    for (const auto &w : workloads) {
        const Report rep = runOne(opt, w);
        attempted += rep.attempted;
        failed += rep.failed;
        const std::string prefix = workloads.size() > 1 ? w + "." : "";
        std::printf("[%s] attempted=%llu failed=%llu failed_frac=%.6g\n",
                    w.c_str(),
                    static_cast<unsigned long long>(rep.attempted),
                    static_cast<unsigned long long>(rep.failed),
                    rep.attempted ? static_cast<double>(rep.failed) /
                                        static_cast<double>(rep.attempted)
                                  : 1.0);
        for (const auto &m : rep.metrics) {
            std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
            metrics.push_back({prefix + m.name, m.value, m.unit});
        }
        for (const auto &[k, v] : rep.outputs)
            std::printf("expect\t%s\t%llu\t%s\t%llu\n", w.c_str(),
                        static_cast<unsigned long long>(opt.seed),
                        k.c_str(), static_cast<unsigned long long>(v));
        for (const auto &f : rep.failures)
            std::printf("FAIL [%s] %s\n", w.c_str(), f.c_str());
    }

    std::string json = "{\"correct\": ";
    json += failed == 0 && attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": ";
        printNumber(json, metrics[i].value);
        json += ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
