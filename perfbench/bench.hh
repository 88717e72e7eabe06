/**
 * @file
 * Shared plumbing of the repository benchmark: options, jobs and
 * workloads, the run report, deterministic-output checks, latency
 * histograms and the span log of the traced run.
 *
 * The benchmark drives the pktbuf library from outside, through its
 * public calls only; every span and timer lives in these files.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "buffer/packet_buffer.hh"
#include "sim/scenario.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measuring time per workload (host seconds). */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Directory for emitted artifacts and the span file. */
    std::string outDir = ".";
    /** expected.tsv: recorded deterministic outputs per seed. */
    std::string expectedPath;
    /** Sweep pool size: min(4, nproc). */
    unsigned jobs = 1;
};

/**
 * Deterministic outputs of one job (simulated counts, high-waters,
 * artifact hashes).  Every job of a run must reproduce them exactly,
 * whatever the engine and whether traced or not.  Every workload
 * fills slots, grants and delay_sum for its timed phase (line cards:
 * the steady phase; switch: every port's main phase; crossbar: the
 * fabric's main phase), plus addReport()'s keys.  Line cards add
 * steady_* deltas, the basis of their per-slot layer metrics.
 */
using Outputs = std::map<std::string, std::uint64_t>;

/** One run of a workload's user path, start to drained. */
struct Job
{
    Outputs out;
    /** Operations (legs, ports, inputs) that failed inside the job. */
    std::uint64_t failedOps = 0;
    std::string failure;
    /** Throughput samples of the timed phase (slots per second). */
    std::vector<double> rates;
    /** Host seconds from construction to drained and emitted. */
    double wall = 0.0;
    /** Per-layer timing samples, keyed by metric name (traced jobs). */
    std::map<std::string, double> layers;

    /** Run `fn`, adding its host time to the wall time. */
    template <typename Fn>
    double
    timed(Fn &&fn)
    {
        const auto t0 = Clock::now();
        fn();
        const double s = secondsSince(t0);
        wall += s;
        return s;
    }
};

/** Add a buffer's end-of-job counters to `o`: sums, and maxima for
 *  the high-waters. */
void addReport(Outputs &o, const pktbuf::buffer::BufferReport &r);

/** Add one scenario leg (a switch port or a crossbar input): its
 *  buffer's counters plus its main-phase grants, delay and the golden
 *  and drain totals. */
void addOutcome(Outputs &o, const pktbuf::sim::ScenarioOutcome &leg);

/** How one side of a job pair runs. */
struct Mode
{
    bool event = true;    //!< event engine, else the reference engine
    bool traced = false;  //!< per-call spans and histograms
};

inline const char *
modeName(const Mode &m)
{
    return m.traced ? "traced" : m.event ? "event" : "reference";
}

/**
 * A workload: what to construct, and how to run one job pair.  A run
 * repeats pairs: (event, reference) untraced, (traced event,
 * untraced event) traced.  Where memory allows, the two jobs of a
 * pair step in alternation, chunk by chunk, so both modes sample the
 * same stretches of host time.
 */
struct Workload
{
    std::string name;
    /** Operations one job attempts (1 leg, 16 ports, 16 inputs). */
    std::uint64_t opsPerJob = 1;
    /** Construction up to the first slot; timed for setup_s. */
    std::function<void()> setup;
    std::function<std::array<Job, 2>(const std::array<Mode, 2> &,
                                     std::size_t span)>
        run;
};

Workload linecardWorkload(const Options &opt, bool backlog);
Workload switchWorkload(const Options &opt);
Workload crossbarWorkload(const Options &opt);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** The first job's outputs, printed as expected.tsv lines. */
    Outputs outputs;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    fail(std::uint64_t ops, const std::string &why)
    {
        failed += ops;
        failures.push_back(why);
    }
};

/** Run a workload for opt.seconds and report its metrics. */
Report runWorkload(const Options &opt, const Workload &wl);

/** p-quantile of a sample, linearly interpolated; 0 when empty. */
double quantile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Latency histogram of one call site: 1 ns buckets up to 64 us,
 *  plus an overflow bucket. */
class Histogram
{
  public:
    Histogram() : buckets_(kBuckets + 1, 0) {}

    void
    add(std::uint64_t ns)
    {
        ++buckets_[ns < kBuckets ? ns : kBuckets];
        ++count_;
        sum_ += ns;
    }

    std::uint64_t sum() const { return sum_; }
    /** p-quantile in ns (nearest rank); 0 when empty. */
    double quantile(double p) const;

  private:
    static constexpr std::uint64_t kBuckets = 1u << 16;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Coarse spans (jobs, phases, sweep tasks): name, start, end and the
 * span that caused it.  Kept in memory and written out as JSON lines
 * when a traced run ends.  Hot call sites (one call per slot) record
 * into Histograms instead.  One log per process, main thread only.
 */
class SpanLog
{
  public:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    SpanLog() : origin_(Clock::now()) {}

    /** Open a span; @return its id. */
    std::size_t open(const std::string &name, std::size_t parent);
    /** Close a span; @return its duration in seconds. */
    double close(std::size_t id);
    /** Record a span timed by the caller. */
    std::size_t add(const std::string &name, std::size_t parent,
                    Clock::time_point start, Clock::time_point end);

    void write(const std::string &path) const;
    void clear() { spans_.clear(); }

  private:
    struct Span
    {
        std::string name;
        std::size_t parent;
        Clock::time_point start;
        Clock::time_point end;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** The process's span log. */
SpanLog &spans();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
