/**
 * @file
 * The measuring loop shared by every workload, and the metrics it
 * derives from jobs (see README.md for their definitions).
 */

#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench
{

namespace
{

/** Set-up repetitions before each job; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Per-layer metrics (--trace 1) with their units.  A workload that
 *  never enters a layer reports 0 for it (README.md lists which). */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"buffer.step_ns.p50", "ns"},
    {"buffer.step_ns.p99", "ns"},
    {"buffer.step_ns_per_slot", "ns"},
    {"buffer.admit_ns.p50", "ns"},
    {"sim.workload_ns.p50", "ns"},
    {"sim.golden_ns.p50", "ns"},
    {"sim.drain_s", "s"},
    {"sim.delay_mean_slots", "slots"},
    {"dram.reads_per_slot", "1/slot"},
    {"dram.writes_per_slot", "1/slot"},
    {"dram.resident_cells", "cells"},
    {"buffer.bypass_frac", "ratio"},
    {"dss.stalls_per_slot", "1/slot"},
    {"dss.stalls.bank_busy", "count"},
    {"dss.stalls.refresh", "count"},
    {"dss.stalls.turnaround", "count"},
    {"dss.rr_hw", "entries"},
    {"dss.orr_hw", "entries"},
    {"sram.head_hw", "cells"},
    {"sram.tail_hw", "cells"},
    {"rename.renames", "count"},
    {"rename.recycles", "count"},
    {"soak.save_ms", "ms"},
    {"soak.restore_ms", "ms"},
    {"soak.ckpt_mb", "MiB"},
    {"sweep.parallel_eff", "ratio"},
    {"sweep.task_s.p50", "s"},
    {"sweep.task_s.max", "s"},
    {"sweep.emit_ms", "ms"},
    {"crossbar.slot_ns", "ns"},
    {"crossbar.finish_s", "s"},
    {"crossbar.sched_ns.p50", "ns"},
    {"crossbar.sched_ns.p99", "ns"},
    {"crossbar.match_eff", "ratio"},
    {"crossbar.iters_mean", "iterations"},
    {"bench.trace_overhead", "ratio"},
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * Throughput this host sustains in 9 samples out of 10.  The hosts
 * this was tuned on alternate between an uncontended state and one
 * about half as fast (a co-tenant on the core) every second or so; a
 * median would report the tenants' mix, while both tails stay put.
 */
double
sustainedRate(const std::vector<double> &rates)
{
    return quantile(rates, 0.1);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string
diff(const Outputs &want, const Outputs &got, const std::string &what)
{
    std::ostringstream os;
    for (const auto &[k, v] : want) {
        const auto it = got.find(k);
        if (it == got.end())
            os << " " << k << " missing (" << what << " " << v << ")";
        else if (it->second != v)
            os << " " << k << "=" << it->second << " (" << what << " "
               << v << ")";
    }
    for (const auto &[k, v] : got)
        if (!want.count(k))
            os << " " << k << "=" << v << " (absent from " << what << ")";
    return os.str();
}

/**
 * Compares each job's outputs with the run's first job, and the first
 * job's with the recorded outputs for (workload, seed) when
 * expected.tsv has them.
 */
class OutputCheck
{
  public:
    OutputCheck(const Options &opt, const std::string &workload)
        : seed_(opt.seed)
    {
        std::ifstream in(opt.expectedPath);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream ls(line);
            std::string wl, key;
            std::uint64_t seed = 0, value = 0;
            if (ls >> wl >> seed >> key >> value && wl == workload &&
                seed == seed_) {
                expected_[key] = value;
            }
        }
    }

    /** @return an empty string when `o` matches, else a diagnosis. */
    std::string
    check(const Outputs &o, const std::string &label)
    {
        if (!have_first_) {
            first_ = o;
            have_first_ = true;
            if (expected_.empty())
                return {};
            const auto d = diff(expected_, o, "expected");
            return d.empty() ? d
                             : label + ": outputs differ from expected.tsv"
                                       " for seed " +
                                   std::to_string(seed_) + ":" + d;
        }
        const auto d = diff(first_, o, "first job");
        return d.empty() ? d
                         : label + ": outputs differ from the first job:" +
                               d;
    }

    const Outputs &reference() const { return first_; }

  private:
    std::uint64_t seed_;
    Outputs expected_;
    Outputs first_;
    bool have_first_ = false;
};

/** The per-layer metrics that are counts, from a job's outputs.  The
 *  per-slot basis is the steady phase where a job has one (line
 *  cards), else every buffer slot, drain included. */
void
countMetrics(const Outputs &o, Report &rep)
{
    auto get = [&o](const std::string &k) {
        const auto it = o.find(k);
        return static_cast<double>(it == o.end() ? 0 : it->second);
    };
    const bool steady = o.count("steady_dram_reads") > 0;
    auto basis = [&](const std::string &k) {
        return get(steady ? "steady_" + k : k);
    };
    const double slots = steady ? get("slots") : get("buffer_slots");
    const double grants = steady ? get("grants") : get("golden_verified");
    rep.metric("sim.delay_mean_slots", ratio(get("delay_sum"), get("grants")),
               "slots");
    rep.metric("dram.reads_per_slot", ratio(basis("dram_reads"), slots),
               "1/slot");
    rep.metric("dram.writes_per_slot", ratio(basis("dram_writes"), slots),
               "1/slot");
    rep.metric("dram.resident_cells", get("resident_cells"), "cells");
    rep.metric("buffer.bypass_frac", ratio(basis("bypasses"), grants),
               "ratio");
    rep.metric("dss.stalls_per_slot", ratio(basis("dsa_stalls"), slots),
               "1/slot");
    rep.metric("dss.stalls.bank_busy", get("stalls_bank_busy"), "count");
    rep.metric("dss.stalls.refresh", get("stalls_refresh"), "count");
    rep.metric("dss.stalls.turnaround", get("stalls_turnaround"), "count");
    rep.metric("dss.rr_hw", get("rr_hw"), "entries");
    rep.metric("dss.orr_hw", get("orr_hw"), "entries");
    rep.metric("sram.head_hw", get("head_sram_hw"), "cells");
    rep.metric("sram.tail_hw", get("tail_sram_hw"), "cells");
    rep.metric("rename.renames", get("renames"), "count");
    rep.metric("rename.recycles", get("rename_recycles"), "count");
    rep.metric("soak.ckpt_mb", get("ckpt_bytes") / (1 << 20), "MiB");
}

} // namespace

void
addReport(Outputs &o, const pktbuf::buffer::BufferReport &r)
{
    o["buffer_slots"] += r.slots;
    o["dram_reads"] += r.dramReads;
    o["dram_writes"] += r.dramWrites;
    o["bypasses"] += r.bypasses;
    o["dsa_stalls"] += r.dsaStalls;
    o["stalls_bank_busy"] += r.dsaStallsBankBusy;
    o["stalls_refresh"] += r.dsaStallsRefresh;
    o["stalls_turnaround"] += r.dsaStallsTurnaround;
    o["renames"] += r.renames;
    o["rename_recycles"] += r.renameRecycles;
    auto hw = [&o](const char *k, std::int64_t v) {
        o[k] = std::max(o[k], static_cast<std::uint64_t>(v));
    };
    hw("head_sram_hw", r.headSramHighWater);
    hw("tail_sram_hw", r.tailSramHighWater);
    hw("rr_hw", r.rrHighWater);
    hw("orr_hw", r.orrHighWater);
}

void
addOutcome(Outputs &o, const pktbuf::sim::ScenarioOutcome &leg)
{
    addReport(o, leg.report);
    o["grants"] += leg.run.grants;
    // meanDelaySlots is an integer delay sum over the grant count.
    o["delay_sum"] += static_cast<std::uint64_t>(std::llround(
        leg.run.meanDelaySlots * static_cast<double>(leg.run.grants)));
    o["arrivals"] += leg.run.arrivals;
    o["drops"] += leg.run.drops;
    o["drained"] += leg.drained;
    o["golden_verified"] += leg.verified;
    o["undelivered"] += leg.undelivered;
}

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
Histogram::quantile(double p) const
{
    if (count_ == 0)
        return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::uint64_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return static_cast<double>(i);
    }
    return static_cast<double>(kBuckets);
}

std::size_t
SpanLog::open(const std::string &name, std::size_t parent)
{
    const auto t = Clock::now();
    return add(name, parent, t, t);
}

double
SpanLog::close(std::size_t id)
{
    spans_[id].end = Clock::now();
    return std::chrono::duration<double>(spans_[id].end - spans_[id].start)
        .count();
}

std::size_t
SpanLog::add(const std::string &name, std::size_t parent,
             Clock::time_point start, Clock::time_point end)
{
    spans_.push_back({name, parent, start, end});
    return spans_.size() - 1;
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":";
        if (s.parent == kNone)
            os << "null";
        else
            os << s.parent;
        os << ",\"start_ns\":" << nsBetween(origin_, s.start)
           << ",\"end_ns\":" << nsBetween(origin_, s.end) << "}\n";
    }
}

SpanLog &
spans()
{
    static SpanLog log;
    return log;
}

Report
runWorkload(const Options &opt, const Workload &wl)
{
    Report rep;
    OutputCheck check(opt, wl.name);
    spans().clear();
    const auto root = spans().open(wl.name, SpanLog::kNone);

    // Set-up is sampled before every pair, so its samples spread over
    // the whole run.
    const std::array<Mode, 2> modes =
        opt.trace ? std::array<Mode, 2>{Mode{true, true}, Mode{true, false}}
                  : std::array<Mode, 2>{Mode{true, false}, Mode{false, false}};
    std::vector<double> setup, rates[2], wall;
    std::map<std::string, std::vector<double>> layers;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i == 0 || secondsSince(t0) < opt.seconds; ++i) {
        for (int k = 0; k < kSetupReps; ++k) {
            const auto s0 = Clock::now();
            wl.setup();
            setup.push_back(secondsSince(s0));
        }
        const std::string label = "pair" + std::to_string(i);
        const auto span = spans().open(label, root);
        rep.attempted += 2 * wl.opsPerJob;
        try {
            const auto jobs = wl.run(modes, span);
            for (std::size_t m = 0; m < 2; ++m) {
                const Job &j = jobs[m];
                const std::string who = label + "." + modeName(modes[m]);
                if (j.failedOps)
                    rep.fail(j.failedOps, who + ": " + j.failure);
                const auto why = check.check(j.out, who);
                if (!why.empty()) {
                    rep.fail(wl.opsPerJob - j.failedOps, why);
                    continue;
                }
                if (j.failedOps)
                    continue;
                rates[m].insert(rates[m].end(), j.rates.begin(),
                                j.rates.end());
                if (m == 0 && !opt.trace)
                    wall.push_back(j.wall);
                if (modes[m].traced)
                    for (const auto &[k, v] : j.layers)
                        layers[k].push_back(v);
            }
        } catch (const std::exception &e) {
            rep.fail(2 * wl.opsPerJob, label + ": " + e.what());
        }
        spans().close(span);
    }
    spans().close(root);

    const Outputs &o = check.reference();
    rep.outputs = o;
    if (!opt.trace) {
        auto get = [&o](const char *k) {
            const auto it = o.find(k);
            return static_cast<double>(it == o.end() ? 0 : it->second);
        };
        rep.metric("slots_per_s", sustainedRate(rates[0]), "1/s");
        rep.metric("slots_per_s.ref", sustainedRate(rates[1]), "1/s");
        rep.metric("setup_s", median(setup), "s");
        rep.metric("wall_s", quantile(wall, 0.9), "s");
        rep.metric("peak_rss_mb", peakRssMb(), "MiB");
        rep.metric("sim.grants_per_slot", ratio(get("grants"), get("slots")),
                   "1/slot");
        return rep;
    }
    for (const auto &[name, samples] : layers) {
        const auto it = std::find_if(
            std::begin(kPerLayer), std::end(kPerLayer),
            [&name](const auto &m) { return name == m.first; });
        if (it == std::end(kPerLayer))
            rep.fail(1, "per-layer metric missing from kPerLayer: " + name);
        else
            rep.metric(name, median(samples), it->second);
    }
    countMetrics(o, rep);
    rep.metric("bench.trace_overhead",
               ratio(sustainedRate(rates[0]), sustainedRate(rates[1])),
               "ratio");
    for (const auto &[name, unit] : kPerLayer) {
        const bool have =
            std::any_of(rep.metrics.begin(), rep.metrics.end(),
                        [&](const Metric &m) { return m.name == name; });
        if (!have)
            rep.metric(name, 0.0, unit);
    }
    spans().write(opt.outDir + "/spans-" + wl.name + ".jsonl");
    return rep;
}

} // namespace perfbench
