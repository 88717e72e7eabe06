/**
 * @file
 * crossbar_16: a 16x16 input-queued crossbar (xbar::CrossbarRun) with
 * iSLIP at 4 iterations and CFDS inputs, uniform traffic at the 0.9
 * input-load cap.  The only workload whose buffers are coupled each
 * slot through a scheduler, and whose working set is 16 line cards
 * stepped in lockstep on one thread.
 *
 * The traced run captures the first kWindow arbitrated slots through
 * onMatch and replays their occupancies through a fresh makeScheduler
 * instance to time the scheduler alone; the replayed matchings must
 * equal the captured ones, or the timing measured another decision
 * stream.
 */

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/serialize.hh"
#include "crossbar/crossbar_sim.hh"
#include "soak/checkpoint.hh"
#include "sweep/sweep.hh"

namespace perfbench
{

namespace
{

using namespace pktbuf;

constexpr unsigned kPorts = 16;
constexpr std::uint64_t kSlots = 1u << 15;
constexpr std::uint64_t kChunk = 1u << 11;
/** Arbitrated slots captured for the scheduler replay. */
constexpr std::size_t kWindow = 8192;

xbar::CrossbarConfig
crossbarConfig(std::uint64_t master, bool event)
{
    xbar::CrossbarConfig cfg;
    cfg.ports = kPorts;
    cfg.pattern = sw::TrafficPattern::Uniform;
    cfg.scheduler = xbar::SchedulerKind::Islip;
    cfg.islipIterations = 4;
    cfg.variant = sim::BufferVariant::Cfds;
    cfg.load = xbar::CrossbarConfig::kMaxInputLoad;
    cfg.slots = kSlots;
    cfg.masterSeed = master;
    cfg.eventEngine = event;
    return cfg;
}

/** onMatch captures of the traced run. */
struct Capture
{
    std::vector<xbar::Occupancy> occ;
    std::vector<xbar::Matching> match;
};

/**
 * Replay the captured occupancies through a fresh scheduler, timing
 * each decision.  iSLIP draws no randomness, and an all-empty slot
 * never reaches the scheduler, so a fresh instance fed the captures
 * from the first arbitrated slot on must decide exactly as the run's
 * own scheduler did.  @return the number of differing matchings.
 */
std::size_t
replay(const xbar::CrossbarConfig &cfg, const Capture &cap, Job &j)
{
    const auto sched = xbar::makeScheduler(
        cfg.scheduler, cfg.ports, cfg.islipIterations, cfg.qpsWindow,
        sweep::deriveSeed(cfg.masterSeed, 1));
    Histogram ns;
    std::size_t mismatches = 0;
    std::uint64_t edges = 0, maximum = 0;
    for (std::size_t k = 0; k < cap.occ.size(); ++k) {
        const auto a = Clock::now();
        const auto m = sched->schedule(cap.occ[k]);
        ns.add(nsBetween(a, Clock::now()));
        mismatches += m == cap.match[k] ? 0 : 1;
        edges += xbar::matchingSize(cap.match[k]);
        maximum += xbar::maximumMatchingSize(cap.occ[k]);
    }
    j.layers["crossbar.sched_ns.p50"] = ns.quantile(0.5);
    j.layers["crossbar.sched_ns.p99"] = ns.quantile(0.99);
    j.layers["crossbar.match_eff"] =
        maximum ? static_cast<double>(edges) / static_cast<double>(maximum)
                : 0.0;
    return mismatches;
}

/** One side of a job pair: a crossbar and what is measured on it. */
struct Side
{
    Mode mode;
    xbar::CrossbarConfig cfg;
    std::unique_ptr<xbar::CrossbarRun> run;
    Capture cap;
    std::uint64_t runToNs = 0;
    Job j;
};

void
runChunk(Side &s, std::uint64_t from)
{
    if (!s.mode.traced) {
        s.run->runTo(from + kChunk);
        return;
    }
    // One runTo per fabric slot; the capture stops at the window.
    for (std::uint64_t t = from; t < from + kChunk; ++t) {
        if (s.run->onMatch && s.cap.occ.size() >= kWindow)
            s.run->onMatch = nullptr;
        const auto a = Clock::now();
        s.run->runTo(t + 1);
        s.runToNs += nsBetween(a, Clock::now());
    }
}

/** Finish, emit and collect the outputs of one side. */
void
complete(const Options &opt, Side &s, std::size_t parent)
{
    const std::string mode = modeName(s.mode);
    auto span = spans().open("finish." + mode, parent);
    xbar::CrossbarOutcome out;
    s.j.layers["crossbar.finish_s"] =
        s.j.timed([&] { out = s.run->finish(); });
    spans().close(span);

    const std::string json = opt.outDir + "/crossbar_16.json";
    const std::string csv = opt.outDir + "/crossbar_16.csv";
    span = spans().open("emit." + mode, parent);
    s.j.timed([&] {
        xbar::emitCrossbarArtifacts(s.cfg, out, "perfbench_crossbar_16", {},
                                    json, csv);
    });
    spans().close(span);
    s.j.layers["crossbar.iters_mean"] = out.report.meanIterations;

    if (s.mode.traced) {
        s.j.layers["crossbar.slot_ns"] =
            static_cast<double>(s.runToNs) / static_cast<double>(kSlots);
        span = spans().open("sched_replay", parent);
        const auto mismatches = replay(s.cfg, s.cap, s.j);
        spans().close(span);
        if (mismatches) {
            s.j.failedOps = kPorts;
            s.j.failure = std::to_string(mismatches) +
                          " replayed iSLIP matchings differ from the run's";
        }
    }

    auto &o = s.j.out;
    for (const auto &in : out.inputs)
        addOutcome(o, in);
    if (!out.passed && !s.j.failedOps) {
        s.j.failedOps = out.report.failedInputs ? out.report.failedInputs
                                                : kPorts;
        s.j.failure = out.failure;
    }
    o["slots"] = kSlots;
    o["match_edges"] = out.report.matchEdges;
    o["active_slots"] = out.report.activeSlots;
    o["iter_sum"] = out.report.iterSum;
    o["artifact_hash"] =
        ser::fnv1a(soak::readFile(json) + soak::readFile(csv));
}

/** Two crossbars, one per mode, advanced in alternating chunks. */
std::array<Job, 2>
runPair(const Options &opt, std::uint64_t master,
        const std::array<Mode, 2> &modes, std::size_t parent)
{
    std::array<Side, 2> sides;
    for (std::size_t m = 0; m < 2; ++m)
        sides[m].mode = modes[m];
    for (auto &s : sides) {
        s.cfg = crossbarConfig(master, s.mode.event);
        s.j.timed([&] { s.run = std::make_unique<xbar::CrossbarRun>(s.cfg); });
        if (s.mode.traced) {
            s.run->onMatch = [&cap = s.cap](Slot, const xbar::Occupancy &occ,
                                            const xbar::Matching &m,
                                            unsigned) {
                cap.occ.push_back(occ);
                cap.match.push_back(m);
            };
        }
    }
    const auto main_span = spans().open("main", parent);
    for (std::uint64_t t = 0; t < kSlots; t += kChunk) {
        for (auto &s : sides) {
            const double dt = s.j.timed([&] { runChunk(s, t); });
            s.j.rates.push_back(static_cast<double>(kChunk) / dt);
        }
    }
    spans().close(main_span);
    for (auto &s : sides)
        complete(opt, s, parent);
    return {std::move(sides[0].j), std::move(sides[1].j)};
}

} // namespace

Workload
crossbarWorkload(const Options &opt)
{
    const auto master = sweep::deriveSeed(opt.seed, 0);
    Workload wl;
    wl.name = "crossbar_16";
    wl.opsPerJob = kPorts;
    wl.setup = [master] {
        const xbar::CrossbarRun run(crossbarConfig(master, true));
    };
    wl.run = [&opt, master](const std::array<Mode, 2> &modes,
                            std::size_t span) {
        return runPair(opt, master, modes, span);
    };
    return wl;
}

} // namespace perfbench
