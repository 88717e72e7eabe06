/**
 * @file
 * switch_sweep: a 16-port switch under the hotspot pattern with mixed
 * variants (port p cycles CFDS / RADS / CFDS+renaming).  CFDS ports
 * run the refresh + turnaround DDR timing of the timing matrix.
 * Ports are planned with sw::planPorts, run one sweep task each
 * (sw::runPort: golden-checked and drained) on the sweep pool, and
 * the per-port rows are emitted as the sweep's JSON and CSV.
 */

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "buffer/hybrid_buffer.hh"
#include "common/serialize.hh"
#include "soak/checkpoint.hh"
#include "sweep/emit.hh"
#include "sweep/sweep.hh"
#include "switch/switch_sim.hh"

namespace perfbench
{

namespace
{

using namespace pktbuf;

constexpr unsigned kPorts = 16;

sw::SwitchConfig
switchConfig(std::uint64_t master, bool event)
{
    sw::SwitchConfig cfg;
    cfg.ports = kPorts;
    cfg.pattern = sw::TrafficPattern::Hotspot;
    cfg.mixedVariants = true;
    // Four hot ports at 0.6 and twelve cold ones at 0.2: a load the
    // timed CFDS ports sustain.
    cfg.load = 0.3;
    cfg.slots = 60000;
    cfg.masterSeed = master;
    cfg.timing.tRefi = 128;
    cfg.timing.tRfc = 16;
    cfg.timing.refreshBanks = 2;
    cfg.timing.turnaround = 1;
    cfg.eventEngine = event;
    return cfg;
}

Job
runJob(const Options &opt, std::uint64_t master, bool event,
       std::size_t parent)
{
    Job j;
    const auto t0 = Clock::now();
    const auto cfg = switchConfig(master, event);
    const auto plans = sw::planPorts(cfg);

    std::vector<sim::ScenarioOutcome> outs(plans.size());
    std::vector<Clock::time_point> starts(plans.size()), ends(plans.size());
    std::vector<sweep::Task> tasks;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        // Each task writes only its own slots; runSweep joins its
        // workers before returning.
        tasks.push_back(sweep::Task{
            "port" + std::to_string(plans[i].port),
            [&, i](const sweep::SweepContext &) {
                starts[i] = Clock::now();
                outs[i] = sw::runPort(plans[i]);
                sweep::TaskResult r;
                r.records.push_back(sw::portRecord(plans[i], outs[i]));
                r.ok = outs[i].passed;
                r.error = outs[i].failure;
                ends[i] = Clock::now();
                return r;
            },
        });
    }
    sweep::SweepOptions so;
    so.jobs = opt.jobs;
    so.masterSeed = master;
    const auto s0 = Clock::now();
    const auto rep = sweep::runSweep(tasks, so);
    const auto s1 = Clock::now();
    const double sweep_s = std::chrono::duration<double>(s1 - s0).count();
    const auto sweep_span = spans().add("sweep", parent, s0, s1);

    const std::string json = opt.outDir + "/switch_sweep.json";
    const std::string csv = opt.outDir + "/switch_sweep.csv";
    const auto emit = spans().open("emit", parent);
    sweep::EmitMeta meta;
    meta.tool = "perfbench_switch_sweep";
    meta.extra.set("switch", cfg.name());
    sweep::emitArtifacts(rep, tasks, meta, json, csv);
    j.layers["sweep.emit_ms"] = 1e3 * spans().close(emit);
    j.wall = secondsSince(t0);

    std::vector<double> task_s;
    double busy = 0.0;
    std::uint64_t port_slots = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        spans().add(tasks[i].name, sweep_span, starts[i], ends[i]);
        task_s.push_back(
            std::chrono::duration<double>(ends[i] - starts[i]).count());
        busy += task_s.back();
        port_slots += plans[i].scenario.slots;
    }
    j.rates.push_back(static_cast<double>(port_slots) / sweep_s);
    j.layers["sweep.parallel_eff"] = busy / (opt.jobs * sweep_s);
    j.layers["sweep.task_s.p50"] = median(task_s);
    j.layers["sweep.task_s.max"] =
        *std::max_element(task_s.begin(), task_s.end());

    auto &o = j.out;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (!outs[i].passed) {
            ++j.failedOps;
            j.failure += "port" + std::to_string(i) + ": " + outs[i].failure +
                         "; ";
        }
        o["slots"] += outs[i].run.slots;
        addOutcome(o, outs[i]);
    }
    o["artifact_hash"] =
        ser::fnv1a(soak::readFile(json) + soak::readFile(csv));
    return j;
}

} // namespace

Workload
switchWorkload(const Options &opt)
{
    const auto master = sweep::deriveSeed(opt.seed, 0);
    Workload wl;
    wl.name = "switch_sweep";
    wl.opsPerJob = kPorts;
    wl.setup = [master] {
        for (const auto &p : sw::planPorts(switchConfig(master, true))) {
            const buffer::HybridBuffer buf(p.scenario.bufferConfig());
            const auto traffic = sw::makePortWorkload(p);
        }
    };
    // A sweep holds every pool thread, so the pair's two sweeps run
    // one after the other.  Task spans cost 16 clock pairs per sweep:
    // traced and untraced sweeps time the same work.
    wl.run = [&opt, master](const std::array<Mode, 2> &modes,
                            std::size_t span) {
        return std::array<Job, 2>{runJob(opt, master, modes[0].event, span),
                                  runJob(opt, master, modes[1].event, span)};
    };
    return wl;
}

} // namespace perfbench
