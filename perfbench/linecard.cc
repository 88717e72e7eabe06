/**
 * @file
 * The two line-card workloads: one CFDS card (Q=256, B=8, b=2, M=32)
 * driven slot by slot through HybridBuffer::step, Workload::step and
 * GoldenChecker::onGrant.
 *
 *  - linecard_backlog: 2^20 arrival-only slots park about 1M cells
 *    (4k per queue) in DRAM, then the round-robin worst case runs at
 *    full load, so every other slot carries a DRAM block read and a
 *    block write: write-only, read+write and read-only (drain) phases.
 *  - linecard_sparse: the same card under UniformRandom at 5% load;
 *    most slots are quiescent and most cells bypass DRAM.
 *
 * Both cards are checkpointed into a sealed soak envelope half-way
 * through the steady phase, restored into fresh objects, and drained
 * at the end.
 */

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "buffer/hybrid_buffer.hh"
#include "common/serialize.hh"
#include "sim/golden.hh"
#include "sim/workload.hh"
#include "soak/checkpoint.hh"
#include "sweep/sweep.hh"

namespace perfbench
{

namespace
{

using namespace pktbuf;

constexpr unsigned kQueues = 256;
/** Arrival-only slots before the backlog's requests start. */
constexpr std::uint64_t kFillSlots = 1u << 20;
/** Steady-phase slots (measured in kChunk pieces). */
constexpr std::uint64_t kBacklogSlots = 1u << 20;
constexpr std::uint64_t kSparseSlots = 1u << 19;
constexpr std::uint64_t kChunk = 1u << 13;
constexpr double kSparseLoad = 0.05;

buffer::BufferConfig
cardConfig(bool event)
{
    buffer::BufferConfig cfg;
    cfg.params = model::BufferParams{kQueues, /*granRads=*/8, /*gran=*/2,
                                     /*banks=*/32};
    cfg.eventCore = event;
    return cfg;
}

std::unique_ptr<sim::Workload>
makeTraffic(bool backlog, std::uint64_t seed)
{
    if (backlog) {
        return std::make_unique<sim::RoundRobinWorstCase>(
            kQueues, seed, 1.0, /*warmup=*/kFillSlots);
    }
    return std::make_unique<sim::UniformRandom>(kQueues, seed, kSparseLoad);
}

const char *
workloadName(bool backlog)
{
    return backlog ? "linecard_backlog" : "linecard_sparse";
}

/** One line card: the buffer, its traffic and the golden FIFO. */
struct Card
{
    Card(bool backlog, bool event, std::uint64_t seed)
        : buf(cardConfig(event)), wl(makeTraffic(backlog, seed)),
          gold(kQueues)
    {}

    buffer::HybridBuffer buf;
    std::unique_ptr<sim::Workload> wl;
    sim::GoldenChecker gold;
};

/** Per-call durations of the traced run's steady phase. */
struct Layers
{
    Histogram step;      //!< HybridBuffer::step
    Histogram admit;     //!< wouldAdmit inside the admit predicate
    Histogram workload;  //!< Workload::step minus admit
    Histogram golden;    //!< GoldenChecker::onGrant
};

/** Benchmark-side tallies of one job. */
struct Tally
{
    std::uint64_t arrivals = 0;
    std::uint64_t grants = 0;  //!< before the drain
    std::uint64_t delaySum = 0;
    std::uint64_t drained = 0;
};

template <bool Traced>
void
runSlots(Card &c, std::uint64_t n, Tally &t, Layers *L)
{
    auto &buf = c.buf;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::optional<buffer::GrantInfo> g;
        if constexpr (Traced) {
            std::uint64_t admit_ns = 0;
            bool probed = false;
            const auto admit = [&](QueueId q) {
                const auto a = Clock::now();
                const bool ok = buf.wouldAdmit(q);
                admit_ns = nsBetween(a, Clock::now());
                probed = true;
                return ok;
            };
            const auto t0 = Clock::now();
            const auto s = c.wl->step(buf.now(), admit);
            const auto t1 = Clock::now();
            g = buf.step(s.arrival, s.request);
            const auto t2 = Clock::now();
            L->workload.add(nsBetween(t0, t1) - admit_ns);
            if (probed)
                L->admit.add(admit_ns);
            L->step.add(nsBetween(t1, t2));
            t.arrivals += s.arrival ? 1 : 0;
        } else {
            const auto s = c.wl->step(
                buf.now(), [&buf](QueueId q) { return buf.wouldAdmit(q); });
            g = buf.step(s.arrival, s.request);
            t.arrivals += s.arrival ? 1 : 0;
        }
        if (g) {
            if constexpr (Traced) {
                const auto t0 = Clock::now();
                c.gold.onGrant(g->logicalQueue, g->cell);
                L->golden.add(nsBetween(t0, Clock::now()));
            } else {
                c.gold.onGrant(g->logicalQueue, g->cell);
            }
            ++t.grants;
            t.delaySum += buf.now() - 1 - g->cell.arrival;
        }
    }
}

/** Request every credited cell round-robin, with no arrivals, until
 *  all admitted cells are delivered. */
void
drain(Card &c, Tally &t)
{
    const std::uint64_t budget = 2 * (t.arrivals - t.grants) + 100000;
    QueueId next = 0;
    for (std::uint64_t i = 0; t.grants + t.drained < t.arrivals; ++i) {
        if (i > budget) {
            throw std::runtime_error(
                std::to_string(t.arrivals - t.grants - t.drained) +
                " cells undelivered after the drain");
        }
        QueueId req = kInvalidQueue;
        for (unsigned k = 0; k < kQueues; ++k) {
            const QueueId q = (next + k) % kQueues;
            if (c.wl->credit(q) > 0) {
                req = q;
                next = (q + 1) % kQueues;
                break;
            }
        }
        if (req != kInvalidQueue)
            c.wl->consumeCredit(req);
        const auto g = c.buf.step(std::nullopt, req);
        if (g) {
            c.gold.onGrant(g->logicalQueue, g->cell);
            ++t.drained;
        }
    }
}

/** One side of a job pair: a card and what is measured on it. */
struct Side
{
    Mode mode;
    std::unique_ptr<Card> card;
    std::unique_ptr<Layers> L;
    Tally t;
    Tally atSteady;
    buffer::BufferReport before;
    buffer::BufferReport after;
    Job j;
};

/**
 * Save the card into a sealed soak envelope, drop it and restore the
 * state into a freshly built card.  The fingerprint names the card,
 * not the engine: a state saved by one engine restores into the other.
 */
void
checkpointRestore(Side &s, bool backlog, std::uint64_t seed,
                  std::size_t parent)
{
    const auto fp = ser::fnv1a(std::string("perfbench ") +
                               workloadName(backlog) + " Q=256 B=8 b=2 M=32");
    const auto save =
        spans().open(std::string("checkpoint.") + modeName(s.mode), parent);
    std::string bytes;
    s.j.layers["soak.save_ms"] = 1e3 * s.j.timed([&] {
        ser::Writer w;
        s.card->buf.save(w);
        s.card->wl->save(w);
        s.card->gold.save(w);
        bytes = soak::sealCheckpoint(w.bytes(), fp);
    });
    spans().close(save);
    s.j.out["ckpt_bytes"] = bytes.size();
    const auto restore =
        spans().open(std::string("restore.") + modeName(s.mode), parent);
    s.j.layers["soak.restore_ms"] = 1e3 * s.j.timed([&] {
        s.card.reset();
        s.card = std::make_unique<Card>(backlog, s.mode.event, seed);
        const std::string payload = soak::openCheckpoint(bytes, fp);
        ser::Reader r(payload);
        s.card->buf.load(r);
        s.card->wl->load(r);
        s.card->gold.load(r);
        r.done();
    });
    spans().close(restore);
}

void
fillOutputs(Side &s, std::uint64_t steady)
{
    const auto &t = s.t;
    auto &o = s.j.out;
    addReport(o, s.card->buf.report());
    o["slots"] = steady;
    o["grants"] = t.grants - s.atSteady.grants;
    o["delay_sum"] = t.delaySum - s.atSteady.delaySum;
    o["steady_dram_reads"] = s.after.dramReads - s.before.dramReads;
    o["steady_dram_writes"] = s.after.dramWrites - s.before.dramWrites;
    o["steady_bypasses"] = s.after.bypasses - s.before.bypasses;
    o["steady_dsa_stalls"] = s.after.dsaStalls - s.before.dsaStalls;
    o["resident_cells"] = s.after.dramResidentCells;
    o["arrivals"] = t.arrivals;
    o["drained"] = t.drained;
    o["drops"] = s.card->wl->drops();
    o["golden_verified"] = s.card->gold.granted();
    if (o["golden_verified"] != t.arrivals) {
        s.j.failedOps = 1;
        s.j.failure = "golden checker verified " +
                      std::to_string(o["golden_verified"]) + " of " +
                      std::to_string(t.arrivals) + " admitted cells";
    }
    if (s.L) {
        auto &l = s.j.layers;
        l["buffer.step_ns.p50"] = s.L->step.quantile(0.5);
        l["buffer.step_ns.p99"] = s.L->step.quantile(0.99);
        l["buffer.step_ns_per_slot"] = static_cast<double>(s.L->step.sum()) /
                                       static_cast<double>(steady);
        l["buffer.admit_ns.p50"] = s.L->admit.quantile(0.5);
        l["sim.workload_ns.p50"] = s.L->workload.quantile(0.5);
        l["sim.golden_ns.p50"] = s.L->golden.quantile(0.5);
    }
}

/**
 * Two cards, one per mode, stepped chunk by chunk in alternation
 * through every phase, so both modes sample the same stretches of
 * host time.
 */
std::array<Job, 2>
runPair(bool backlog, const std::array<Mode, 2> &modes, std::uint64_t seed,
        std::size_t parent)
{
    std::array<Side, 2> sides;
    for (std::size_t m = 0; m < 2; ++m)
        sides[m].mode = modes[m];
    for (auto &s : sides) {
        s.j.timed([&] {
            s.card = std::make_unique<Card>(backlog, s.mode.event, seed);
        });
        if (s.mode.traced)
            s.L = std::make_unique<Layers>();
    }
    if (backlog) {
        const auto span = spans().open("fill", parent);
        for (std::uint64_t k = 0; k < kFillSlots / kChunk; ++k)
            for (auto &s : sides)
                s.j.timed(
                    [&] { runSlots<false>(*s.card, kChunk, s.t, nullptr); });
        spans().close(span);
    }
    for (auto &s : sides) {
        s.before = s.card->buf.report();
        s.atSteady = s.t;
    }
    const std::uint64_t steady = backlog ? kBacklogSlots : kSparseSlots;
    const auto steady_span = spans().open("steady", parent);
    for (std::uint64_t k = 0; k < steady / kChunk; ++k) {
        for (auto &s : sides) {
            if (k == steady / kChunk / 2)
                checkpointRestore(s, backlog, seed, steady_span);
            const double dt = s.j.timed([&] {
                if (s.L)
                    runSlots<true>(*s.card, kChunk, s.t, s.L.get());
                else
                    runSlots<false>(*s.card, kChunk, s.t, nullptr);
            });
            s.j.rates.push_back(static_cast<double>(kChunk) / dt);
        }
    }
    spans().close(steady_span);
    for (auto &s : sides) {
        s.after = s.card->buf.report();
        const auto span =
            spans().open(std::string("drain.") + modeName(s.mode), parent);
        s.j.layers["sim.drain_s"] = s.j.timed([&] { drain(*s.card, s.t); });
        spans().close(span);
        fillOutputs(s, steady);
    }
    return {std::move(sides[0].j), std::move(sides[1].j)};
}

} // namespace

Workload
linecardWorkload(const Options &opt, bool backlog)
{
    const auto seed = sweep::deriveSeed(opt.seed, 0);
    Workload wl;
    wl.name = workloadName(backlog);
    wl.setup = [backlog, seed] { const Card c(backlog, true, seed); };
    wl.run = [backlog, seed](const std::array<Mode, 2> &modes,
                             std::size_t span) {
        return runPair(backlog, modes, seed, span);
    };
    return wl;
}

} // namespace perfbench
