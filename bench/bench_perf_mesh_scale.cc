/**
 * @file
 * Mesh-scale performance bench: the 16-256-DC sweep over the flat
 * vectorized hot paths and the event-driven clock, and the fifth leg
 * of the repo's perf gate.
 *
 * Four measurements:
 *
 *  1. parity + determinism — the flat solver-input banks must match
 *     the std::map reference composition (the test-only oracle in
 *     tests/oracles/solver_inputs.hh) bit-exactly after a factor
 *     churn drive, and a repeated event-clock engine run must
 *     reproduce its result bit-identically (enforced in every mode);
 *  2. resolveRates — ns/pair for the flat path across the DC sweep,
 *     plus the flat-vs-reference speedup at 128 and 256 DCs on a
 *     mesh carrying 2n live flows. A factor change keeps the flow
 *     set, so each flat round refills rates over the kept solver
 *     structure, while the reference rebuilds it. The speedups are the
 *     gated keys (speedup_ prefix): the flat migration must stay
 *     >= 4x at 256 DCs or the full run fails outright;
 *  3. whole-mesh prediction — predictMatrix ns/pair across the sweep
 *     with a production-shape forest and a reused PredictScratch
 *     (the batched matrixFeaturesInto + predictBatch path);
 *  4. end-to-end drain — a spread-shuffle query under the cascading
 *     scenario with the EventDriven clock at the sweep's mid scale:
 *     the virtual-time completion is deterministic in the seed and
 *     gated (mesh_scale_ prefix); EventClock push/pop throughput and
 *     all wall-clock rates are recorded ungated.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "gda/event_clock.hh"
#include "oracles/solver_inputs.hh"
#include "scenario/library.hh"
#include "scenario/scenario.hh"

using namespace wanify;

namespace {

using Clock = std::chrono::steady_clock;

double
wallMs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** Spreads every DC's input uniformly over all DCs — the densest
 *  shuffle mesh a placement can produce (n^2 concurrent pairs). */
class SpreadScheduler : public gda::Scheduler
{
  public:
    std::string name() const override { return "spread"; }

    Matrix<Bytes>
    placeStage(const gda::StageContext &ctx) override
    {
        const std::size_t n = ctx.topo->dcCount();
        Matrix<Bytes> a = Matrix<Bytes>::square(n, 0.0);
        for (net::DcId i = 0; i < n; ++i)
            for (net::DcId j = 0; j < n; ++j)
                a.at(i, j) =
                    ctx.inputByDc[i] / static_cast<double>(n);
        return a;
    }
};

/** Open 2n deterministic measurement flows (they never complete, so
 *  the flow set is stable across every resolve round). */
void
openMeshFlows(net::NetworkSim &sim, const net::Topology &topo)
{
    const std::size_t n = topo.dcCount();
    for (std::size_t i = 0; i < 2 * n; ++i) {
        const net::DcId src = static_cast<net::DcId>(i % n);
        const net::DcId dst =
            static_cast<net::DcId>((i * 7 + 3) % n);
        if (src == dst)
            continue;
        sim.startMeasurement(topo.dc(src).vms.front(),
                             topo.dc(dst).vms.front(),
                             1 + static_cast<int>(i % 4));
    }
}

/**
 * Time @p rounds solves: each round dirties the factor bank, then
 * @p solve re-solves the unchanged flow set. Returns wall
 * milliseconds for the whole loop.
 */
template <typename Solve>
double
timeRounds(net::NetworkSim &sim, std::size_t rounds, Solve &&solve)
{
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        sim.setScenarioCapFactor(0, 1, r % 2 == 0 ? 0.8 : 1.0);
        solve();
    }
    return wallMs(t0);
}

struct ResolveTiming
{
    double flatMs = 0.0;
    double refMs = 0.0;
    bool parity = false;
};

/** Time the flat resolve and the reference solve over the same
 *  factor churn on one mesh, then check that every flow's rate and
 *  bottleneck match bit-exactly. */
ResolveTiming
resolveSweepAt(std::size_t n, std::size_t rounds)
{
    const auto topo = experiments::workerCluster(n, 1);
    net::NetworkSim sim(topo, experiments::quietSimConfig(), 4242);
    openMeshFlows(sim, topo);
    sim.advanceBy(0.0);

    ResolveTiming out;
    out.flatMs = timeRounds(sim, rounds, [&] { sim.advanceBy(0.0); });
    std::vector<oracle::ReferenceRate> ref;
    out.refMs = timeRounds(sim, rounds, [&] {
        ref = oracle::MapKeyedSolverInputs::rates(sim);
    });

    // Both loops end on the same factors; the rate readers solve
    // them the flat way.
    out.parity = ref.size() == sim.activeTransferCount();
    for (const auto &r : ref) {
        if (sim.transferRate(r.id) != r.rate.rate ||
            sim.transferBottleneck(r.id) != r.rate.bottleneck) {
            out.parity = false;
            break;
        }
    }
    return out;
}

double
nsPerPair(double ms, std::size_t rounds, std::size_t n)
{
    return ms * 1.0e6 /
           (static_cast<double>(rounds) *
            static_cast<double>(n) * static_cast<double>(n));
}

struct DrainResult
{
    gda::QueryResult result;
    double wallMs = 0.0;
};

/** One spread-shuffle query under the cascading scenario with the
 *  event-driven clock — the end-to-end virtual-time drain. */
DrainResult
drainAt(std::size_t n)
{
    const auto topo = experiments::workerCluster(n, 1);
    const scenario::ScenarioTimeline timeline(
        scenario::libraryScenario("cascading"), n, 77);

    gda::JobSpec job;
    job.name = "mesh-drain";
    job.stages.push_back({"shuffle", 1.0, 0.0, true});
    job.inputBytes = units::gigabytes(1.0) * static_cast<double>(n);
    const std::vector<Bytes> input(n, units::gigabytes(1.0));

    SpreadScheduler spread;
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(n, 400.0);
    opts.dynamics = &timeline;

    gda::Engine engine(topo, experiments::defaultSimConfig(), 1234);
    const auto t0 = Clock::now();
    DrainResult out;
    out.result = engine.run(job, input, spread, opts);
    out.wallMs = wallMs(t0);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_mesh_scale.json";
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[a], "--out") == 0 &&
                   a + 1 < argc) {
            outPath = argv[++a];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out path]\n",
                         argv[0]);
            return 2;
        }
    }

    const std::vector<std::size_t> sweep =
        smoke ? std::vector<std::size_t>{16, 64}
              : std::vector<std::size_t>{16, 64, 128, 256};
    const std::size_t drainDcs = smoke ? 16 : 64;

    // --- 1. parity + determinism gates (every mode) -----------------------
    {
        const auto parity = resolveSweepAt(16, 8);
        if (!parity.parity) {
            std::fprintf(stderr,
                         "PARITY FAILURE: flat solver inputs "
                         "diverge from reference at 16 DCs\n");
            return 1;
        }
        const auto a = drainAt(16);
        const auto b = drainAt(16);
        if (a.result.latency != b.result.latency ||
            a.result.cost.total() != b.result.cost.total()) {
            std::fprintf(stderr,
                         "DETERMINISM FAILURE: repeated event-clock "
                         "drains differ (%.17g != %.17g)\n",
                         a.result.latency, b.result.latency);
            return 1;
        }
    }

    // --- 2. resolveRates sweep + flat-vs-reference speedup ----------------
    const std::size_t rounds = smoke ? 20 : 60;
    std::vector<ResolveTiming> timings;
    bool parityAll = true;
    for (std::size_t n : sweep) {
        timings.push_back(resolveSweepAt(n, rounds));
        parityAll = parityAll && timings.back().parity;
    }
    if (!parityAll) {
        std::fprintf(stderr, "PARITY FAILURE in sweep\n");
        return 1;
    }
    auto speedupAt = [&](std::size_t n) {
        for (std::size_t k = 0; k < sweep.size(); ++k)
            if (sweep[k] == n && timings[k].flatMs > 0.0)
                return timings[k].refMs / timings[k].flatMs;
        return 0.0;
    };

    // --- 3. predictMatrix ns/pair across the sweep ------------------------
    const auto predictor = bench::syntheticPredictor();
    const std::size_t predictReps = smoke ? 3 : 8;
    std::vector<double> predictNs;
    for (std::size_t n : sweep) {
        const auto topo = experiments::workerCluster(n, 1);
        const auto snapshot = bench::syntheticSnapshot(topo);
        core::PredictScratch scratch;
        // Warm once so buffer growth is outside the timed region.
        (void)predictor.predictMatrix(topo, snapshot, scratch);
        const auto t0 = Clock::now();
        for (std::size_t r = 0; r < predictReps; ++r)
            (void)predictor.predictMatrix(topo, snapshot, scratch);
        predictNs.push_back(
            nsPerPair(wallMs(t0), predictReps, n));
    }

    // --- 4. EventClock micro + end-to-end drain ---------------------------
    double clockEventsPerSec = 0.0;
    {
        const std::size_t events = smoke ? 100000 : 1000000;
        gda::EventClock clock;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < events; ++i)
            clock.push(static_cast<double>((i * 31) % events),
                       gda::ClockEventKind::EpochTick);
        while (!clock.empty())
            (void)clock.pop();
        const double ms = wallMs(t0);
        clockEventsPerSec =
            ms > 0.0 ? static_cast<double>(2 * events) * 1000.0 / ms
                     : 0.0;
    }
    const auto drain = drainAt(drainDcs);

    Table table("Mesh scale (" + std::to_string(sweep.front()) +
                "-" + std::to_string(sweep.back()) + " DCs)");
    table.setHeader({"dcs", "resolve ns/pair", "ref ns/pair",
                     "speedup", "predict ns/pair"});
    for (std::size_t k = 0; k < sweep.size(); ++k) {
        const std::size_t n = sweep[k];
        table.addRow(
            {std::to_string(n),
             Table::num(nsPerPair(timings[k].flatMs, rounds, n), 1),
             Table::num(nsPerPair(timings[k].refMs, rounds, n), 1),
             Table::num(speedupAt(n), 2) + "x",
             Table::num(predictNs[k], 1)});
    }
    table.print();
    std::printf("event clock: %.0f events/s\n", clockEventsPerSec);
    std::printf("drain @%zu DCs: virtual %.3f s, wall %.0f ms\n",
                drainDcs, drain.result.latency, drain.wallMs);
    std::printf(
        "parity: flat == reference bit-exact at every scale\n");
    std::printf("determinism: repeated drains bit-identical\n");

    std::vector<std::pair<std::string, double>> results = {
        {"mesh_scale_drain_virtual_s", drain.result.latency},
        {"mesh_scale_drain_cost", drain.result.cost.total()},
        {"clock_events_per_sec", clockEventsPerSec},
        {"drain_wall_ms", drain.wallMs},
    };
    for (std::size_t k = 0; k < sweep.size(); ++k) {
        const std::string n = std::to_string(sweep[k]);
        results.push_back({"resolve_ns_per_pair_" + n,
                           nsPerPair(timings[k].flatMs, rounds,
                                     sweep[k])});
        results.push_back(
            {"predict_ns_per_pair_" + n, predictNs[k]});
    }
    if (!smoke) {
        results.push_back(
            {"speedup_resolve_rates_128", speedupAt(128)});
        results.push_back(
            {"speedup_resolve_rates_256", speedupAt(256)});
    }
    bench::writeBenchJson(
        outPath,
        {bench::BenchJsonField::text("bench", "mesh_scale"),
         bench::BenchJsonField::boolean("smoke", smoke),
         bench::BenchJsonField::num("sweep_max", sweep.back()),
         bench::BenchJsonField::num("resolve_rounds", rounds),
         bench::BenchJsonField::num("drain_dcs", drainDcs),
         bench::BenchJsonField::text("determinism",
                                     "bit-identical")},
        results);
    std::printf("wrote %s\n", outPath.c_str());

    // Smoke gates on parity + determinism only. Full runs also
    // enforce the tentpole's floor: the flat solver-input migration
    // must hold a >= 4x resolve speedup at 256 DCs, and the drain
    // must have actually moved traffic.
    if (!smoke) {
        bool ok = true;
        if (speedupAt(256) < 4.0) {
            std::fprintf(stderr,
                         "FLOOR FAILURE: resolve speedup at 256 DCs "
                         "%.2fx < 4x\n",
                         speedupAt(256));
            ok = false;
        }
        if (!(drain.result.latency > 0.0) ||
            !(drain.result.minObservedBw > 0.0)) {
            std::fprintf(stderr,
                         "FLOOR FAILURE: drain moved no traffic\n");
            ok = false;
        }
        if (!ok)
            return 1;
    }
    return 0;
}
