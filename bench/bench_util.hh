/**
 * @file
 * Shared plumbing for the bench binaries: standard testbed + trained
 * predictor + the experiment variants (BW source fed to the scheduler,
 * WANify deployment flavor) used across Table 4 and Figs. 5-10.
 */

#ifndef WANIFY_BENCH_BENCH_UTIL_HH
#define WANIFY_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "common/thread_pool.hh"
#include "core/wanify.hh"
#include "monitor/features.hh"
#include "experiments/predictor_factory.hh"
#include "experiments/runner.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "monitor/measurement.hh"
#include "sched/kimchi.hh"
#include "sched/locality.hh"
#include "sched/tetrium.hh"
#include "storage/hdfs.hh"

namespace wanify {
namespace bench {

/** Lazily computed per-process context shared by a bench binary. */
struct BenchContext
{
    net::Topology topo;
    net::NetworkSimConfig simCfg;
    std::shared_ptr<const core::RuntimeBwPredictor> predictor;
    Matrix<Mbps> staticIndependent;
    Matrix<Mbps> staticSimultaneous;

    static BenchContext &
    get(std::size_t dcs = 8)
    {
        static BenchContext ctx = make(8);
        (void)dcs;
        return ctx;
    }

    static BenchContext
    make(std::size_t dcs)
    {
        BenchContext ctx{experiments::workerCluster(dcs),
                         experiments::defaultSimConfig(),
                         experiments::sharedPredictor(),
                         {},
                         {}};
        // The two static baselines are independent measurement
        // campaigns; overlap them on the pool (trials themselves run
        // in parallel via experiments::runTrials' default).
        const monitor::MeasurementConfig mc;
        ThreadPool::global().parallelFor(2, [&](std::size_t which) {
            if (which == 0) {
                ctx.staticIndependent = monitor::staticIndependentBw(
                    ctx.topo, ctx.simCfg, mc, 7777);
            } else {
                ctx.staticSimultaneous = monitor::staticSimultaneousBw(
                    ctx.topo, ctx.simCfg, mc, 7777);
            }
        });
        return ctx;
    }
};

/** A Wanify instance wired to the shared predictor. */
inline std::unique_ptr<core::Wanify>
makeWanify(core::WanifyFeatures features = core::WanifyFeatures::all())
{
    core::WanifyConfig cfg;
    cfg.features = features;
    auto w = std::make_unique<core::Wanify>(cfg);
    w->setPredictor(experiments::sharedPredictor());
    return w;
}

/** Mean predicted runtime BW matrix on a fresh sim (for scheduling). */
inline Matrix<Mbps>
predictedBwMatrix(const BenchContext &ctx, std::uint64_t seed = 31337)
{
    net::NetworkSim sim(ctx.topo, ctx.simCfg, seed);
    sim.advanceBy(10.0);
    monitor::MeshMeasurer measurer(sim);
    Rng rng(seed ^ 0xfeed);
    const monitor::MeasurementConfig mc;
    const auto snapshot = measurer.snapshot(mc, rng);
    return ctx.predictor->predictMatrix(ctx.topo, snapshot);
}

/**
 * Campaign-shaped synthetic Table 3 dataset: discrete cluster size
 * (heavy feature ties, as in real analyzer output) plus continuous
 * snapshot/load/retrans/distance features. One definition shared by
 * syntheticPredictor, the training perf bench, and the
 * monitoring-cost bench so they all measure the same workload.
 */
inline ml::Dataset
campaignTable3Data(std::size_t rows, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset data(monitor::kFeatureCount);
    for (std::size_t s = 0; s < rows; ++s) {
        const double n = 2.0 + rng.uniformInt(0, 6);
        const double snap = rng.uniform(20.0, 2000.0);
        const double mem = rng.uniform(0.1, 0.9);
        const double cpu = rng.uniform(0.1, 0.9);
        const double retrans = rng.uniform(0.0, 0.5);
        const double dist = rng.uniform(100.0, 11000.0);
        const double target = snap * (1.1 - 0.3 * retrans) -
                              0.01 * dist + 40.0 * mem +
                              rng.normal(0.0, 25.0);
        data.add({n, snap, mem, cpu, retrans, dist}, target);
    }
    return data;
}

/**
 * A predictor with the production forest shape (100 trees, depth 14)
 * trained on a deterministic synthetic Table 3 dataset — for inference
 * perf measurement, where the forest's shape matters but the analyzer
 * campaign's simulation cost does not.
 */
inline core::RuntimeBwPredictor
syntheticPredictor(std::size_t nEstimators = 100,
                   std::uint64_t seed = 20250731)
{
    const ml::Dataset data = campaignTable3Data(1500, seed);
    ml::ForestConfig cfg = experiments::sharedForestConfig();
    cfg.nEstimators = nEstimators;
    core::RuntimeBwPredictor predictor(cfg);
    predictor.train(data, seed ^ 0x9e3779b97f4a7c15ULL);
    return predictor;
}

/** Deterministic synthetic snapshot mesh for a topology. */
inline Matrix<Mbps>
syntheticSnapshot(const net::Topology &topo, std::uint64_t seed = 99)
{
    const std::size_t n = topo.dcCount();
    Matrix<Mbps> snapshot = Matrix<Mbps>::square(n, 0.0);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            snapshot.at(i, j) =
                i == j ? 5800.0 : rng.uniform(50.0, 1500.0);
    return snapshot;
}

/**
 * BENCH_*.json emission, single-sourced: tools/bench_diff.cc parses
 * exactly this layout (flat top-level fields, then a flat "results"
 * object of "key": number pairs), so every perf bench must emit
 * through here — a format tweak in one place updates the producer
 * side atomically and the parser is the only other party.
 */
struct BenchJsonField
{
    std::string name;

    /** Pre-rendered JSON literal ("true", "42", "\"text\""). */
    std::string value;

    static BenchJsonField
    num(const std::string &name, std::size_t v)
    {
        return {name, std::to_string(v)};
    }
    static BenchJsonField
    boolean(const std::string &name, bool v)
    {
        return {name, v ? "true" : "false"};
    }
    static BenchJsonField
    text(const std::string &name, const std::string &v)
    {
        return {name, "\"" + v + "\""};
    }
};

inline void
writeBenchJson(
    const std::string &path,
    const std::vector<BenchJsonField> &header,
    const std::vector<std::pair<std::string, double>> &results)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n");
    for (const auto &field : header)
        std::fprintf(f, "  \"%s\": %s,\n", field.name.c_str(),
                     field.value.c_str());
    std::fprintf(f, "  \"results\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i)
        std::fprintf(f, "    \"%s\": %.3f%s\n",
                     results[i].first.c_str(), results[i].second,
                     i + 1 < results.size() ? "," : "");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
}

/** Print one aggregate row: latency (s), cost ($), min BW (Mbps). */
inline std::vector<std::string>
aggRow(const std::string &name, const experiments::Aggregate &a)
{
    return {name,
            Table::num(a.meanLatency, 0) + " +- " +
                Table::num(a.seLatency, 0),
            Table::num(a.meanCost, 2),
            Table::num(a.meanMinBw, 0) + " +- " +
                Table::num(a.seMinBw, 0)};
}

} // namespace bench
} // namespace wanify

#endif // WANIFY_BENCH_BENCH_UTIL_HH
