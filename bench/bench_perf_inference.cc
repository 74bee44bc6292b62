/**
 * @file
 * Inference performance bench: the CompiledForest speedup on the
 * predict→plan hot path, and the seed of the repo's perf trajectory.
 *
 * Three measurements, all on the production forest shape (100 trees,
 * depth 14, Table 3 features):
 *
 *  1. single pair — the pre-PR interpreted path (fresh feature vector
 *     plus one leaf-vector copy per tree per call) vs the compiled
 *     allocation-free walk;
 *  2. full matrix, n = 8 — the pre-PR per-pair predictMatrix loop vs
 *     the batched single-predictBatch path (the acceptance target:
 *     >= 10x);
 *  3. batch throughput — predictBatch sequential vs chunked across
 *     the process-wide ThreadPool.
 *
 * Results are printed as a table and emitted machine-readable to
 * BENCH_inference.json (override with --out) so CI can archive a
 * perf trajectory. CI runs the full mode (its gates are relative —
 * parity and same-machine speedup floors — so they hold on slow
 * runners); --smoke shrinks iteration counts for quick local
 * iteration and gates on parity only. Parity (batched output
 * bit-identical to the legacy per-pair loop) is enforced in every
 * mode and fails the process on mismatch.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "ml/compiled_forest.hh"
#include "monitor/features.hh"

using namespace wanify;

namespace {

using Clock = std::chrono::steady_clock;

/** Defeats dead-code elimination across measurement loops. */
volatile double gSink = 0.0;

/** Best-of-@p reps nanoseconds per op over @p iters iterations. */
template <typename F>
double
nsPerOp(std::size_t reps, std::size_t iters, F fn)
{
    double best = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            fn();
        const auto t1 = Clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0)
                .count() /
            static_cast<double>(iters);
        if (rep == 0 || ns < best)
            best = ns;
    }
    return best;
}

/**
 * The pre-PR interpreted ensemble prediction: one freshly allocated
 * leaf vector per tree per call plus the accumulated mean vector —
 * exactly the code shape RandomForestRegressor::predict had before
 * DecisionTreeRegressor::predict returned a const reference. A leaf
 * is a double now, so the per-tree vector is built explicitly: the
 * "before" arm of speedup_predict_pair and speedup_predict_matrix8
 * keeps its heap allocation per tree per call and times the same
 * code it always timed.
 */
double
legacyPredictScalar(const ml::RandomForestRegressor &forest,
                    const std::vector<double> &x)
{
    std::vector<double> mean;
    for (const auto &tree : forest.trees()) {
        const std::vector<double> y(1, tree->predict(x));
        if (mean.empty())
            mean.assign(y.size(), 0.0);
        for (std::size_t k = 0; k < y.size(); ++k)
            mean[k] += y[k];
    }
    for (auto &m : mean)
        m /= static_cast<double>(forest.trees().size());
    return mean[0];
}

/** The pre-PR predictMatrix: per-pair features + interpreted walk. */
Matrix<Mbps>
legacyPredictMatrix(const core::RuntimeBwPredictor &predictor,
                    const net::Topology &topo,
                    const Matrix<Mbps> &snapshotBw)
{
    const std::size_t n = topo.dcCount();
    const monitor::HostLoad load;
    Matrix<Mbps> predicted = Matrix<Mbps>::square(n, 0.0);
    for (net::DcId i = 0; i < n; ++i) {
        for (net::DcId j = 0; j < n; ++j) {
            if (i == j) {
                predicted.at(i, j) = snapshotBw.at(i, j);
                continue;
            }
            const double cap = topo.connCap(i, j);
            const double retrans = std::max(
                0.0,
                1.0 - snapshotBw.at(i, j) / std::max(cap, 1.0));
            predicted.at(i, j) = std::max(
                0.0, legacyPredictScalar(
                         predictor.forest(),
                         monitor::pairFeatures(topo, snapshotBw, i,
                                               j, load, retrans)));
        }
    }
    return predicted;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_inference.json";
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

    const auto predictor = bench::syntheticPredictor();
    const auto topo = net::TopologyBuilder::paperTestbed(
        8, net::VmTypeCatalog::t3nano());
    const auto snapshot = bench::syntheticSnapshot(topo);
    const ml::CompiledForest &compiled =
        predictor.forest().compiled();

    // --- parity first: the batched path must be bit-identical -----------
    const auto batched = predictor.predictMatrix(topo, snapshot);
    const auto legacy = legacyPredictMatrix(predictor, topo, snapshot);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 8; ++j) {
            if (batched.at(i, j) != legacy.at(i, j)) {
                std::fprintf(stderr,
                             "PARITY FAILURE at (%zu, %zu): "
                             "batched %.17g != legacy %.17g\n",
                             i, j, batched.at(i, j),
                             legacy.at(i, j));
                return 1;
            }
        }
    }

    const std::size_t reps = 3;
    const std::size_t scale = smoke ? 10 : 1;

    // Diverse single-pair inputs (a fixed row lets the branch
    // predictor memorize the legacy path and flatters it): the 56
    // matrix feature rows, cycled by both measurements.
    const monitor::HostLoad load;
    std::vector<std::vector<double>> pairRows;
    for (net::DcId i = 0; i < 8; ++i) {
        for (net::DcId j = 0; j < 8; ++j) {
            if (i == j)
                continue;
            const double cap = topo.connCap(i, j);
            const double retrans = std::max(
                0.0, 1.0 - snapshot.at(i, j) / std::max(cap, 1.0));
            pairRows.push_back(monitor::pairFeatures(
                topo, snapshot, i, j, load, retrans));
        }
    }

    // --- 1. single pair ---------------------------------------------------
    std::size_t cursor = 0;
    const double pairLegacyNs =
        nsPerOp(reps, 2000 / scale, [&] {
            gSink = legacyPredictScalar(
                predictor.forest(),
                pairRows[cursor++ % pairRows.size()]);
        });
    cursor = 0;
    const double pairCompiledNs =
        nsPerOp(reps, 20000 / scale, [&] {
            gSink = compiled.predictRow(
                pairRows[cursor++ % pairRows.size()].data());
        });

    // --- 2. full matrix, n = 8 -------------------------------------------
    // Interleaved best-of reps: frequency drift and noisy neighbors
    // hit both paths alike, keeping the ratio honest.
    double matrixLegacyNs = 0.0, matrixBatchedNs = 0.0;
    for (std::size_t rep = 0; rep < 5; ++rep) {
        const double legacyNs = nsPerOp(1, 50 / scale + 1, [&] {
            gSink = legacyPredictMatrix(predictor, topo, snapshot)
                        .offDiagonalMean();
        });
        const double batchedNs = nsPerOp(1, 500 / scale + 1, [&] {
            gSink = predictor.predictMatrix(topo, snapshot)
                        .offDiagonalMean();
        });
        if (rep == 0 || legacyNs < matrixLegacyNs)
            matrixLegacyNs = legacyNs;
        if (rep == 0 || batchedNs < matrixBatchedNs)
            matrixBatchedNs = batchedNs;
    }

    // --- 3. batch throughput, sequential vs pool -------------------------
    const std::size_t rows = smoke ? 512 : 4096;
    std::vector<double> X(rows * monitor::kFeatureCount);
    Rng rng(4242);
    for (auto &v : X)
        v = rng.uniform(0.0, 2000.0);
    std::vector<double> Y(rows, 0.0);
    const double batchSeqNs = nsPerOp(reps, 3, [&] {
        compiled.predictBatch(X.data(), rows, Y.data(),
                              /*parallel=*/false);
        gSink = Y[rows - 1];
    });
    const double batchParNs = nsPerOp(reps, 3, [&] {
        compiled.predictBatch(X.data(), rows, Y.data(),
                              /*parallel=*/true);
        gSink = Y[rows - 1];
    });

    const double pairSpeedup = pairLegacyNs / pairCompiledNs;
    const double matrixSpeedup = matrixLegacyNs / matrixBatchedNs;
    const double batchSpeedup = batchSeqNs / batchParNs;

    Table table("Inference performance (100 trees, Table 3 features)");
    table.setHeader({"path", "before (us)", "after (us)", "speedup"});
    table.addRow({"single pair", Table::num(pairLegacyNs / 1e3, 2),
                  Table::num(pairCompiledNs / 1e3, 2),
                  Table::num(pairSpeedup, 1) + "x"});
    table.addRow({"predictMatrix n=8",
                  Table::num(matrixLegacyNs / 1e3, 2),
                  Table::num(matrixBatchedNs / 1e3, 2),
                  Table::num(matrixSpeedup, 1) + "x"});
    table.addRow({"predictBatch " + std::to_string(rows) + " rows",
                  Table::num(batchSeqNs / 1e3, 2),
                  Table::num(batchParNs / 1e3, 2),
                  Table::num(batchSpeedup, 2) + "x"});
    table.print();
    std::printf("parity: batched predictMatrix bit-identical to the "
                "legacy per-pair loop\n");
    const std::size_t poolThreads = ThreadPool::global().threadCount();
    if (poolThreads == 1) {
        std::printf("pool: 1 thread — predictBatch falls back to the "
                    "sequential range by construction, so the pool "
                    "speedup is ~1.0 and not gated here\n");
    }

    bench::writeBenchJson(
        outPath,
        {bench::BenchJsonField::text("bench", "inference"),
         bench::BenchJsonField::boolean("smoke", smoke),
         bench::BenchJsonField::num("trees",
                                    predictor.forest().treeCount()),
         bench::BenchJsonField::num("pool_threads", poolThreads),
         bench::BenchJsonField::num("feature_count",
                                    monitor::kFeatureCount),
         bench::BenchJsonField::text("parity", "bit-identical")},
        {{"predict_pair_legacy_ns", pairLegacyNs},
         {"predict_pair_compiled_ns", pairCompiledNs},
         {"predict_matrix8_legacy_ns", matrixLegacyNs},
         {"predict_matrix8_batched_ns", matrixBatchedNs},
         {"predict_batch_seq_ns", batchSeqNs},
         {"predict_batch_parallel_ns", batchParNs},
         {"speedup_predict_pair", pairSpeedup},
         {"speedup_predict_matrix8", matrixSpeedup},
         {"speedup_predict_batch_pool", batchSpeedup}});
    std::printf("wrote %s\n", outPath.c_str());

    // Smoke mode gates on parity only. Full runs (CI included)
    // enforce a lenient same-machine floor well under the >= 10x
    // this bench demonstrates on quiet machines, so a real
    // regression still fails loudly.
    if (!smoke && matrixSpeedup < 4.0) {
        std::fprintf(stderr,
                     "predictMatrix speedup %.1fx below the 4x "
                     "regression floor\n",
                     matrixSpeedup);
        return 1;
    }
    // Pool scaling is only assertable where a pool exists: with one
    // thread both paths are the same code path. With several, the
    // lane-aligned chunking must at least not *lose* to sequential —
    // a deliberately loose floor, because on shared CI runners a
    // noisy neighbor can eat the extra cores mid-measurement; the
    // committed-baseline diff gate is what tracks scaling proper.
    if (!smoke && poolThreads > 1 && batchSpeedup < 1.05) {
        std::fprintf(stderr,
                     "predictBatch parallel path slower than "
                     "sequential (%.2fx on %zu threads): chunk "
                     "fan-out is pure overhead\n",
                     batchSpeedup, poolThreads);
        return 1;
    }
    return 0;
}
