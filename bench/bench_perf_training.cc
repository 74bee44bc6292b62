/**
 * @file
 * Training performance bench: ml::RandomForestRegressor's presorted
 * trainer vs the node-sort oracle (tests/oracles/node_sort.hh, the
 * legacy per-node-sorting splitter), on the production forest shape
 * and a campaign-sized Table 3 dataset.
 *
 * Two arms, timed interleaved (best-of so frequency drift hits them
 * alike):
 *
 *  1. node-sort oracle — re-sorts the node's index set per candidate
 *     feature at every node (the "before" column);
 *  2. forest — presorted per-feature orderings partitioned down the
 *     tree, bit-identical trees to the oracle (gated here every run,
 *     node by node, for fits and warm starts).
 *
 * Both full fits (the Bandwidth Analyzer campaign path) and 25-tree
 * warm starts on a grown dataset (the Section 3.3.4 drift-retrain
 * stall) are measured. Results are printed as a table and emitted to
 * BENCH_training.json (override with --out) for the perf trajectory.
 * CI runs the full mode, which enforces a lenient same-machine fit
 * speedup floor (>= 5x) far under what quiet machines measure, so a
 * real regression fails loudly even on slow shared runners; --smoke
 * shrinks the workload for quick local iteration and applies only
 * the parity gates.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hh"
#include "common/table.hh"
#include "ml/random_forest.hh"
#include "oracles/node_sort.hh"

using namespace wanify;

namespace {

using Clock = std::chrono::steady_clock;

volatile double gSink = 0.0;

ml::ForestConfig
forestConfig(std::size_t trees)
{
    ml::ForestConfig cfg = experiments::sharedForestConfig();
    cfg.nEstimators = trees;
    return cfg;
}

/** Print the first forest-vs-oracle difference; true when none. */
bool
parityHolds(const char *what, const ml::RandomForestRegressor &forest,
            const oracle::NodeSortForest &ref)
{
    const std::string diff = oracle::forestMismatch(forest, ref);
    if (!diff.empty())
        std::fprintf(stderr, "PARITY FAILURE (%s): %s\n", what,
                     diff.c_str());
    return diff.empty();
}

/** Best-of-@p reps milliseconds for one invocation of @p fn. */
template <typename F>
double
bestOfMs(std::size_t reps, F fn)
{
    double best = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        if (rep == 0 || ms < best)
            best = ms;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_training.json";
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

    // Campaign scale: the shared analyzer config collects 24 meshes
    // over sizes {2, 4, 6, 8} -> ~2400 pair rows; warm starts then
    // append runtime gauges. Smoke shrinks both for CI runners.
    const std::size_t rows = smoke ? 800 : 2400;
    const std::size_t extraRows = smoke ? 120 : 336; // ~6 8-DC gauges
    const std::size_t trees = smoke ? 24 : 100;
    const std::size_t extraTrees = 25; // WanifyConfig::retrainExtraTrees
    const std::size_t reps = smoke ? 2 : 3;
    const std::uint64_t seed = 20250731;

    const auto data = bench::campaignTable3Data(rows, seed);
    auto grown = data;
    grown.append(
        bench::campaignTable3Data(extraRows, seed ^ 0xfeedULL));

    // --- parity gate first ----------------------------------------------
    ml::RandomForestRegressor forest(forestConfig(trees));
    oracle::NodeSortForest nodeSortForest(forestConfig(trees));
    forest.fit(data, seed);
    nodeSortForest.fit(data, seed);
    if (!parityHolds("fit", forest, nodeSortForest))
        return 1;

    // --- timed fits (interleaved best-of) --------------------------------
    double fitNodeSortMs = 0.0, fitExactMs = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const double ns = bestOfMs(1, [&] {
            oracle::NodeSortForest f(forestConfig(trees));
            f.fit(data, seed);
            gSink = f.oobR2();
        });
        const double ex = bestOfMs(1, [&] {
            ml::RandomForestRegressor f(forestConfig(trees));
            f.fit(data, seed);
            gSink = f.oobR2();
        });
        if (rep == 0 || ns < fitNodeSortMs)
            fitNodeSortMs = ns;
        if (rep == 0 || ex < fitExactMs)
            fitExactMs = ex;
    }

    // --- timed warm starts (the drift-retrain stall) ---------------------
    // Copy outside the clock (Wanify::retrain copies the base model
    // too; the forest's copy shares its trees, the oracle's
    // duplicates them); each rep's pair of warm-started copies must
    // still match. The forest's timed warm start includes compiling
    // its new trees.
    double wsNodeSortMs = 0.0, wsExactMs = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        auto ref = nodeSortForest;
        const double ns = bestOfMs(1, [&] {
            ref.warmStart(grown, extraTrees, seed + rep);
            gSink = ref.oobR2();
        });
        auto f = forest;
        const double ex = bestOfMs(1, [&] {
            f.warmStart(grown, extraTrees, seed + rep);
            gSink = f.oobR2();
        });
        if (!parityHolds("warmStart", f, ref))
            return 1;
        if (rep == 0 || ns < wsNodeSortMs)
            wsNodeSortMs = ns;
        if (rep == 0 || ex < wsExactMs)
            wsExactMs = ex;
    }

    const double fitSpeedupExact = fitNodeSortMs / fitExactMs;
    const double wsSpeedupExact = wsNodeSortMs / wsExactMs;

    Table table("Training performance (" + std::to_string(trees) +
                " trees, depth 14, " + std::to_string(rows) +
                " campaign rows)");
    table.setHeader({"path", "node-sort oracle (ms)", "forest (ms)",
                     "speedup"});
    table.addRow({"forest fit", Table::num(fitNodeSortMs, 0),
                  Table::num(fitExactMs, 0),
                  Table::num(fitSpeedupExact, 1) + "x"});
    table.addRow({"warmStart +" + std::to_string(extraTrees),
                  Table::num(wsNodeSortMs, 0),
                  Table::num(wsExactMs, 0),
                  Table::num(wsSpeedupExact, 1) + "x"});
    table.print();
    std::printf("parity: forest bit-identical to the node-sort oracle "
                "(fit and warmStart)\n");

    bench::writeBenchJson(
        outPath,
        {bench::BenchJsonField::text("bench", "training"),
         bench::BenchJsonField::boolean("smoke", smoke),
         bench::BenchJsonField::num("trees", trees),
         bench::BenchJsonField::num("rows", rows),
         bench::BenchJsonField::num(
             "pool_threads", ThreadPool::global().threadCount()),
         bench::BenchJsonField::text(
             "parity", "forest bit-identical to the node-sort oracle")},
        {{"fit_nodesort_ms", fitNodeSortMs},
         {"fit_exact_ms", fitExactMs},
         {"warmstart_nodesort_ms", wsNodeSortMs},
         {"warmstart_exact_ms", wsExactMs},
         {"speedup_fit_exact", fitSpeedupExact},
         {"speedup_warmstart_exact", wsSpeedupExact}});
    std::printf("wrote %s\n", outPath.c_str());

    // Smoke mode gates on parity only; full runs (CI included)
    // enforce a same-machine floor far below quiet-machine
    // measurements (~18x).
    if (!smoke && fitSpeedupExact < 5.0) {
        std::fprintf(stderr,
                     "forest fit speedup %.1fx below the 5x floor\n",
                     fitSpeedupExact);
        return 1;
    }
    return 0;
}
