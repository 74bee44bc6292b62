/**
 * @file
 * Tests for the presorted tree trainer: forests and single trees
 * locked bit-identical against the node-sort oracle
 * (tests/oracles/node_sort.hh) across random datasets, heavy ties,
 * minSamples edges, warm starts and parallel growth; the training
 * entry points' checks; and the retrain-latency aggregation plumbing.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "experiments/runner.hh"
#include "expect_what.hh"
#include "ml/random_forest.hh"
#include "ml/training_context.hh"
#include "oracles/node_sort.hh"

using namespace wanify;
using namespace wanify::ml;
using oracle::forestMismatch;
using oracle::NodeSortForest;
using test::whatOf;

namespace {

/** Continuous features, y = 3a + b - 2c + noise. */
Dataset
continuousData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data(3);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(0.0, 10.0);
        const double b = rng.uniform(0.0, 10.0);
        const double c = rng.uniform(0.0, 1.0);
        data.add({a, b, c}, 3.0 * a + b - 2.0 * c + rng.normal(0.0, 0.5));
    }
    return data;
}

/** Heavy ties: discrete features (as the Table 3 cluster size) and
 *  duplicated rows, the regime where tie handling decides splits. */
Dataset
tiedData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data(3);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = static_cast<double>(rng.uniformInt(0, 5));
        const double b = static_cast<double>(rng.uniformInt(0, 2));
        const double c =
            rng.bernoulli(0.3) ? 7.0 : rng.uniform(0.0, 10.0);
        data.add({a, b, c},
                 4.0 * a - b + 0.5 * c + rng.normal(0.0, 0.3));
        if (rng.bernoulli(0.25)) // exact duplicate rows
            data.add({a, b, c}, 4.0 * a - b + 0.5 * c);
    }
    return data;
}

ForestConfig
configFor(std::size_t trees = 12, std::size_t maxFeatures = 2)
{
    ForestConfig cfg;
    cfg.nEstimators = trees;
    cfg.bootstrapFraction = 0.8;
    cfg.tree.maxFeatures = maxFeatures;
    return cfg;
}

/** Fit a forest and the oracle alike; "" when they match. */
std::string
fitMismatch(const ForestConfig &cfg, const Dataset &data,
            std::uint64_t seed)
{
    RandomForestRegressor forest(cfg);
    NodeSortForest ref(cfg);
    forest.fit(data, seed);
    ref.fit(data, seed);
    return forestMismatch(forest, ref);
}

} // namespace

// ---- forest vs node-sort oracle parity -------------------------------------

TEST(TrainingParity, BitIdenticalOnRandomDatasets)
{
    for (std::uint64_t seed : {11ull, 22ull, 33ull})
        EXPECT_EQ(fitMismatch(configFor(), continuousData(300, seed),
                              seed),
                  "")
            << "seed " << seed;
}

TEST(TrainingParity, BitIdenticalOnHeavyTies)
{
    for (std::uint64_t seed : {5ull, 6ull})
        EXPECT_EQ(fitMismatch(configFor(), tiedData(250, seed), seed),
                  "")
            << "seed " << seed;
}

TEST(TrainingParity, BitIdenticalAtMinSamplesEdges)
{
    // Tiny nodes and tight limits: the regime where a one-off in the
    // minSamplesSplit/minSamplesLeaf checks or the tie skipping
    // changes the tree shape.
    for (std::size_t minSplit : {2u, 4u, 7u}) {
        for (std::size_t minLeaf : {1u, 2u, 3u}) {
            for (std::size_t nSamples : {6u, 13u, 40u}) {
                auto cfg = configFor(6, 0);
                cfg.tree.minSamplesSplit = minSplit;
                cfg.tree.minSamplesLeaf = minLeaf;
                cfg.tree.maxDepth = 5;
                EXPECT_EQ(fitMismatch(cfg,
                                      tiedData(nSamples, 90 + nSamples),
                                      91),
                          "")
                    << "minSplit " << minSplit << " minLeaf "
                    << minLeaf << " n " << nSamples;
            }
        }
    }
}

TEST(TrainingParity, WarmStartRegrowthBitIdentical)
{
    auto data = tiedData(200, 101);
    RandomForestRegressor forest(configFor());
    NodeSortForest ref(configFor());
    forest.fit(data, 102);
    ref.fit(data, 102);
    EXPECT_EQ(forestMismatch(forest, ref), "");

    data.append(continuousData(80, 103));
    forest.warmStart(data, 5, 104);
    ref.warmStart(data, 5, 104);
    EXPECT_EQ(forestMismatch(forest, ref), "");
}

TEST(TrainingParity, ParallelAndSequentialGrowthBitIdentical)
{
    // The shared TrainingContext is read-only across tree tasks and
    // scratch is per-thread: pool growth must equal sequential.
    const auto data = tiedData(300, 111);
    auto seq = configFor(16);
    seq.nThreads = 1;
    NodeSortForest ref(seq);
    ref.fit(data, 112);
    for (std::size_t threads : {0u, 1u, 4u}) {
        auto cfg = configFor(16);
        cfg.nThreads = threads;
        RandomForestRegressor forest(cfg);
        forest.fit(data, 112);
        EXPECT_EQ(forestMismatch(forest, ref), "")
            << threads << " threads";
    }
}

TEST(TrainingParity, TreeFitsBitIdentical)
{
    // A plain tree fit through a private context and one through a
    // shared context both match the oracle tree.
    const auto data = tiedData(150, 121);
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < data.size(); i += 2)
        indices.push_back(i);

    TreeConfig cfg;
    cfg.maxFeatures = 2;
    DecisionTreeRegressor direct(cfg), viaContext(cfg);
    oracle::NodeSortTree ref(cfg);
    Rng rngA(122), rngB(122), rngC(122);
    direct.fit(data, indices, rngA);
    const TrainingContext ctx(data);
    viaContext.fit(ctx, indices, rngB);
    ref.fit(data, indices, rngC);
    EXPECT_EQ(oracle::treeMismatch(direct, ref), "");
    EXPECT_EQ(oracle::treeMismatch(viaContext, ref), "");
}

// ---- checks ----------------------------------------------------------------

TEST(TrainingChecks, NameTheirCause)
{
    const Dataset empty(3);
    const auto data = tiedData(20, 131);
    const std::vector<std::size_t> none;
    const std::vector<std::size_t> outOfRange = {0, data.size()};
    DecisionTreeRegressor tree;
    Rng rng(132);

    EXPECT_EQ(whatOf<FatalError>([&] { tree.fit(empty, rng); }),
              "fatal: DecisionTreeRegressor::fit: empty dataset");
    EXPECT_EQ(whatOf<FatalError>([&] { tree.fit(empty, {0}, rng); }),
              "fatal: DecisionTreeRegressor::fit: empty dataset");
    EXPECT_EQ(whatOf<FatalError>([&] { tree.fit(data, none, rng); }),
              "fatal: DecisionTreeRegressor::fit: no sample indices");
    EXPECT_EQ(whatOf<FatalError>([&] { tree.fit(data, outOfRange, rng); }),
              "fatal: DecisionTree: sample index out of range");

    const TrainingContext ctx(data);
    EXPECT_EQ(whatOf<FatalError>([&] { tree.fit(ctx, none, rng); }),
              "fatal: DecisionTreeRegressor::fit: no sample indices");
    EXPECT_EQ(whatOf<FatalError>([&] { tree.fit(ctx, outOfRange, rng); }),
              "fatal: DecisionTree: sample index out of range");
    EXPECT_EQ(whatOf<FatalError>([&] { TrainingContext{empty}; }),
              "fatal: TrainingContext: empty dataset");

    EXPECT_EQ(whatOf<FatalError>([] {
                  ForestConfig cfg;
                  cfg.nEstimators = 0;
                  RandomForestRegressor{cfg};
              }),
              "fatal: RandomForest: nEstimators must be > 0");
    for (double fraction : {0.0, -0.5, 1.5}) {
        EXPECT_EQ(whatOf<FatalError>([&] {
                      ForestConfig cfg;
                      cfg.bootstrapFraction = fraction;
                      RandomForestRegressor{cfg};
                  }),
                  "fatal: RandomForest: bootstrapFraction must be in "
                  "(0, 1]")
            << fraction;
    }
    RandomForestRegressor forest(configFor(4));
    EXPECT_EQ(whatOf<FatalError>([&] { forest.fit(empty, 133); }),
              "fatal: RandomForest::fit: empty dataset");
    EXPECT_EQ(whatOf<FatalError>([&] { forest.warmStart(empty, 2, 134); }),
              "fatal: RandomForest::warmStart: empty dataset");
}

// ---- retrain latency aggregation -------------------------------------------

TEST(RetrainLatency, AggregateAveragesAcrossRetrains)
{
    gda::QueryResult a, b, c;
    a.retrainsApplied = 2;
    a.retrainLatencies = {0.10, 0.30};
    a.retrainCpuSeconds = 0.40;
    b.retrainsApplied = 1;
    b.retrainLatencies = {0.20};
    b.retrainCpuSeconds = 0.20;
    // c never retrained.

    const auto agg = experiments::aggregate({a, b, c});
    EXPECT_EQ(agg.totalRetrainsApplied, 3u);
    EXPECT_NEAR(agg.totalRetrainSeconds, 0.60, 1e-12);
    EXPECT_NEAR(agg.meanRetrainSeconds, 0.20, 1e-12);

    const auto none = experiments::aggregate({c});
    EXPECT_EQ(none.meanRetrainSeconds, 0.0);
    EXPECT_EQ(none.totalRetrainSeconds, 0.0);
}
