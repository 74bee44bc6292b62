/**
 * @file
 * Tests for the TrainingContext split engines: the presorted exact
 * engine locked bit-identical against the nodeSort reference (random
 * datasets, heavy ties, multi-output targets, minSamples edges, warm
 * starts, parallel growth), the histogram engine's accuracy and
 * BinIndex sharing/extension semantics, and the retrain-latency
 * aggregation plumbing.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hh"
#include "core/predictor.hh"
#include "core/wanify.hh"
#include "experiments/runner.hh"
#include "ml/bin_index.hh"
#include "ml/metrics.hh"
#include "ml/random_forest.hh"
#include "ml/training_context.hh"

using namespace wanify;
using namespace wanify::ml;

namespace {

/** Continuous features, y = 3a + b - 2c + noise. */
Dataset
continuousData(std::size_t n, std::uint64_t seed,
               std::size_t outputs = 1)
{
    Rng rng(seed);
    Dataset data(3, outputs);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(0.0, 10.0);
        const double b = rng.uniform(0.0, 10.0);
        const double c = rng.uniform(0.0, 1.0);
        std::vector<double> y;
        for (std::size_t k = 0; k < outputs; ++k)
            y.push_back(3.0 * a + b * static_cast<double>(k + 1) -
                        2.0 * c + rng.normal(0.0, 0.5));
        data.add({a, b, c}, y);
    }
    return data;
}

/** Heavy ties: discrete features (as the Table 3 cluster size) and
 *  duplicated rows, the regime where tie handling decides splits. */
Dataset
tiedData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data(3, 1);
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
configFor(SplitMode mode, std::size_t trees = 12,
          std::size_t maxFeatures = 2)
{
    ForestConfig cfg;
    cfg.nEstimators = trees;
    cfg.bootstrapFraction = 0.8;
    cfg.tree.maxFeatures = maxFeatures;
    cfg.tree.splitMode = mode;
    return cfg;
}

/** Node-by-node, bit-for-bit forest equality. */
void
expectForestsIdentical(const RandomForestRegressor &a,
                       const RandomForestRegressor &b)
{
    ASSERT_EQ(a.treeCount(), b.treeCount());
    for (std::size_t t = 0; t < a.treeCount(); ++t) {
        const auto &na = a.trees()[t].nodes();
        const auto &nb = b.trees()[t].nodes();
        ASSERT_EQ(na.size(), nb.size()) << "tree " << t;
        for (std::size_t i = 0; i < na.size(); ++i) {
            EXPECT_EQ(na[i].feature, nb[i].feature)
                << "tree " << t << " node " << i;
            EXPECT_EQ(na[i].threshold, nb[i].threshold)
                << "tree " << t << " node " << i;
            EXPECT_EQ(na[i].left, nb[i].left);
            EXPECT_EQ(na[i].right, nb[i].right);
            ASSERT_EQ(na[i].leafValue.size(), nb[i].leafValue.size());
            for (std::size_t k = 0; k < na[i].leafValue.size(); ++k)
                EXPECT_EQ(na[i].leafValue[k], nb[i].leafValue[k]);
        }
        const auto &ga = a.trees()[t].featureGains();
        const auto &gb = b.trees()[t].featureGains();
        ASSERT_EQ(ga.size(), gb.size());
        for (std::size_t f = 0; f < ga.size(); ++f)
            EXPECT_EQ(ga[f], gb[f]) << "tree " << t << " gain " << f;
    }
    // OOB is computed from identical trees and bags.
    if (std::isnan(a.oobR2())) {
        EXPECT_TRUE(std::isnan(b.oobR2()));
    } else {
        EXPECT_EQ(a.oobR2(), b.oobR2());
    }
}

} // namespace

// ---- exact vs nodeSort parity ----------------------------------------------

TEST(TrainingParity, ExactBitIdenticalOnRandomDatasets)
{
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        const auto data = continuousData(300, seed);
        RandomForestRegressor exact(configFor(SplitMode::exact));
        RandomForestRegressor ref(configFor(SplitMode::nodeSort));
        exact.fit(data, seed);
        ref.fit(data, seed);
        expectForestsIdentical(exact, ref);
    }
}

TEST(TrainingParity, ExactBitIdenticalOnHeavyTies)
{
    for (std::uint64_t seed : {5ull, 6ull}) {
        const auto data = tiedData(250, seed);
        RandomForestRegressor exact(configFor(SplitMode::exact));
        RandomForestRegressor ref(configFor(SplitMode::nodeSort));
        exact.fit(data, seed);
        ref.fit(data, seed);
        expectForestsIdentical(exact, ref);
    }
}

TEST(TrainingParity, ExactBitIdenticalMultiOutput)
{
    const auto data = continuousData(250, 77, /*outputs=*/3);
    RandomForestRegressor exact(configFor(SplitMode::exact));
    RandomForestRegressor ref(configFor(SplitMode::nodeSort));
    exact.fit(data, 78);
    ref.fit(data, 78);
    expectForestsIdentical(exact, ref);
}

TEST(TrainingParity, ExactBitIdenticalAtMinSamplesEdges)
{
    // Tiny nodes and tight limits: the regime where a one-off in the
    // minSamplesSplit/minSamplesLeaf checks or the tie skipping
    // changes the tree shape.
    for (std::size_t minSplit : {2u, 4u, 7u}) {
        for (std::size_t minLeaf : {1u, 2u, 3u}) {
            for (std::size_t nSamples : {6u, 13u, 40u}) {
                auto ce = configFor(SplitMode::exact, 6, 0);
                auto cn = configFor(SplitMode::nodeSort, 6, 0);
                ce.tree.minSamplesSplit = cn.tree.minSamplesSplit =
                    minSplit;
                ce.tree.minSamplesLeaf = cn.tree.minSamplesLeaf =
                    minLeaf;
                ce.tree.maxDepth = cn.tree.maxDepth = 5;
                const auto data = tiedData(nSamples, 90 + nSamples);
                RandomForestRegressor exact(ce), ref(cn);
                exact.fit(data, 91);
                ref.fit(data, 91);
                expectForestsIdentical(exact, ref);
            }
        }
    }
}

TEST(TrainingParity, ExactWarmStartRegrowthBitIdentical)
{
    auto data = tiedData(200, 101);
    RandomForestRegressor exact(configFor(SplitMode::exact));
    RandomForestRegressor ref(configFor(SplitMode::nodeSort));
    exact.fit(data, 102);
    ref.fit(data, 102);

    data.append(continuousData(80, 103));
    exact.warmStart(data, 5, 104);
    ref.warmStart(data, 5, 104);
    expectForestsIdentical(exact, ref);
}

TEST(TrainingParity, ExactParallelAndSequentialGrowthBitIdentical)
{
    // The shared TrainingContext is read-only across tree tasks and
    // scratch is per-thread: pool growth must equal sequential.
    const auto data = tiedData(300, 111);
    auto seq = configFor(SplitMode::exact, 16);
    auto par = configFor(SplitMode::exact, 16);
    seq.nThreads = 1;
    par.nThreads = 4;
    RandomForestRegressor a(seq), b(par);
    a.fit(data, 112);
    b.fit(data, 112);
    expectForestsIdentical(a, b);
}

TEST(TrainingParity, TreeContextFitMatchesDatasetFit)
{
    const auto data = tiedData(150, 121);
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < data.size(); i += 2)
        indices.push_back(i);

    TreeConfig cfg;
    cfg.maxFeatures = 2;
    DecisionTreeRegressor direct(cfg), viaContext(cfg);
    Rng rngA(122), rngB(122);
    direct.fit(data, indices, rngA);
    const TrainingContext ctx(data, SplitMode::exact);
    viaContext.fit(ctx, indices, rngB);

    ASSERT_EQ(direct.nodeCount(), viaContext.nodeCount());
    for (std::size_t i = 0; i < direct.nodes().size(); ++i) {
        EXPECT_EQ(direct.nodes()[i].threshold,
                  viaContext.nodes()[i].threshold);
        EXPECT_EQ(direct.nodes()[i].feature,
                  viaContext.nodes()[i].feature);
    }
}

// ---- histogram mode --------------------------------------------------------

TEST(HistogramTraining, OobWithinEpsilonOfExact)
{
    const auto data = continuousData(600, 131);
    RandomForestRegressor exact(configFor(SplitMode::exact, 25));
    RandomForestRegressor hist(configFor(SplitMode::histogram, 25));
    exact.fit(data, 132);
    hist.fit(data, 132);
    ASSERT_FALSE(std::isnan(exact.oobR2()));
    ASSERT_FALSE(std::isnan(hist.oobR2()));
    EXPECT_NEAR(hist.oobR2(), exact.oobR2(), 0.05);

    // Holdout predictions track the exact-mode forest closely.
    const auto test = continuousData(150, 133);
    std::vector<double> truth, pe, ph;
    for (std::size_t i = 0; i < test.size(); ++i) {
        truth.push_back(test.target(i));
        pe.push_back(exact.predictScalar(test.x(i)));
        ph.push_back(hist.predictScalar(test.x(i)));
    }
    EXPECT_LT(mae(truth, ph), mae(truth, pe) * 1.25 + 0.1);
}

TEST(HistogramTraining, DeterministicAndExactThresholdsOnDiscrete)
{
    // Same seed -> identical forests; on all-discrete features every
    // distinct value is its own bin, so the candidate thresholds are
    // exactly the exact-mode midpoints between neighboring values.
    const auto data = tiedData(200, 141);
    RandomForestRegressor a(configFor(SplitMode::histogram));
    RandomForestRegressor b(configFor(SplitMode::histogram));
    a.fit(data, 142);
    b.fit(data, 142);
    expectForestsIdentical(a, b);

    const auto bins = BinIndex::build(data);
    ASSERT_NE(bins, nullptr);
    EXPECT_EQ(bins->binCount(0), 6u); // values 0..5
    EXPECT_DOUBLE_EQ(bins->threshold(0, 0), 0.5);
    EXPECT_DOUBLE_EQ(bins->threshold(0, 4), 4.5);
}

TEST(HistogramTraining, ForestSharesAndExtendsBinIndex)
{
    auto data = continuousData(300, 151);
    RandomForestRegressor forest(configFor(SplitMode::histogram));
    forest.fit(data, 152);
    const auto bins = forest.binIndex();
    ASSERT_NE(bins, nullptr);
    EXPECT_EQ(bins->rows(), 300u);

    // Copies share the index; exact-mode forests have none.
    const RandomForestRegressor copy = forest;
    EXPECT_EQ(copy.binIndex().get(), bins.get());
    RandomForestRegressor exact(configFor(SplitMode::exact));
    exact.fit(data, 153);
    EXPECT_EQ(exact.binIndex(), nullptr);

    // Warm start on the grown dataset extends rather than rebuilds:
    // the original rows keep their codes and the original edges keep
    // their thresholds; only the new rows are coded.
    data.append(continuousData(100, 154));
    forest.warmStart(data, 5, 155);
    const auto extended = forest.binIndex();
    ASSERT_NE(extended, nullptr);
    EXPECT_EQ(extended->rows(), 400u);
    for (std::size_t f = 0; f < 3; ++f) {
        EXPECT_EQ(extended->binCount(f), bins->binCount(f));
        for (std::size_t i = 0; i < 300; i += 37)
            EXPECT_EQ(extended->code(i, f), bins->code(i, f));
        for (std::size_t b = 0; b + 1 < bins->binCount(f); b += 11)
            EXPECT_EQ(extended->threshold(f, b), bins->threshold(f, b));
    }
    // The base copy still sees the original, un-mutated index.
    EXPECT_EQ(copy.binIndex()->rows(), 300u);
}

TEST(HistogramTraining, WarmStartWithOutOfRangeRowsSurvives)
{
    // Regression test: appended gauges can carry values outside the
    // original bin edges or inside between-bin gaps, where the bin
    // code and the stored threshold disagree — training partitions by
    // code, so the grower must not hit a degenerate split.
    auto data = continuousData(250, 161);
    RandomForestRegressor forest(configFor(SplitMode::histogram, 15));
    forest.fit(data, 162);

    Rng rng(163);
    for (int i = 0; i < 120; ++i) {
        // Deliberately out of the training range on every feature.
        const double a = rng.uniform(-5.0, 20.0);
        const double b = rng.uniform(-5.0, 20.0);
        const double c = rng.uniform(-2.0, 3.0);
        data.add({a, b, c}, 3.0 * a + b - 2.0 * c);
    }
    forest.warmStart(data, 10, 164);
    EXPECT_EQ(forest.treeCount(), 25u);
    EXPECT_EQ(forest.binIndex()->rows(), data.size());
    // Still a sane regressor after the extension.
    EXPECT_NEAR(forest.predictScalar({5.0, 5.0, 0.5}), 19.0, 6.0);
}

TEST(BinIndex, CodesAreMonotoneAndClampOutOfRange)
{
    Dataset data(1, 1);
    for (double v : {1.0, 2.0, 2.0, 5.0, 9.0})
        data.add({v}, v);
    const auto bins = BinIndex::build(data);
    EXPECT_EQ(bins->binCount(0), 4u);
    EXPECT_EQ(bins->codeValue(0, 1.0), 0);
    EXPECT_EQ(bins->codeValue(0, 2.0), 1);
    EXPECT_EQ(bins->codeValue(0, 3.0), 2); // gap -> next bin up
    EXPECT_EQ(bins->codeValue(0, 9.0), 3);
    EXPECT_EQ(bins->codeValue(0, -4.0), 0);  // clamp low
    EXPECT_EQ(bins->codeValue(0, 100.0), 3); // clamp high

    Dataset shrunk(1, 1);
    shrunk.add({1.0}, 1.0);
    EXPECT_THROW(bins->extended(shrunk), FatalError);
}

TEST(BinIndex, QuantileBinningCapsBinCount)
{
    Dataset data(1, 1);
    Rng rng(171);
    for (int i = 0; i < 4000; ++i) {
        const double v = rng.uniform(0.0, 1000.0);
        data.add({v}, v);
    }
    const auto bins = BinIndex::build(data);
    EXPECT_LE(bins->binCount(0), BinIndex::kMaxBins);
    EXPECT_GE(bins->binCount(0), BinIndex::kMaxBins / 2);
    // For *training* values, codes and thresholds agree: x <=
    // threshold(b) iff code <= b. (Unseen values inside a between-bin
    // gap may disagree — that is why histogram training partitions by
    // code, not threshold.)
    for (std::size_t i = 0; i < data.size(); i += 13) {
        const double v = data.x(i)[0];
        const std::size_t code = bins->codeValue(0, v);
        if (code + 1 < bins->binCount(0)) {
            EXPECT_LE(v, bins->threshold(0, code));
        }
        if (code > 0) {
            EXPECT_GT(v, bins->threshold(0, code - 1));
        }
    }
}

// ---- facade plumbing -------------------------------------------------------

TEST(WanifyRetrain, HistogramBinIndexRidesWarmStarts)
{
    // The facade's retrain copies the base predictor, so the shared
    // BinIndex travels with it and the warm start extends it against
    // the grown campaign dataset instead of re-binning.
    core::WanifyConfig cfg;
    cfg.forest.nEstimators = 10;
    cfg.forest.tree.splitMode = ml::SplitMode::histogram;
    cfg.retrainExtraTrees = 5;
    core::Wanify wanify(cfg);

    auto makeRows = [](std::size_t n, std::uint64_t seed) {
        Rng rng(seed);
        Dataset rows(monitor::kFeatureCount, 1);
        for (std::size_t i = 0; i < n; ++i) {
            rows.add({2.0 + rng.uniformInt(0, 6),
                      rng.uniform(20.0, 2000.0),
                      rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                      rng.uniform(0.0, 0.5),
                      rng.uniform(100.0, 11000.0)},
                     rng.uniform(50.0, 1500.0));
        }
        return rows;
    };

    auto base =
        std::make_shared<core::RuntimeBwPredictor>(cfg.forest);
    auto campaign = makeRows(200, 181);
    base->train(campaign, 182);
    ASSERT_NE(base->forest().binIndex(), nullptr);
    EXPECT_EQ(base->forest().binIndex()->rows(), 200u);
    wanify.setPredictor(base);

    campaign.append(makeRows(50, 183));
    const auto retrained = wanify.retrain(campaign, 184);
    ASSERT_NE(retrained, nullptr);
    EXPECT_EQ(retrained->forest().treeCount(), 15u);
    EXPECT_EQ(retrained->forest().binIndex()->rows(), 250u);
    // The pinned base snapshot keeps its original, un-mutated index.
    EXPECT_EQ(base->forest().binIndex()->rows(), 200u);
    for (std::size_t f = 0; f < monitor::kFeatureCount; ++f)
        EXPECT_EQ(retrained->forest().binIndex()->binCount(f),
                  base->forest().binIndex()->binCount(f));
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
