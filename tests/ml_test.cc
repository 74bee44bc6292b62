/**
 * @file
 * Tests for the learning substrate: dataset handling, CART trees,
 * the Random Forest (bagging, warm start, OOB, feature importances),
 * the compiled forest, and the metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.hh"
#include "ml/compiled_forest.hh"
#include "ml/dataset.hh"
#include "ml/decision_tree.hh"
#include "ml/metrics.hh"
#include "ml/random_forest.hh"
#include "oracles/forest_predict.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::ml;
using test::whatOf;

namespace {

/** y = 3x0 + noise; x1 is an irrelevant feature. */
Dataset
linearData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data(2);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform(0.0, 10.0);
        const double x1 = rng.uniform(0.0, 10.0);
        data.add({x0, x1}, 3.0 * x0 + rng.normal(0.0, 0.05));
    }
    return data;
}

/** The bits of @p v, so NaN compares equal to itself. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** @p forest's batched prediction of every row of @p data. */
std::vector<double>
predictRows(const RandomForestRegressor &forest, const Dataset &data)
{
    std::vector<double> X;
    for (std::size_t i = 0; i < data.size(); ++i)
        X.insert(X.end(), data.x(i).begin(), data.x(i).end());
    std::vector<double> y(data.size());
    forest.compiled().predictBatch(X.data(), data.size(), y.data());
    return y;
}

/** Step function: y = 10 for x < 5 else 20 — trivially learnable. */
Dataset
stepData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data(1);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.uniform(0.0, 10.0);
        data.add({x}, x < 5.0 ? 10.0 : 20.0);
    }
    return data;
}

} // namespace

// ---- dataset ---------------------------------------------------------------

TEST(Dataset, ShapeEnforced)
{
    Dataset data(2);
    data.add({1.0, 2.0}, 3.0);
    EXPECT_THROW(data.add({1.0}, 3.0), FatalError);
    EXPECT_EQ(data.size(), 1u);
    EXPECT_DOUBLE_EQ(data.y(0), 3.0);
    EXPECT_EQ(whatOf<FatalError>([] { Dataset twoTargets(2, 2); }),
              "fatal: Dataset: a sample has one target");
}

TEST(Dataset, SplitPartitionsAllSamples)
{
    auto data = linearData(100, 1);
    Rng rng(2);
    const auto [train, test] = data.split(0.8, rng);
    EXPECT_EQ(train.size() + test.size(), 100u);
    EXPECT_EQ(train.size(), 80u);
}

TEST(Dataset, AppendConcatenates)
{
    auto a = linearData(10, 1);
    const auto b = linearData(5, 2);
    a.append(b);
    EXPECT_EQ(a.size(), 15u);

    // Appending a dataset to itself doubles it.
    Dataset d(2);
    for (int i = 0; i < 3; ++i)
        d.add({1.0 * i, 2.0 * i}, 3.0 * i);
    d.append(d);
    ASSERT_EQ(d.size(), 6u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(d.x(i + 3), d.x(i));
        EXPECT_EQ(d.y(i + 3), d.y(i));
    }
}

// ---- decision tree -----------------------------------------------------------

TEST(DecisionTree, LearnsStepFunctionExactly)
{
    DecisionTreeRegressor tree;
    Rng rng(3);
    tree.fit(stepData(200, 5), rng);
    EXPECT_NEAR(tree.predict({2.0}), 10.0, 1e-9);
    EXPECT_NEAR(tree.predict({8.0}), 20.0, 1e-9);
}

TEST(DecisionTree, FitsLinearTrendApproximately)
{
    DecisionTreeRegressor tree;
    Rng rng(4);
    tree.fit(linearData(500, 6), rng);
    for (double x : {1.0, 4.0, 9.0})
        EXPECT_NEAR(tree.predict({x, 5.0}), 3.0 * x, 1.0);
}

TEST(DecisionTree, RespectsMaxDepth)
{
    TreeConfig cfg;
    cfg.maxDepth = 2;
    DecisionTreeRegressor tree(cfg);
    Rng rng(9);
    tree.fit(linearData(500, 10), rng);
    // Root + 2 levels, both filled: 7 nodes, 4 leaves.
    EXPECT_EQ(tree.depth(), 3u);
    EXPECT_EQ(tree.nodeCount(), 7u);
}

TEST(DecisionTree, FeatureGainsIdentifyRelevantFeature)
{
    DecisionTreeRegressor tree;
    Rng rng(11);
    tree.fit(linearData(500, 12), rng);
    const auto &gains = tree.featureGains();
    ASSERT_EQ(gains.size(), 2u);
    EXPECT_GT(gains[0], 100.0 * gains[1]);
}

TEST(DecisionTree, PredictBeforeFitPanics)
{
    DecisionTreeRegressor tree;
    EXPECT_THROW(tree.predict({1.0}), PanicError);
}

TEST(DecisionTree, ConstantTargetGivesSingleLeaf)
{
    Dataset data(1);
    for (int i = 0; i < 50; ++i)
        data.add({static_cast<double>(i)}, 42.0);
    DecisionTreeRegressor tree;
    Rng rng(13);
    tree.fit(data, rng);
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_EQ(tree.depth(), 1u);
    EXPECT_DOUBLE_EQ(tree.predict({99.0}), 42.0);
}

// ---- random forest ------------------------------------------------------------

TEST(RandomForest, BeatsNaiveMeanOnLinearData)
{
    const auto train = linearData(600, 20);
    const auto test = linearData(100, 21);

    ForestConfig cfg;
    cfg.nEstimators = 30;
    RandomForestRegressor forest(cfg);
    forest.fit(train, 22);

    std::vector<double> truth, pred;
    for (std::size_t i = 0; i < test.size(); ++i) {
        truth.push_back(test.y(i));
        pred.push_back(oracle::forestPredict(forest, test.x(i)));
    }
    EXPECT_GT(r2(truth, pred), 0.98);
    EXPECT_LT(mae(truth, pred), 1.0);
}

TEST(RandomForest, OobR2HighOnLearnableProblem)
{
    ForestConfig cfg;
    cfg.nEstimators = 40;
    RandomForestRegressor forest(cfg);
    forest.fit(linearData(400, 30), 31);
    EXPECT_GT(forest.oobR2(), 0.95);
}

TEST(RandomForest, WarmStartAddsTrees)
{
    ForestConfig cfg;
    cfg.nEstimators = 10;
    RandomForestRegressor forest(cfg);
    const auto data = linearData(200, 40);
    forest.fit(data, 41);
    EXPECT_EQ(forest.treeCount(), 10u);

    auto grown = data;
    grown.append(linearData(100, 42));
    forest.warmStart(grown, 5, 43);
    EXPECT_EQ(forest.treeCount(), 15u);
    // Still accurate after the warm start.
    EXPECT_NEAR(oracle::forestPredict(forest, {5.0, 1.0}), 15.0, 1.0);
}

TEST(RandomForest, WarmStartRejectsShapeChange)
{
    ForestConfig cfg;
    cfg.nEstimators = 4;
    RandomForestRegressor forest(cfg);
    forest.fit(linearData(100, 50), 51);
    const std::vector<double> x = {1.0, 2.0};
    const double before = forest.compiled().predictRow(x.data());
    Dataset moreFeatures(3);
    moreFeatures.add({1.0, 2.0, 3.0}, 4.0);
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { forest.warmStart(moreFeatures, 2, 52); }),
              "fatal: RandomForest::warmStart: feature count changed");
    // It is refused before any tree grows: the forest keeps its trees
    // and its predictions.
    EXPECT_EQ(forest.treeCount(), 4u);
    EXPECT_EQ(forest.compiled().treeCount(), 4u);
    EXPECT_EQ(forest.compiled().predictRow(x.data()), before);
    EXPECT_EQ(oracle::forestPredict(forest, x), before);
}

TEST(RandomForest, FailedFitKeepsTheTrainedForest)
{
    // fit() grows its forest beside the trained one and adopts it
    // only when complete: a dataset the trainer refuses leaves the
    // trees, the compiled forest and the OOB estimate bit for bit.
    ForestConfig cfg;
    cfg.nEstimators = 4;
    RandomForestRegressor forest(cfg);
    const Dataset data = linearData(100, 60);
    forest.fit(data, 61);
    const std::vector<double> before = predictRows(forest, data);
    const double oobBefore = forest.oobR2();

    const Dataset empty(2);
    EXPECT_EQ(whatOf<FatalError>([&] { forest.fit(empty, 62); }),
              "fatal: RandomForest::fit: empty dataset");
    EXPECT_TRUE(forest.trained());
    EXPECT_EQ(forest.treeCount(), 4u);
    EXPECT_EQ(forest.compiled().treeCount(), 4u);
    const std::vector<double> after = predictRows(forest, data);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(bitsOf(after[i]), bitsOf(before[i])) << "row " << i;
    EXPECT_EQ(bitsOf(forest.oobR2()), bitsOf(oobBefore));
}

TEST(RandomForest, WarmStartOnUntrainedForestTrainsFromScratch)
{
    ForestConfig cfg;
    cfg.nEstimators = 10;
    RandomForestRegressor forest(cfg);
    EXPECT_FALSE(forest.trained());

    forest.warmStart(linearData(300, 55), 6, 56);
    EXPECT_TRUE(forest.trained());
    // The extra trees are the whole ensemble; nEstimators is only
    // the fit() batch size.
    EXPECT_EQ(forest.treeCount(), 6u);
    EXPECT_NEAR(oracle::forestPredict(forest, {5.0, 1.0}), 15.0, 1.5);
    // Shape is locked in by the warm start.
    Dataset other(3);
    other.add({1.0, 2.0, 3.0}, 4.0);
    EXPECT_THROW(forest.warmStart(other, 2, 57), FatalError);
}

TEST(RandomForest, WarmStartRejectsZeroExtraTrees)
{
    RandomForestRegressor forest;
    const auto data = linearData(100, 58);
    // Zero extra trees is invalid whether or not the forest has been
    // fit — a no-op "retrain" would silently report stale accuracy.
    EXPECT_EQ(whatOf<FatalError>([&] { forest.warmStart(data, 0, 59); }),
              "fatal: RandomForest::warmStart: extraTrees == 0");
    forest.fit(data, 60);
    EXPECT_EQ(whatOf<FatalError>([&] { forest.warmStart(data, 0, 61); }),
              "fatal: RandomForest::warmStart: extraTrees == 0");
}

TEST(RandomForest, OobR2ImprovesAsAppendedDataGrows)
{
    // The warm-start story of Section 3.3.4: the original batch is
    // noisy, the appended runtime gauges are cleaner and more
    // plentiful, so each warm start's OOB R^2 (computed over the
    // union) must climb monotonically.
    auto noisy = [](std::size_t n, std::uint64_t seed, double sd) {
        Rng rng(seed);
        Dataset data(2);
        for (std::size_t i = 0; i < n; ++i) {
            const double x0 = rng.uniform(0.0, 10.0);
            const double x1 = rng.uniform(0.0, 10.0);
            data.add({x0, x1}, 3.0 * x0 + rng.normal(0.0, sd));
        }
        return data;
    };

    ForestConfig cfg;
    cfg.nEstimators = 15;
    RandomForestRegressor forest(cfg);
    auto data = noisy(40, 62, 8.0);
    forest.fit(data, 63);
    const double before = forest.oobR2();
    ASSERT_FALSE(std::isnan(before));

    data.append(noisy(300, 64, 0.5));
    forest.warmStart(data, 15, 65);
    const double mid = forest.oobR2();
    ASSERT_FALSE(std::isnan(mid));
    EXPECT_GT(mid, before);

    data.append(noisy(600, 66, 0.5));
    forest.warmStart(data, 15, 67);
    const double after = forest.oobR2();
    ASSERT_FALSE(std::isnan(after));
    EXPECT_GT(after, mid);
}

TEST(RandomForest, FeatureImportancesNormalized)
{
    RandomForestRegressor forest;
    forest.fit(linearData(300, 60), 61);
    const auto imp = forest.featureImportances();
    ASSERT_EQ(imp.size(), 2u);
    EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
    EXPECT_GT(imp[0], 0.95);
}

TEST(RandomForest, DeterministicForSameSeed)
{
    const auto data = linearData(200, 70);
    ForestConfig cfg;
    cfg.nEstimators = 8;
    RandomForestRegressor a(cfg), b(cfg);
    a.fit(data, 71);
    b.fit(data, 71);
    for (double x : {1.0, 5.0, 9.0})
        EXPECT_DOUBLE_EQ(oracle::forestPredict(a, {x, 0.0}),
                         oracle::forestPredict(b, {x, 0.0}));
}

// ---- compiled forest -----------------------------------------------------------

namespace {

/** Random feature rows matching linearData's 2-feature shape. */
std::vector<double>
randomRows(std::size_t rows, std::size_t features, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> X(rows * features);
    for (auto &v : X)
        v = rng.uniform(-2.0, 12.0);
    return X;
}

/**
 * @p forest's compiled forest equals a one-shot compile of its trees:
 * same sizes, and bit-identical predictBatch output on 513 rows.
 */
void
expectMatchesOneShotCompile(const RandomForestRegressor &forest)
{
    const CompiledForest &got = forest.compiled();
    const CompiledForest want(CompiledForest(), forest.trees());
    EXPECT_EQ(got.treeCount(), forest.treeCount());
    EXPECT_EQ(got.treeCount(), want.treeCount());
    EXPECT_EQ(got.nodeCount(), want.nodeCount());
    EXPECT_EQ(got.leafCount(), want.leafCount());

    const std::size_t rows = 513;
    const auto X = randomRows(rows, 2, 96 + forest.treeCount());
    std::vector<double> a(rows, -1.0), b(rows, -2.0);
    got.predictBatch(X.data(), rows, a.data());
    want.predictBatch(X.data(), rows, b.data());
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_EQ(a[r], b[r]) << "row " << r;
}

} // namespace

TEST(CompiledForest, BitIdenticalToReferenceOnRandomInputs)
{
    ForestConfig cfg;
    cfg.nEstimators = 40;
    RandomForestRegressor forest(cfg);
    forest.fit(linearData(400, 80), 81);

    const CompiledForest &compiled = forest.compiled();
    EXPECT_EQ(compiled.treeCount(), forest.treeCount());
    EXPECT_EQ(compiled.featureCount(), 2u);

    Rng rng(82);
    for (int i = 0; i < 200; ++i) {
        const std::vector<double> x = {rng.uniform(-5.0, 15.0),
                                       rng.uniform(-5.0, 15.0)};
        // Exact equality: the compiled walk must be bit-identical to
        // the interpreted ensemble, not merely close.
        EXPECT_EQ(compiled.predictRow(x.data()),
                  oracle::forestPredict(forest, x));
    }
}

TEST(CompiledForest, InvalidatedAndRebuiltAfterWarmStartRegrow)
{
    // A warm start extends the compiled forest with its new trees; the
    // result must equal compiling the whole ensemble in one shot.
    ForestConfig cfg;
    cfg.nEstimators = 12;
    RandomForestRegressor forest(cfg);
    auto data = linearData(250, 83);
    forest.fit(data, 84);
    EXPECT_EQ(forest.compiled().treeCount(), 12u);
    expectMatchesOneShotCompile(forest);

    for (std::uint64_t round = 0; round < 2; ++round) {
        data.append(linearData(100, 85 + round));
        forest.warmStart(data, 6, 86 + round);
        // The compiled snapshot must track the regrown ensemble, not
        // the stale one.
        ASSERT_EQ(forest.compiled().treeCount(), 18 + 6 * round);
        expectMatchesOneShotCompile(forest);
    }

    const CompiledForest &compiled = forest.compiled();
    Rng rng(87);
    for (int i = 0; i < 100; ++i) {
        const std::vector<double> x = {rng.uniform(0.0, 10.0),
                                       rng.uniform(0.0, 10.0)};
        EXPECT_EQ(compiled.predictRow(x.data()),
                  oracle::forestPredict(forest, x));
    }
}

TEST(CompiledForest, PredictBatchSequentialParallelBitIdentical)
{
    ForestConfig cfg;
    cfg.nEstimators = 25;
    RandomForestRegressor forest(cfg);
    forest.fit(linearData(400, 91), 92);
    const CompiledForest &compiled = forest.compiled();

    // Enough rows to span many chunks on a multi-core pool.
    const std::size_t rows = 513;
    const auto X = randomRows(rows, 2, 93);
    std::vector<double> seq(rows, -1.0), par(rows, -2.0);
    compiled.predictBatch(X.data(), rows, seq.data(),
                          /*parallel=*/false);
    compiled.predictBatch(X.data(), rows, par.data(),
                          /*parallel=*/true);
    for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(seq[r], par[r]);
        // And each batch row matches the single-row walk.
        EXPECT_EQ(compiled.predictRow(X.data() + 2 * r), seq[r]);
    }
}

TEST(CompiledForest, CopiedForestSharesCompiledSnapshot)
{
    ForestConfig cfg;
    cfg.nEstimators = 8;
    RandomForestRegressor forest(cfg);
    const auto data = linearData(150, 94);
    forest.fit(data, 95);

    const std::size_t rows = 64;
    const auto X = randomRows(rows, 2, 97);
    std::vector<double> before(rows);
    forest.compiled().predictBatch(X.data(), rows, before.data());
    const CompiledForest *snapshot = &forest.compiled();

    // A copy shares the trees and the compiled forest, by pointer.
    RandomForestRegressor copy = forest;
    EXPECT_EQ(&copy.compiled(), snapshot);
    ASSERT_EQ(copy.treeCount(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(copy.trees()[i].get(), forest.trees()[i].get());

    // Warm-starting the copy keeps the shared trees and leaves the
    // original as it was.
    copy.warmStart(data, 4, 98);
    ASSERT_EQ(copy.treeCount(), 12u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(copy.trees()[i].get(), forest.trees()[i].get());
    EXPECT_NE(&copy.compiled(), snapshot);
    EXPECT_EQ(forest.treeCount(), 8u);
    EXPECT_EQ(&forest.compiled(), snapshot);
    EXPECT_EQ(forest.compiled().treeCount(), 8u);
    std::vector<double> after(rows);
    forest.compiled().predictBatch(X.data(), rows, after.data());
    EXPECT_EQ(after, before);
    expectMatchesOneShotCompile(copy);
}

TEST(CompiledForest, EmptyForestPredictPanics)
{
    const CompiledForest compiled;
    EXPECT_TRUE(compiled.empty());
    double x = 1.0, y = 0.0;
    EXPECT_EQ(whatOf<PanicError>([&] { compiled.predictRow(&x); }),
              "panic: CompiledForest::predictRow on empty forest");
    EXPECT_EQ(
        whatOf<PanicError>([&] { compiled.predictBatch(&x, 1, &y); }),
        "panic: CompiledForest::predictBatch on empty forest");
}

// ---- metrics -------------------------------------------------------------------

TEST(Metrics, PerfectPrediction)
{
    const std::vector<double> y = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(mae(y, y), 0.0);
    EXPECT_DOUBLE_EQ(rmse(y, y), 0.0);
    EXPECT_DOUBLE_EQ(r2(y, y), 1.0);
    EXPECT_DOUBLE_EQ(withinAbsolute(y, y, 0.0), 1.0);
    EXPECT_EQ(significantDifferences(y, y), 0u);
    EXPECT_DOUBLE_EQ(relativeAccuracyPct(y, y), 100.0);
}

TEST(Metrics, KnownValues)
{
    const std::vector<double> truth = {100.0, 200.0, 300.0};
    const std::vector<double> pred = {150.0, 200.0, 450.0};
    EXPECT_NEAR(mae(truth, pred), (50.0 + 0.0 + 150.0) / 3.0, 1e-12);
    EXPECT_EQ(significantDifferences(truth, pred, 100.0), 1u);
    EXPECT_NEAR(withinAbsolute(truth, pred, 50.0), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, SizeMismatchFails)
{
    EXPECT_THROW(mae({1.0}, {1.0, 2.0}), FatalError);
    EXPECT_THROW(r2({}, {}), FatalError);
}
