/**
 * @file
 * Tests for the online warm-start retraining loop (Section 3.3.4):
 * bit-identical warm starts across execution modes, atomic predictor
 * swaps on the shared facade under concurrent trials, and the
 * end-to-end outage -> gauge -> retrain -> error-drops path through
 * the GDA engine.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hh"
#include "core/wanify.hh"
#include "experiments/predictor_factory.hh"
#include "experiments/runner.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "ml/random_forest.hh"
#include "sched/locality.hh"
#include "scenario/scenario.hh"
#include "storage/hdfs.hh"
#include "workloads/terasort.hh"
#include "oracles/forest_predict.hh"

using namespace wanify;

namespace {

/** y = 3x0 + noise on x1 (irrelevant feature). */
ml::Dataset
linearData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset data(2);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform(0.0, 10.0);
        const double x1 = rng.uniform(0.0, 10.0);
        data.add({x0, x1}, 3.0 * x0 + rng.normal(0.0, 0.05));
    }
    return data;
}

/** A fast Bandwidth Analyzer campaign (feature-shaped datasets). */
core::AnalyzerConfig
smallAnalyzerConfig()
{
    core::AnalyzerConfig cfg;
    cfg.clusterSizes = {4};
    cfg.meshesPerSize = 6;
    cfg.sim = experiments::defaultSimConfig();
    return cfg;
}

core::WanifyConfig
smallWanifyConfig()
{
    core::WanifyConfig cfg;
    cfg.forest.nEstimators = 20;
    cfg.forest.tree.maxDepth = 10;
    cfg.forest.bootstrapFraction = 0.8;
    cfg.retrainExtraTrees = 5;
    return cfg;
}

/** All-pairs capacity drop long enough to overlap any shuffle. */
scenario::ScenarioSpec
longOutageSpec(double residual)
{
    scenario::ScenarioSpec spec;
    spec.name = "test-long-outage";
    scenario::ScenarioEvent ev;
    ev.kind = scenario::EventKind::Outage;
    ev.start = 10.0;
    ev.duration = 3000.0;
    ev.residual = residual;
    spec.events.push_back(ev);
    return spec;
}

/** Scenario-sized drift window for a 4-DC cluster (12-pair mesh). */
core::WanifyConfig
engineWanifyConfig()
{
    core::WanifyConfig cfg;
    cfg.drift.windowSize = 24;
    cfg.drift.minObservations = 12;
    cfg.drift.retrainFraction = 0.2;
    return cfg;
}

gda::QueryResult
runUnderDynamics(const scenario::Dynamics *dynamics,
                 const core::Wanify &wanify, std::uint64_t seed,
                 bool publish)
{
    const auto topo = experiments::workerCluster(4, 2);
    const auto job = workloads::teraSort(8.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    sched::LocalityScheduler locality;

    gda::Engine engine(topo, experiments::defaultSimConfig(), seed);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
    opts.wanify = &wanify;
    opts.dynamics = dynamics;
    opts.adaptOnDrift = true;
    opts.publishRetrainedModel = publish;
    return engine.run(job, hdfs.distribution(), locality, opts);
}

} // namespace

// ---- warm-start determinism -------------------------------------------------

TEST(WarmStart, SequentialAndParallelBitIdentical)
{
    const auto base = linearData(300, 10);
    auto grown = base;
    grown.append(linearData(150, 11));

    ml::ForestConfig seq, pool, capped;
    seq.nEstimators = 12;
    seq.nThreads = 1;
    pool.nEstimators = 12;
    pool.nThreads = 0;
    capped.nEstimators = 12;
    capped.nThreads = 3;

    ml::RandomForestRegressor a(seq), b(pool), c(capped);
    a.fit(base, 42);
    b.fit(base, 42);
    c.fit(base, 42);
    a.warmStart(grown, 7, 43);
    b.warmStart(grown, 7, 43);
    c.warmStart(grown, 7, 43);

    EXPECT_EQ(a.treeCount(), 19u);
    EXPECT_EQ(b.treeCount(), 19u);
    EXPECT_EQ(c.treeCount(), 19u);
    for (double x = 0.0; x <= 10.0; x += 0.5) {
        const double ya = oracle::forestPredict(a, {x, 3.0});
        EXPECT_DOUBLE_EQ(ya, oracle::forestPredict(b, {x, 3.0}));
        EXPECT_DOUBLE_EQ(ya, oracle::forestPredict(c, {x, 3.0}));
    }
    EXPECT_DOUBLE_EQ(a.oobR2(), b.oobR2());
    EXPECT_DOUBLE_EQ(a.oobR2(), c.oobR2());
}

// ---- facade retraining and the atomic swap ----------------------------------

TEST(WanifyRetrain, PublishSwapsTheModelAndOldSnapshotsSurvive)
{
    core::Wanify wanify(smallWanifyConfig());
    wanify.train(smallAnalyzerConfig(), 501);
    ASSERT_TRUE(wanify.trained());

    const auto before = wanify.predictorSnapshot();
    ASSERT_NE(before, nullptr);
    const std::size_t baseTrees = before->forest().treeCount();

    core::BandwidthAnalyzer analyzer(smallAnalyzerConfig());
    const ml::Dataset extra = analyzer.collect(777);

    const auto after = wanify.retrain(extra, 901);
    EXPECT_NE(before.get(), after.get());
    EXPECT_EQ(after->forest().treeCount(), baseTrees + 5);
    // Published: future snapshots see the retrained model...
    EXPECT_EQ(wanify.predictorSnapshot().get(), after.get());
    // ...while the pinned old snapshot is untouched.
    EXPECT_EQ(before->forest().treeCount(), baseTrees);
}

TEST(WanifyRetrain, WithoutPublishTheFacadeKeepsItsModel)
{
    core::Wanify wanify(smallWanifyConfig());
    wanify.train(smallAnalyzerConfig(), 502);
    const auto before = wanify.predictorSnapshot();

    core::BandwidthAnalyzer analyzer(smallAnalyzerConfig());
    const auto next = wanify.retrain(analyzer.collect(778), 902,
                                     nullptr, /*publish=*/false);
    EXPECT_NE(next.get(), before.get());
    EXPECT_EQ(wanify.predictorSnapshot().get(), before.get());
}

TEST(WanifyRetrain, UntrainedFacadeWarmStartsFromScratch)
{
    core::Wanify wanify(smallWanifyConfig());
    EXPECT_FALSE(wanify.trained());

    core::BandwidthAnalyzer analyzer(smallAnalyzerConfig());
    const auto p = wanify.retrain(analyzer.collect(779), 903);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(p->trained());
    // The extra trees are the whole ensemble.
    EXPECT_EQ(p->forest().treeCount(), 5u);
    EXPECT_TRUE(wanify.trained());
}

TEST(WanifyRetrain, DeterministicInBaseDataAndSeed)
{
    core::Wanify wanify(smallWanifyConfig());
    wanify.train(smallAnalyzerConfig(), 503);
    const auto base = wanify.predictorSnapshot();

    core::BandwidthAnalyzer analyzer(smallAnalyzerConfig());
    const ml::Dataset extra = analyzer.collect(780);
    const auto p1 = wanify.retrain(extra, 904, base, false);
    const auto p2 = wanify.retrain(extra, 904, base, false);

    const auto topo = experiments::workerCluster(4, 1);
    net::NetworkSim sim(topo, experiments::defaultSimConfig(), 5);
    sim.advanceBy(5.0);
    monitor::MeshMeasurer measurer(sim);
    Rng rng(6);
    const auto snapshot =
        measurer.snapshot(monitor::MeasurementConfig{}, rng);
    const auto m1 = p1->predictMatrix(topo, snapshot);
    const auto m2 = p2->predictMatrix(topo, snapshot);
    for (net::DcId i = 0; i < 4; ++i)
        for (net::DcId j = 0; j < 4; ++j)
            EXPECT_DOUBLE_EQ(m1.at(i, j), m2.at(i, j));
}

// ---- engine: the learning loop end to end -----------------------------------

TEST(EngineRetrain, OutageGaugeRetrainDropsPredictionError)
{
    const auto spec = longOutageSpec(0.3);
    const scenario::ScenarioTimeline timeline(spec, 4, 99);

    core::Wanify wanify(engineWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());

    const auto result =
        runUnderDynamics(&timeline, wanify, 2024, false);
    ASSERT_GE(result.retrainsApplied, 1u);
    EXPECT_GE(result.retrainTriggers, result.retrainsApplied);
    EXPECT_GT(result.preRetrainError, 0.0);
    EXPECT_GT(result.postRetrainError, 0.0);
    // The warm-started model must beat the stale one on a fresh,
    // out-of-sample gauge of the drifted regime.
    EXPECT_LT(result.postRetrainError, result.preRetrainError);
}

TEST(EngineRetrain, SequentialAndParallelTrialsBitIdentical)
{
    const auto spec = longOutageSpec(0.3);
    const scenario::ScenarioTimeline timeline(spec, 4, 3);

    core::Wanify wanify(engineWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());

    auto fn = [&](std::uint64_t seed) {
        return runUnderDynamics(&timeline, wanify, seed, false);
    };
    const auto seq = experiments::runTrials(
        fn, 3, 42, experiments::Execution::Sequential);
    const auto par = experiments::runTrials(
        fn, 3, 42, experiments::Execution::Parallel);

    EXPECT_GT(seq.totalRetrainsApplied, 0u);
    EXPECT_EQ(seq.totalRetrainsApplied, par.totalRetrainsApplied);
    EXPECT_EQ(seq.trialsRetrained, par.trialsRetrained);
    EXPECT_DOUBLE_EQ(seq.meanLatency, par.meanLatency);
    EXPECT_DOUBLE_EQ(seq.meanPreRetrainError,
                     par.meanPreRetrainError);
    EXPECT_DOUBLE_EQ(seq.meanPostRetrainError,
                     par.meanPostRetrainError);
}

TEST(EngineRetrain, ConcurrentPublishingTrialsAreSafe)
{
    const auto spec = longOutageSpec(0.3);
    const scenario::ScenarioTimeline timeline(spec, 4, 5);

    // Private facade: publishing mutates it, so don't share the
    // process-wide predictor cache's *facade* (the predictor itself
    // is immutable and safe to seed from).
    core::Wanify wanify(engineWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());
    const std::size_t baseTrees =
        wanify.predictorSnapshot()->forest().treeCount();

    const auto agg = experiments::runTrials(
        [&](std::uint64_t seed) {
            return runUnderDynamics(&timeline, wanify, seed, true);
        },
        4, 77, experiments::Execution::Parallel);

    // Every trial retrains under the long outage, each publish
    // atomically swaps the facade model, and the final published
    // model carries at least one warm start's worth of extra trees.
    EXPECT_GT(agg.totalRetrainsApplied, 0u);
    EXPECT_GT(wanify.predictorSnapshot()->forest().treeCount(),
              baseTrees);
    EXPECT_GT(agg.meanLatency, 0.0);
}

TEST(EngineRetrain, CampaignAccumulatesGaugesAcrossSequentialRuns)
{
    const auto spec = longOutageSpec(0.3);
    const scenario::ScenarioTimeline timeline(spec, 4, 8);

    core::Wanify wanify(engineWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());

    core::AnalyzerConfig campaignCfg;
    campaignCfg.clusterSizes = {4};
    core::BandwidthAnalyzer campaign(campaignCfg);

    const auto topo = experiments::workerCluster(4, 2);
    const auto job = workloads::teraSort(8.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    sched::LocalityScheduler locality;

    std::size_t totalRetrains = 0;
    std::size_t afterFirstRun = 0;
    for (std::uint64_t seed : {601ULL, 602ULL}) {
        gda::Engine engine(topo, experiments::defaultSimConfig(),
                           seed);
        gda::RunOptions opts;
        opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
        opts.wanify = &wanify;
        opts.dynamics = &timeline;
        opts.adaptOnDrift = true;
        opts.publishRetrainedModel = true;
        opts.campaign = &campaign;
        const auto res =
            engine.run(job, hdfs.distribution(), locality, opts);
        totalRetrains += res.retrainsApplied;
        if (afterFirstRun == 0)
            afterFirstRun = campaign.incremental().size();
    }
    ASSERT_GE(totalRetrains, 2u);
    // One 4-DC mesh = 12 rows per retrain, pooled across both runs.
    EXPECT_EQ(campaign.incremental().size(), totalRetrains * 12);
    EXPECT_GT(campaign.incremental().size(), afterFirstRun);
}

TEST(EngineRetrain, NoDynamicsMeansNoRetrains)
{
    core::Wanify wanify(engineWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());
    const auto result =
        runUnderDynamics(nullptr, wanify, 2024, false);
    EXPECT_EQ(result.retrainsApplied, 0u);
    EXPECT_DOUBLE_EQ(result.preRetrainError, 0.0);
    EXPECT_DOUBLE_EQ(result.postRetrainError, 0.0);
}
