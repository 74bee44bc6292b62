/**
 * @file
 * Integration and property tests across the whole stack: the trained
 * predictor against the live simulator, the end-to-end WANify claims
 * (prediction beats static; WANify lifts the minimum BW and lowers
 * latency), and parameterized sweeps over cluster sizes.
 */

#include <gtest/gtest.h>

#include "core/bandwidth_analyzer.hh"
#include "core/bw.hh"
#include "core/wanify.hh"
#include "experiments/predictor_factory.hh"
#include "experiments/runner.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "ml/metrics.hh"
#include "monitor/measurement.hh"
#include "sched/locality.hh"
#include "storage/hdfs.hh"
#include "workloads/terasort.hh"

using namespace wanify;
using namespace wanify::experiments;

namespace {

/** Shared trained predictor (expensive; trained once per process). */
std::shared_ptr<const core::RuntimeBwPredictor>
predictor()
{
    return sharedPredictor();
}

} // namespace

TEST(AnalyzerIntegration, CollectsPerPairSamples)
{
    core::AnalyzerConfig cfg;
    cfg.clusterSizes = {3};
    cfg.meshesPerSize = 2;
    core::BandwidthAnalyzer analyzer(cfg);
    const auto data = analyzer.collect(4242);
    // 2 meshes x 3*2 ordered pairs.
    EXPECT_EQ(data.size(), 12u);
    EXPECT_EQ(data.featureCount(), monitor::kFeatureCount);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_GT(data.y(i), 0.0);
}

TEST(PredictorIntegration, TrainingAccuracyIsHigh)
{
    // The paper reports 98.51% training accuracy with 100 estimators.
    core::AnalyzerConfig cfg;
    cfg.clusterSizes = {4, 8};
    cfg.meshesPerSize = 10;
    core::BandwidthAnalyzer analyzer(cfg);
    const auto data = analyzer.collect(777);

    core::RuntimeBwPredictor pred(sharedForestConfig());
    pred.train(data, 778);

    std::vector<double> truth, fitted;
    for (std::size_t i = 0; i < data.size(); ++i) {
        truth.push_back(data.y(i));
        fitted.push_back(pred.predictPair(data.x(i)));
    }
    EXPECT_GT(ml::relativeAccuracyPct(truth, fitted), 90.0);
    EXPECT_GT(ml::r2(truth, fitted), 0.95);
}

TEST(PredictorIntegration, BeatsStaticOnUnseenNetworkStates)
{
    // The Fig. 11 claim as an invariant: across fresh network states,
    // the predicted matrix has no more significant differences from
    // the runtime truth than the static-independent matrix.
    const auto pred = predictor();
    const auto topo = monitoringCluster(8);
    const auto simCfg = defaultSimConfig();
    const monitor::MeasurementConfig mc;

    std::size_t staticWorse = 0;
    for (int trial = 0; trial < 3; ++trial) {
        const std::uint64_t seed = 99000 + 7 * trial;
        const auto indep =
            monitor::staticIndependentBw(topo, simCfg, mc, seed);

        net::NetworkSim sim(topo, simCfg, seed ^ 0xf00d);
        sim.advanceBy(25.0);
        monitor::MeshMeasurer measurer(sim);
        Rng rng(seed);
        const auto snapshot = measurer.snapshot(mc, rng);
        const auto predicted = pred->predictMatrix(topo, snapshot);
        const auto runtime =
            measurer.measureSimultaneous(mc.stableDuration, 1);

        const auto staticGaps =
            core::countSignificantGaps(indep, runtime);
        const auto predGaps =
            core::countSignificantGaps(predicted, runtime);
        EXPECT_LE(predGaps, staticGaps);
        staticWorse += staticGaps > predGaps ? 1 : 0;
    }
    // And strictly better in at least one state.
    EXPECT_GE(staticWorse, 1u);
}

TEST(EndToEnd, WanifyLiftsMinBwAndLatencyOnTeraSort)
{
    // The Fig. 5 claim as an invariant: full WANify beats the
    // single-connection baseline on latency and at least doubles the
    // minimum BW.
    const auto topo = workerCluster(8);
    const auto simCfg = defaultSimConfig();
    const auto job = workloads::teraSort(40.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    const auto input = hdfs.distribution();
    sched::LocalityScheduler locality;
    const auto staticBw = monitor::staticIndependentBw(
        topo, simCfg, monitor::MeasurementConfig{}, 31);

    core::WanifyConfig wcfg;
    core::Wanify wanify(wcfg);
    wanify.setPredictor(predictor());

    auto sweep = [&](core::Wanify *w, int conns) {
        return runTrials(
            [&](std::uint64_t seed) {
                gda::Engine engine(topo, simCfg, seed);
                gda::RunOptions opts;
                opts.schedulerBw = staticBw;
                opts.wanify = w;
                if (conns > 0) {
                    opts.staticConnections =
                        Matrix<int>::square(8, conns);
                }
                return engine.run(job, input, locality, opts);
            },
            3);
    };

    const auto vanilla = sweep(nullptr, 1);
    const auto enabled = sweep(&wanify, 0);
    EXPECT_LT(enabled.meanLatency, vanilla.meanLatency);
    EXPECT_GT(enabled.meanMinBw, 2.0 * vanilla.meanMinBw);
}

TEST(EndToEnd, ErrorInjectionDegradesWanify)
{
    // Fig. 8(b)'s direction as an invariant: +-100 Mbps prediction
    // errors reduce the minimum BW WANify achieves.
    const auto topo = workerCluster(8);
    const auto simCfg = defaultSimConfig();
    const auto job = workloads::teraSort(40.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    const auto input = hdfs.distribution();
    sched::LocalityScheduler locality;

    core::WanifyConfig wcfg;
    core::Wanify wanify(wcfg);
    wanify.setPredictor(predictor());

    // A reference predicted matrix from a fresh network state.
    net::NetworkSim sim(topo, simCfg, 5511);
    sim.advanceBy(10.0);
    monitor::MeshMeasurer measurer(sim);
    Rng rng(5512);
    const auto predicted = wanify.predictorSnapshot()->predictMatrix(
        topo, measurer.snapshot(monitor::MeasurementConfig{}, rng));

    Matrix<Mbps> erred = predicted;
    Rng flip(5513);
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            if (i != j)
                erred.at(i, j) = std::max(
                    10.0, erred.at(i, j) +
                              (flip.bernoulli(0.5) ? 100.0
                                                   : -100.0));

    auto sweep = [&](const Matrix<Mbps> &bwForPlan) {
        return runTrials(
            [&](std::uint64_t seed) {
                gda::Engine engine(topo, simCfg, seed);
                gda::RunOptions opts;
                opts.schedulerBw = predicted;
                opts.wanify = &wanify;
                opts.predictedBwOverride = bwForPlan;
                return engine.run(job, input, locality, opts);
            },
            3);
    };
    const auto clean = sweep(predicted);
    const auto injected = sweep(erred);
    EXPECT_LT(injected.meanMinBw, clean.meanMinBw);
}

// ---- parameterized sweep over cluster sizes -----------------------------------

class ClusterSizeSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ClusterSizeSweep, EngineAndPredictorHandleAnySize)
{
    const std::size_t n = GetParam();
    const auto topo = workerCluster(n);
    const auto job = workloads::teraSort(4.0 * n);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    sched::LocalityScheduler locality;

    gda::Engine engine(topo, defaultSimConfig(), 1234 + n);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(n, 300.0);
    const auto result =
        engine.run(job, hdfs.distribution(), locality, opts);
    EXPECT_GT(result.latency, 0.0);
    EXPECT_EQ(result.stages.size(), 2u);

    // One shared model predicts for every size (Section 3.3.2).
    net::NetworkSim sim(monitoringCluster(n), defaultSimConfig(),
                        77 + n);
    sim.advanceBy(5.0);
    monitor::MeshMeasurer measurer(sim);
    Rng rng(n);
    const auto snapshot =
        measurer.snapshot(monitor::MeasurementConfig{}, rng);
    const auto predicted = predictor()->predictMatrix(
        monitoringCluster(n), snapshot);
    EXPECT_EQ(predicted.rows(), n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_GE(predicted.at(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterSizeSweep,
                         ::testing::Values(2, 3, 5, 8));
