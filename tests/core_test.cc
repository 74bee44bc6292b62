/**
 * @file
 * Tests for the WANify core: Algorithm 1 (against the paper's worked
 * example), the Eq. 2/3 global optimizer (against the paper's worked
 * example), AIMD local optimization, throttling, drift detection,
 * heterogeneity handling, and the facade.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hh"
#include "core/bw.hh"
#include "core/dc_relations.hh"
#include "core/drift.hh"
#include "core/global_optimizer.hh"
#include "core/heterogeneity.hh"
#include "core/local_optimizer.hh"
#include "core/predictor.hh"
#include "core/wanify.hh"
#include "expect_what.hh"
#include "monitor/features.hh"
#include "net/network_sim.hh"
#include "net/vm.hh"
#include "oracles/forest_predict.hh"

using namespace wanify;
using namespace wanify::core;
using test::whatOf;

namespace {

/** The paper's Algorithm 1 worked example. */
BwMatrix
paperExample()
{
    return BwMatrix{{1000.0, 400.0, 120.0},
                    {380.0, 1000.0, 130.0},
                    {110.0, 120.0, 1000.0}};
}

} // namespace

// ---- Algorithm 1 --------------------------------------------------------------

TEST(DcRelations, PaperWorkedExample)
{
    // bwu filtered by D=30 -> {110, 380, 1000}; closeness: 1000 -> 1,
    // {400, 380} -> 2, {130, 120, 110} -> 3.
    const auto rel = inferDcRelations(paperExample(), 30.0);
    const Matrix<int> expected{{1, 2, 3}, {2, 1, 3}, {3, 3, 1}};
    EXPECT_EQ(rel, expected);
}

TEST(DcRelations, AllEqualBwsCollapseToOneLevel)
{
    const BwMatrix bw = BwMatrix::square(3, 500.0);
    const auto rel = inferDcRelations(bw, 30.0);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(rel.at(i, j), 1);
}

TEST(DcRelations, ZeroMinDifferenceKeepsEveryLevel)
{
    const auto rel = inferDcRelations(paperExample(), 0.0);
    // 6 unique values -> closeness indices span 1..6.
    int maxRel = 0;
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            maxRel = std::max(maxRel, rel.at(i, j));
    EXPECT_EQ(maxRel, 6);
}

TEST(DcRelations, MonotoneInBandwidth)
{
    // Larger BW never gets a larger (farther) closeness index.
    const auto bw = paperExample();
    const auto rel = inferDcRelations(bw, 30.0);
    for (std::size_t a = 0; a < 9; ++a) {
        for (std::size_t b = 0; b < 9; ++b) {
            const auto ai = a / 3, aj = a % 3;
            const auto bi = b / 3, bj = b % 3;
            if (bw.at(ai, aj) > bw.at(bi, bj)) {
                EXPECT_LE(rel.at(ai, aj), rel.at(bi, bj));
            }
        }
    }
}

TEST(DcRelations, RejectsBadInputs)
{
    EXPECT_THROW(inferDcRelations(BwMatrix(2, 3, 1.0), 30.0),
                 FatalError);
    EXPECT_THROW(inferDcRelations(BwMatrix::square(1, 1.0), 30.0),
                 FatalError);
    EXPECT_THROW(inferDcRelations(paperExample(), -1.0), FatalError);
}

// ---- global optimizer -----------------------------------------------------------

TEST(GlobalOptimizer, PaperWorkedExampleEq3)
{
    // M = 8, DCrel from the example: minCons all ones; maxCons
    // off-diagonal {6 for rel 2, 8 for rel 3} (the paper's example
    // applies the formula to diagonals too — the equation text says 1
    // for i = j, which we follow; see DESIGN.md).
    GlobalOptimizerConfig cfg;
    cfg.maxConnections = 8;
    cfg.minDifference = 30.0;
    const GlobalOptimizer optimizer(cfg);
    const auto plan = optimizer.optimize(paperExample());

    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(plan.minCons.at(i, j), 1);

    EXPECT_EQ(plan.maxCons.at(0, 1), 6);
    EXPECT_EQ(plan.maxCons.at(1, 0), 6);
    EXPECT_EQ(plan.maxCons.at(0, 2), 8);
    EXPECT_EQ(plan.maxCons.at(1, 2), 8);
    EXPECT_EQ(plan.maxCons.at(2, 0), 8);
    EXPECT_EQ(plan.maxCons.at(2, 1), 8);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(plan.maxCons.at(i, i), 1);
}

TEST(GlobalOptimizer, AchievableBwIsLinearInConnections)
{
    const GlobalOptimizer optimizer;
    const auto plan = optimizer.optimize(paperExample());
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_NEAR(plan.maxBw.at(i, j),
                        paperExample().at(i, j) *
                            plan.maxCons.at(i, j),
                        1e-9);
        }
    }
}

TEST(GlobalOptimizer, InvariantsOverRandomMatrices)
{
    Rng rng(99);
    const GlobalOptimizer optimizer;
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 2 + rng.uniformInt(0, 6);
        BwMatrix bw = BwMatrix::square(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                bw.at(i, j) =
                    i == j ? 5000.0 : rng.uniform(20.0, 2000.0);
        const auto plan = optimizer.optimize(bw);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                EXPECT_GE(plan.minCons.at(i, j), 1);
                EXPECT_LE(plan.minCons.at(i, j),
                          plan.maxCons.at(i, j));
                EXPECT_LE(plan.minBw.at(i, j),
                          plan.maxBw.at(i, j) + 1e-9);
            }
            EXPECT_EQ(plan.maxCons.at(i, i), 1);
        }
    }
}

TEST(GlobalOptimizer, DistantPairsGetMoreConnections)
{
    const GlobalOptimizer optimizer;
    const auto plan = optimizer.optimize(paperExample());
    // Weak pairs (rel 3) must not get fewer connections than strong
    // off-diagonal pairs (rel 2).
    EXPECT_GT(plan.maxCons.at(0, 2), plan.maxCons.at(0, 1) - 1);
    EXPECT_GE(plan.maxCons.at(2, 0), plan.maxCons.at(1, 0));
}

TEST(GlobalOptimizer, SkewWeightsReallocateNotInflate)
{
    const GlobalOptimizer optimizer;
    const auto base = optimizer.optimize(paperExample());
    const std::vector<double> ws = {2.0, 0.5, 0.5};
    const auto skewed = optimizer.optimize(paperExample(), ws);

    for (std::size_t i = 0; i < 3; ++i) {
        int baseRow = 0, skewRow = 0;
        for (std::size_t j = 0; j < 3; ++j) {
            if (i == j)
                continue;
            baseRow += base.maxCons.at(i, j);
            skewRow += skewed.maxCons.at(i, j);
        }
        // Row budget approximately preserved (rounding slack of 2).
        EXPECT_NEAR(skewRow, baseRow, 2.0);
    }
    // Links touching the skewed DC 0 gained priority.
    EXPECT_GE(skewed.maxCons.at(1, 0), base.maxCons.at(1, 0));
    EXPECT_GE(skewed.maxCons.at(2, 0), base.maxCons.at(2, 0));
}

TEST(GlobalOptimizer, RvecScalesBw)
{
    const GlobalOptimizer optimizer;
    Matrix<double> rvec = Matrix<double>::square(3, 0.5);
    const auto plan = optimizer.optimize(paperExample(), {}, rvec);
    const auto base = optimizer.optimize(paperExample());
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_NEAR(plan.maxBw.at(i, j),
                        0.5 * base.maxBw.at(i, j), 1e-9);
}

// ---- gap accounting ---------------------------------------------------------------

TEST(BwGaps, CountAndHistogram)
{
    BwMatrix a = BwMatrix::square(3, 500.0);
    BwMatrix b = a;
    b.at(0, 1) = 650.0;  // gap 150 -> low bin
    b.at(1, 2) = 730.0;  // gap 230 -> mid bin
    b.at(2, 0) = 900.0;  // gap 400 -> high bin
    b.at(2, 2) = 9999.0; // diagonal ignored
    EXPECT_EQ(countSignificantGaps(a, b), 3u);
    const auto hist = gapHistogram(a, b);
    EXPECT_EQ(hist.low, 1u);
    EXPECT_EQ(hist.mid, 1u);
    EXPECT_EQ(hist.high, 1u);
    EXPECT_EQ(hist.total(), 3u);
}

// ---- AIMD local optimizer -----------------------------------------------------------

namespace {

GlobalPlan
planFor(const BwMatrix &bw)
{
    GlobalOptimizerConfig cfg;
    cfg.minDifference = 30.0;
    return GlobalOptimizer(cfg).optimize(bw);
}

std::vector<Mbps>
row(const BwMatrix &bw, std::size_t i)
{
    std::vector<Mbps> r(bw.cols());
    for (std::size_t j = 0; j < bw.cols(); ++j)
        r[j] = bw.at(i, j);
    return r;
}

} // namespace

TEST(LocalOptimizer, StartsAtMaximumConfiguration)
{
    const auto bw = paperExample();
    const auto plan = planFor(bw);
    LocalOptimizer opt(0, plan, row(bw, 0));
    for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(opt.targetConnections(j), plan.maxCons.at(0, j));
        EXPECT_DOUBLE_EQ(opt.targetBw(j), plan.maxBw.at(0, j));
    }
}

TEST(LocalOptimizer, MultiplicativeDecreaseOnCongestion)
{
    const auto bw = paperExample();
    const auto plan = planFor(bw);
    LocalOptimizer opt(0, plan, row(bw, 0));

    const int consBefore = opt.targetConnections(2);
    const Mbps bwBefore = opt.targetBw(2);
    // Monitored far below target on destination 2 -> decrease.
    std::vector<Mbps> monitored = {0.0, 5000.0, 10.0};
    std::vector<Bytes> pending(3, 1.0e9);
    opt.epochUpdate(monitored, pending);

    EXPECT_LE(opt.targetConnections(2), std::max(1, consBefore / 2));
    EXPECT_LE(opt.targetBw(2), bwBefore / 2.0 + 1e-9);
}

TEST(LocalOptimizer, DecreaseFloorsAtMinimum)
{
    const auto bw = paperExample();
    const auto plan = planFor(bw);
    LocalOptimizer opt(0, plan, row(bw, 0));
    std::vector<Mbps> monitored = {0.0, 0.0, 0.0};
    std::vector<Bytes> pending(3, 1.0e9);
    for (int e = 0; e < 12; ++e)
        opt.epochUpdate(monitored, pending);
    EXPECT_EQ(opt.targetConnections(2), plan.minCons.at(0, 2));
    EXPECT_DOUBLE_EQ(opt.targetBw(2), plan.minBw.at(0, 2));
}

TEST(LocalOptimizer, AdditiveIncreaseTowardMaximum)
{
    const auto bw = paperExample();
    const auto plan = planFor(bw);
    LocalOptimizer opt(0, plan, row(bw, 0));
    std::vector<Bytes> pending(3, 1.0e9);

    // Push destination 2 down...
    std::vector<Mbps> congested = {0.0, 5000.0, 10.0};
    opt.epochUpdate(congested, pending);
    opt.epochUpdate(congested, pending);
    const int low = opt.targetConnections(2);

    // ...then recover: monitored matches the target.
    for (int e = 0; e < 10; ++e) {
        std::vector<Mbps> healthy = {0.0, 5000.0, opt.targetBw(2)};
        opt.epochUpdate(healthy, pending);
    }
    EXPECT_GT(opt.targetConnections(2), low);
    EXPECT_EQ(opt.targetConnections(2), plan.maxCons.at(0, 2));
}

TEST(LocalOptimizer, SkipsTinyTransfers)
{
    const auto bw = paperExample();
    const auto plan = planFor(bw);
    LocalOptimizer opt(0, plan, row(bw, 0));
    const int before = opt.targetConnections(2);
    std::vector<Mbps> congested = {0.0, 0.0, 1.0};
    std::vector<Bytes> pending = {0.0, 0.0, 1000.0}; // < 1 MB
    opt.epochUpdate(congested, pending);
    EXPECT_EQ(opt.targetConnections(2), before);
    EXPECT_DOUBLE_EQ(opt.targetBw(2), plan.maxBw.at(0, 2));
}

// ---- throttling --------------------------------------------------------------------

TEST(LocalAgent, ThrottlesBwRichDestinationsAndReleasesDrained)
{
    // WANify-TC on a quiet 4-DC testbed, planned from the true path
    // capacities, with DC 0 shipping to every peer.
    const auto topo = net::TopologyBuilder::paperTestbed(
        4, net::VmTypeCatalog::t3nano());
    net::NetworkSimConfig cfg;
    cfg.fluctuation.enabled = false;
    net::NetworkSim sim(topo, cfg, 1);
    BwMatrix capacity = BwMatrix::square(4, 0.0);
    for (net::DcId i = 0; i < 4; ++i)
        for (net::DcId j = 0; j < 4; ++j)
            if (i != j)
                capacity.at(i, j) = sim.effectivePathCap(i, j);
    const Wanify wanify;
    auto deployment =
        wanify.deploy(sim, wanify.plan(capacity), capacity);
    ASSERT_EQ(deployment.agents.size(), 4u);

    std::vector<net::TransferId> jobs;
    for (net::DcId j = 1; j < 4; ++j)
        jobs.push_back(sim.startTransfer(topo.dc(0).vms.front(),
                                         topo.dc(j).vms.front(),
                                         units::gigabytes(50.0)));
    for (auto &agent : deployment.agents) {
        agent->applyTargets();
        agent->resetWindow();
    }
    const auto epoch = [&] {
        sim.advanceBy(wanify.config().aimd.epoch);
        for (auto &agent : deployment.agents)
            agent->onEpoch();
    };
    epoch();

    // The row's BW-rich peer (0 -> 1, US West) is tc-capped; the weak
    // peers are not.
    EXPECT_EQ(sim.transferBottleneck(jobs[0]), net::Bottleneck::TcLimit);
    EXPECT_NE(sim.transferBottleneck(jobs[1]), net::Bottleneck::TcLimit);
    EXPECT_NE(sim.transferBottleneck(jobs[2]), net::Bottleneck::TcLimit);

    // Once 0 -> 1 drains, the next epoch releases its cap: a probe on
    // the pair no longer meets the tc limit.
    sim.stopTransfer(jobs[0]);
    epoch();
    const auto probe = sim.startMeasurement(topo.dc(0).vms.front(),
                                            topo.dc(1).vms.front());
    EXPECT_NE(sim.transferBottleneck(probe), net::Bottleneck::TcLimit);
}

// ---- drift detection -----------------------------------------------------------------

TEST(Drift, FlagsAfterPersistentErrors)
{
    DriftConfig cfg;
    cfg.minObservations = 8;
    cfg.windowSize = 16;
    cfg.retrainFraction = 0.5;
    ModelDriftDetector detector(cfg);

    for (int i = 0; i < 8; ++i)
        detector.record(500.0, 510.0); // fine
    EXPECT_FALSE(detector.needsRetraining());

    for (int i = 0; i < 8; ++i)
        detector.record(500.0, 900.0); // significant
    EXPECT_TRUE(detector.needsRetraining());
    EXPECT_NEAR(detector.errorFraction(), 0.5, 1e-9);

    detector.reset();
    EXPECT_FALSE(detector.needsRetraining());
    EXPECT_EQ(detector.observations(), 0u);
}

TEST(Drift, SlidingWindowForgetsOldErrors)
{
    DriftConfig cfg;
    cfg.minObservations = 4;
    cfg.windowSize = 8;
    cfg.retrainFraction = 0.4;
    ModelDriftDetector detector(cfg);
    for (int i = 0; i < 8; ++i)
        detector.record(0.0, 500.0);
    EXPECT_TRUE(detector.needsRetraining());
    for (int i = 0; i < 8; ++i)
        detector.record(500.0, 500.0);
    EXPECT_FALSE(detector.needsRetraining());
}

// ---- heterogeneity ----------------------------------------------------------------------

TEST(Heterogeneity, ProviderRvecScalesWeakerEndpoints)
{
    net::TopologyBuilder builder;
    builder.addDc(net::RegionCatalog::byId("us-east-1"),
                  net::VmTypeCatalog::m5large()); // wan 5000
    builder.addDc(net::RegionCatalog::byId("eu-west-1"),
                  net::VmTypeCatalog::t2medium()); // wan 2000
    const auto topo = builder.build();
    const auto rvec = providerRvec(topo);
    EXPECT_NEAR(rvec.at(0, 1), 2000.0 / 5000.0, 1e-9);
    EXPECT_DOUBLE_EQ(rvec.at(0, 0), 1.0);
}

TEST(Heterogeneity, AssociationSumsVmBandwidth)
{
    net::TopologyBuilder builder;
    builder.addDc(net::RegionCatalog::byId("us-east-1"),
                  net::VmTypeCatalog::t2medium(), 3);
    builder.addDc(net::RegionCatalog::byId("eu-west-1"),
                  net::VmTypeCatalog::t2medium(), 2);
    const auto topo = builder.build();

    BwMatrix perVm = BwMatrix::square(2, 0.0);
    perVm.at(0, 1) = perVm.at(1, 0) = 400.0;
    const auto combined = associateBw(topo, perVm);
    // min(3, 2) VM pairs -> 800, still under the backbone cap.
    EXPECT_NEAR(combined.at(0, 1), 800.0, 1e-9);
}

TEST(Heterogeneity, ChunkConnectionsSplitsPlans)
{
    net::TopologyBuilder builder;
    builder.addDc(net::RegionCatalog::byId("us-east-1"),
                  net::VmTypeCatalog::t2medium(), 2);
    builder.addDc(net::RegionCatalog::byId("eu-west-1"),
                  net::VmTypeCatalog::t2medium(), 1);
    const auto topo = builder.build();

    ConnMatrix plan = ConnMatrix::square(2, 6);
    const auto perWorker = chunkConnections(topo, plan);
    ASSERT_EQ(perWorker.size(), 2u);
    // DC 0 has 2 workers -> ceil(6 / 2) = 3 each; DC 1 has 1 -> 6.
    EXPECT_EQ(perWorker[0].at(0, 1), 3);
    EXPECT_EQ(perWorker[1].at(0, 1), 3);
    EXPECT_EQ(perWorker[0].at(1, 0), 6);
    EXPECT_EQ(perWorker[1].at(1, 0), 0); // DC 1 has no second worker
}

// ---- runtime BW predictor ---------------------------------------------------------------

namespace {

/** Deterministic synthetic Table 3 training set (golden fixture). */
ml::Dataset
goldenTrainingData()
{
    Rng rng(20250731);
    ml::Dataset data(monitor::kFeatureCount);
    for (int s = 0; s < 400; ++s) {
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

/** The golden fixture's predictor and snapshot mesh. */
std::pair<RuntimeBwPredictor, BwMatrix>
goldenFixture()
{
    ml::ForestConfig cfg;
    cfg.nEstimators = 25;
    RuntimeBwPredictor predictor(cfg);
    predictor.train(goldenTrainingData(), 77);

    BwMatrix snapshot = BwMatrix::square(4, 0.0);
    Rng snapRng(99);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            snapshot.at(i, j) =
                i == j ? 5800.0 : snapRng.uniform(50.0, 1500.0);
    return {std::move(predictor), std::move(snapshot)};
}

} // namespace

TEST(RuntimeBwPredictor, PredictMatrixMatchesPrePrGoldenMatrix)
{
    // Golden values captured from the interpreted per-pair reference
    // path (see CHANGES.md): the batched compiled path must reproduce
    // them bit for bit. Re-locked when the trainer's tie order was
    // canonicalized to (feature value, sample index) for the
    // presorted exact engine — a trainer change (three marginal
    // tie-break splits moved), not an inference change; inference
    // parity is still locked by BatchedMatrixMatchesPerPairReference
    // below and the ml_test compiled-forest suite.
    const double kGolden[4][4] = {
        {5800.0, 544.52859933535603, 868.59469093581788,
         561.2524390317808},
        {1259.2259436995178, 5800.0, 1238.0036475617221,
         308.33605793846647},
        {413.34217807457389, 57.589963821803032, 5800.0,
         1267.9513825785264},
        {879.52877075997878, 1144.9202077429572, 257.22110734868579,
         5800.0},
    };

    const auto topo = net::TopologyBuilder::paperTestbed(
        4, net::VmTypeCatalog::t3nano());
    const auto [predictor, snapshot] = goldenFixture();
    const auto predicted = predictor.predictMatrix(topo, snapshot);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_EQ(predicted.at(i, j), kGolden[i][j])
                << "pair (" << i << ", " << j << ")";
}

TEST(RuntimeBwPredictor, BatchedMatrixMatchesPerPairReference)
{
    // The batched single-predictBatch path must be bit-identical to
    // predicting each pair individually through the interpreted
    // ensemble (tests/oracles/forest_predict.hh).
    const auto topo = net::TopologyBuilder::paperTestbed(
        4, net::VmTypeCatalog::t3nano());
    const auto [predictor, snapshot] = goldenFixture();
    const auto predicted = predictor.predictMatrix(topo, snapshot);

    const monitor::HostLoad load;
    for (net::DcId i = 0; i < 4; ++i) {
        for (net::DcId j = 0; j < 4; ++j) {
            if (i == j) {
                EXPECT_EQ(predicted.at(i, j), snapshot.at(i, j));
                continue;
            }
            const double cap = topo.connCap(i, j);
            const double retrans = std::max(
                0.0,
                1.0 - snapshot.at(i, j) / std::max(cap, 1.0));
            const auto features = monitor::pairFeatures(
                topo, snapshot, i, j, load, retrans);
            const double reference = std::max(
                0.0, oracle::forestPredict(predictor.forest(), features));
            EXPECT_EQ(predicted.at(i, j), reference);
            EXPECT_EQ(predicted.at(i, j),
                      predictor.predictPair(features));
        }
    }
}

TEST(RuntimeBwPredictor, FailedTrainKeepsTheModel)
{
    // A train() the forest refuses leaves the trained model in place:
    // the same trees, the same batched predictions and the same OOB
    // estimate, bit for bit.
    auto fixture = goldenFixture();
    RuntimeBwPredictor &trained = fixture.first;
    const ml::Dataset rows = goldenTrainingData();
    std::vector<double> X;
    for (std::size_t i = 0; i < rows.size(); ++i)
        X.insert(X.end(), rows.x(i).begin(), rows.x(i).end());
    auto predictAll = [&] {
        std::vector<double> y(rows.size());
        trained.forest().compiled().predictBatch(X.data(), rows.size(),
                                                 y.data());
        return y;
    };
    const std::vector<double> before = predictAll();
    const double oobBefore = trained.forest().oobR2();

    const ml::Dataset empty(monitor::kFeatureCount);
    EXPECT_EQ(whatOf<FatalError>([&] { trained.train(empty, 3); }),
              "fatal: RandomForest::fit: empty dataset");
    EXPECT_TRUE(trained.trained());
    EXPECT_EQ(trained.forest().treeCount(), 25u);
    const std::vector<double> after = predictAll();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(after[i], before[i]) << "row " << i;
    EXPECT_TRUE(std::isnan(oobBefore)
                    ? std::isnan(trained.forest().oobR2())
                    : trained.forest().oobR2() == oobBefore);
}

// ---- facade ---------------------------------------------------------------------------

TEST(Wanify, FeatureTogglesShapeThePlan)
{
    WanifyConfig cfg;
    cfg.features = WanifyFeatures::localOnly();
    Wanify wanify(cfg);
    const auto plan = wanify.plan(paperExample());
    // Local-only: static [1, M] range everywhere off-diagonal.
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_EQ(plan.minCons.at(i, j), 1);
            EXPECT_EQ(plan.maxCons.at(i, j),
                      i == j ? 1 : cfg.global.maxConnections);
        }
    }
}

TEST(Wanify, ThrottlingNeedsAgents)
{
    // The local agents are the only throttling path: throttling
    // without them would do nothing, so the facade refuses it.
    WanifyConfig cfg;
    cfg.features.localOptimization = false;
    EXPECT_EQ(whatOf<FatalError>([&] { Wanify{cfg}; }),
              "fatal: Wanify: throttling needs localOptimization");

    cfg.features = WanifyFeatures::globalOnly();
    const Wanify wanify(cfg);
    const auto topo = net::TopologyBuilder::paperTestbed(
        3, net::VmTypeCatalog::t3nano());
    net::NetworkSim sim(topo, {}, 1);
    const auto bw = paperExample();
    EXPECT_TRUE(wanify.deploy(sim, wanify.plan(bw), bw).agents.empty());
}

TEST(Wanify, RequiresTrainedPredictor)
{
    Wanify wanify;
    EXPECT_FALSE(wanify.trained());
    EXPECT_EQ(wanify.predictorSnapshot(), nullptr);
    EXPECT_THROW(
        wanify.setPredictor(std::make_shared<RuntimeBwPredictor>()),
        FatalError);
}
