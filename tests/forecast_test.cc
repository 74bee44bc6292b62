/**
 * @file
 * Tests for the forecast subsystem: BwForecast segment integration
 * and boundary semantics, the GaugeTrend deployed-mode extrapolator,
 * the scenario forecast source's two anchors, forecast-aware stage
 * time estimation (including the dead-pair floor regression the old
 * 1 Mbps clamp hid), and fraction-search warm starts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/units.hh"
#include "core/forecast.hh"
#include "experiments/testbed.hh"
#include "gda/scheduler.hh"
#include "sched/fraction_search.hh"
#include "sched/tetrium.hh"
#include "scenario/forecast.hh"
#include "scenario/scenario.hh"
#include "expect_what.hh"

using namespace wanify;
using test::whatOf;

namespace {

/** Forecast with one segment per (end, uniform off-diag bw) pair. */
core::BwForecast
uniformForecast(std::size_t n,
                const std::vector<std::pair<Seconds, Mbps>> &segs)
{
    core::BwForecast fc;
    for (const auto &[end, bw] : segs)
        fc.addSegment(end, Matrix<Mbps>::square(n, bw));
    return fc;
}

gda::StageContext
contextFor(const net::Topology &topo, const Matrix<Mbps> &bw,
           const gda::StageSpec &stage, std::vector<Bytes> input,
           std::size_t stageIndex)
{
    gda::StageContext ctx;
    ctx.topo = &topo;
    ctx.bw = &bw;
    ctx.inputByDc = std::move(input);
    ctx.stage = &stage;
    ctx.stageIndex = stageIndex;
    ctx.computeRate.assign(topo.dcCount(), 0.0);
    ctx.egressPrice.assign(topo.dcCount(), 0.0);
    for (net::DcId d = 0; d < topo.dcCount(); ++d) {
        for (net::VmId v : topo.dc(d).vms)
            ctx.computeRate[d] += topo.vm(v).type.computeRate;
        ctx.egressPrice[d] = topo.dc(d).region.egressPerGb;
    }
    return ctx;
}

} // namespace

// ---- BwForecast -------------------------------------------------------------

TEST(BwForecast, SingleSegmentMatchesSnapshotDivision)
{
    const auto fc = uniformForecast(2, {{100.0, 400.0}});
    const Bytes bytes = 1.0e9;
    EXPECT_NEAR(fc.transferTime(0, 1, bytes, 1.0, 0.0),
                units::transferTime(bytes, 400.0), 1e-9);
    EXPECT_NEAR(fc.transferTime(0, 1, bytes, 0.5, 0.0),
                units::transferTime(bytes, 200.0), 1e-9);
    EXPECT_DOUBLE_EQ(fc.transferTime(0, 1, 0.0, 1.0, 0.0), 0.0);
}

TEST(BwForecast, IntegratesAcrossSegments)
{
    // 100 Mbps until t = 10, then 50 Mbps. 2.5e8 bytes starting at
    // t = 0: the first 1.25e8 drain in exactly 10 s at 100 Mbps, the
    // rest take 20 s at 50 Mbps.
    const auto fc =
        uniformForecast(2, {{10.0, 100.0}, {20.0, 50.0}});
    EXPECT_NEAR(fc.transferTime(0, 1, 2.5e8, 1.0, 0.0), 30.0, 1e-6);
    // Starting mid-segment: 5 s left at 100 Mbps moves 6.25e7.
    EXPECT_NEAR(fc.transferTime(0, 1, 1.25e8, 1.0, 5.0),
                5.0 + 10.0, 1e-6);
}

TEST(BwForecast, SegmentEndBoundaryBelongsToNextSegment)
{
    // Segments hold over (prev, end]: a transfer *starting* exactly
    // at a segment end gets zero window there and runs at the next
    // segment's rate.
    const auto fc =
        uniformForecast(2, {{10.0, 100.0}, {20.0, 50.0}});
    EXPECT_NEAR(fc.transferTime(0, 1, 1.25e8, 1.0, 10.0), 20.0,
                1e-6);
    // bwAt uses the same closed-right convention.
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 10.0), 100.0);
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 10.0001), 50.0);
}

TEST(BwForecast, LastSegmentIsHeldBeyondHorizon)
{
    const auto fc =
        uniformForecast(2, {{10.0, 100.0}, {20.0, 50.0}});
    EXPECT_DOUBLE_EQ(fc.horizonEnd(), 20.0);
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 1.0e6), 50.0);
    // A transfer starting past the horizon sees a flat 50 Mbps.
    EXPECT_NEAR(fc.transferTime(0, 1, 1.25e8, 1.0, 500.0), 20.0,
                1e-6);
}

TEST(BwForecast, DeadPairFloorIsFiniteAndBytesProportional)
{
    // An outage pair must price as astronomically expensive, not as
    // an infinity plateau: the search needs a gradient, and doubling
    // the bytes must double the pain.
    core::BwForecast fc;
    auto bw = Matrix<Mbps>::square(2, 400.0);
    bw.at(0, 1) = 0.0;
    fc.addSegment(1.0e9, bw);
    const double t1 = fc.transferTime(0, 1, 1.0e6, 1.0, 0.0);
    const double t2 = fc.transferTime(0, 1, 2.0e6, 1.0, 0.0);
    EXPECT_TRUE(std::isfinite(t1));
    EXPECT_NEAR(
        t1,
        units::transferTime(1.0e6, core::BwForecast::kMinFeasibleMbps),
        1e-3);
    EXPECT_NEAR(t2, 2.0 * t1, 1e-3);
    // The floor also guards tiny shares on live pairs.
    EXPECT_TRUE(std::isfinite(fc.transferTime(1, 0, 1.0e6, 0.0, 0.0)));
}

TEST(BwForecast, EmptyForecastTransferTimeFails)
{
    const core::BwForecast fc;
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { fc.transferTime(0, 1, 1.0e6, 1.0, 0.0); }),
              "fatal: BwForecast::transferTime: empty forecast");
}

// ---- GaugeTrend (deployed-mode source) --------------------------------------

TEST(GaugeTrend, FewerThanTwoPointsForecastsFlat)
{
    core::GaugeTrend trend;
    EXPECT_TRUE(trend.forecast(0.0, 60.0, 10.0).empty());

    trend.record(0.0, Matrix<Mbps>::square(2, 250.0));
    EXPECT_FALSE(trend.ready());
    const auto fc = trend.forecast(0.0, 60.0, 10.0);
    ASSERT_FALSE(fc.empty());
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 5.0), 250.0);
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 60.0), 250.0);
}

TEST(GaugeTrend, LinearDeclineExtrapolatesAndClampsAtZero)
{
    core::GaugeTrend trend;
    trend.record(0.0, Matrix<Mbps>::square(2, 100.0));
    trend.record(10.0, Matrix<Mbps>::square(2, 80.0));
    ASSERT_TRUE(trend.ready());

    // Slope -2 Mbps/s through both points, sampled at segment ends.
    const auto fc = trend.forecast(10.0, 40.0, 10.0);
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 15.0), 60.0); // t = 20
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 25.0), 40.0); // t = 30
    // t = 50 would extrapolate to 0; never negative.
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 50.0), 0.0);
    EXPECT_GE(fc.bwAt(0, 1, 1.0e6), 0.0);
}

TEST(GaugeTrend, KeepsOnlyTheMostRecentPoints)
{
    core::GaugeTrend trend(2);
    trend.record(0.0, Matrix<Mbps>::square(2, 500.0)); // evicted
    trend.record(10.0, Matrix<Mbps>::square(2, 100.0));
    trend.record(20.0, Matrix<Mbps>::square(2, 90.0));
    EXPECT_EQ(trend.size(), 2u);
    // Fit over the surviving points only: slope -1, not the steep
    // drop the evicted point would imply.
    const auto fc = trend.forecast(20.0, 10.0, 10.0);
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 25.0), 80.0); // t = 30
}

// ---- scenario forecast source -----------------------------------------------

namespace {

scenario::ScenarioTimeline
maintenanceTimeline(double magnitude = 0.5)
{
    scenario::ScenarioSpec spec;
    spec.name = "t";
    scenario::ScenarioEvent ev;
    ev.kind = scenario::EventKind::Maintenance;
    ev.src = 0;
    ev.dst = 1;
    ev.start = 100.0;
    ev.duration = 50.0;
    ev.magnitude = magnitude;
    spec.events.push_back(ev);
    return scenario::ScenarioTimeline(spec, 2, 1);
}

} // namespace

TEST(ScenarioForecast, NominalAnchorScalesBelievedByFutureFactor)
{
    const auto timeline = maintenanceTimeline();
    const auto believed = Matrix<Mbps>::square(2, 400.0);
    core::ForecastConfig cfg;
    cfg.horizon = 150.0;
    cfg.step = 10.0;
    cfg.anchor = core::ForecastConfig::Anchor::Nominal;

    const auto fc = scenario::forecastFromDynamics(
        timeline, believed, 0.0, cfg);
    ASSERT_EQ(fc.segments(), 15u);
    // Before the window: nominal capacity.
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 85.0), 400.0);
    // Inside the window the pair halves; the selector spares (1, 0).
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 105.0), 200.0);
    EXPECT_DOUBLE_EQ(fc.bwAt(1, 0, 105.0), 400.0);
}

TEST(ScenarioForecast, CurrentAnchorRebasesToThePlanTimeFactor)
{
    const auto timeline = maintenanceTimeline();
    // Gauged mid-window: the belief already reflects the 0.5 factor.
    const auto believed = Matrix<Mbps>::square(2, 200.0);
    core::ForecastConfig cfg;
    cfg.horizon = 60.0;
    cfg.step = 10.0;
    cfg.anchor = core::ForecastConfig::Anchor::Current;

    const auto fc = scenario::forecastFromDynamics(
        timeline, believed, 120.0, cfg);
    // Still inside the window: factor ratio 0.5 / 0.5 = 1.
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 125.0), 200.0);
    // After recovery the forecast doubles back to nominal.
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 175.0), 400.0);
}

TEST(ScenarioForecast, CurrentAnchorFloorsTheNowFactor)
{
    // Gauged mid-outage with a residual below the anchor floor: the
    // recovery ratio must be capped at 1 / kMinAnchorFactor, not
    // explode by 1 / residual.
    scenario::ScenarioSpec spec;
    spec.name = "t";
    scenario::ScenarioEvent ev;
    ev.kind = scenario::EventKind::Outage;
    ev.src = 0;
    ev.dst = 1;
    ev.start = 0.0;
    ev.duration = 50.0;
    ev.residual = 1.0e-4;
    spec.events.push_back(ev);
    const scenario::ScenarioTimeline timeline(spec, 2, 1);

    const auto believed = Matrix<Mbps>::square(2, 1.0);
    core::ForecastConfig cfg;
    cfg.horizon = 100.0;
    cfg.step = 10.0;
    cfg.anchor = core::ForecastConfig::Anchor::Current;
    const auto fc = scenario::forecastFromDynamics(
        timeline, believed, 25.0, cfg);
    EXPECT_DOUBLE_EQ(fc.bwAt(0, 1, 95.0),
                     1.0 / scenario::kMinAnchorFactor);
}

// ---- forecast-aware stage time + the dead-pair floor regression -------------

TEST(ForecastPlanning, EstimatorChargesTheUpcomingWindow)
{
    // Snapshot sees 400 Mbps everywhere; the forecast knows pair
    // (0, 1) collapses to 4 Mbps after 5 s. An assignment shuffling
    // across that pair must estimate much slower under the forecast.
    const auto topo = experiments::workerCluster(2, 2);
    const Matrix<Mbps> bw = Matrix<Mbps>::square(2, 400.0);
    const gda::StageSpec stage{"s", 1.0, 0.05, true};
    auto ctx = contextFor(topo, bw, stage, {4.0e9, 0.0}, 1);

    Matrix<Bytes> a = Matrix<Bytes>::square(2, 0.0);
    a.at(0, 0) = 2.0e9;
    a.at(0, 1) = 2.0e9;
    const Seconds snapshotTime = gda::estimateStageTime(ctx, a);

    core::BwForecast fc;
    fc.addSegment(5.0, Matrix<Mbps>::square(2, 400.0));
    auto collapsed = Matrix<Mbps>::square(2, 400.0);
    collapsed.at(0, 1) = 4.0;
    fc.addSegment(1.0e6, collapsed);
    ctx.forecast = &fc;
    const Seconds forecastTime = gda::estimateStageTime(ctx, a);

    EXPECT_GT(forecastTime, 5.0 * snapshotTime);

    // planTime offsets the integration: planning from t = 1e6 (the
    // collapse priced from the very first byte) is slower still.
    ctx.planTime = 1.0e6;
    EXPECT_GT(gda::estimateStageTime(ctx, a), forecastTime);
}

TEST(ForecastPlanning, DeadPairPricesWorseThanAnyThrottledLivePair)
{
    // Regression for the silent 1 Mbps floor: under
    // max(1.0, bw * share) a dead pair (bw = 0) and a live pair
    // throttled to a tiny share (400 * 0.001 = 0.4 Mbps) both clamped
    // to 1 Mbps — identical cost, no gradient, and the search could
    // pick the dead pair. The epsilon floor keeps the ordering.
    const auto topo = experiments::workerCluster(3, 2);
    auto bw = Matrix<Mbps>::square(3, 400.0);
    bw.at(0, 1) = 0.0;
    const gda::StageSpec stage{"s", 1.0, 0.05, true};
    auto ctx = contextFor(topo, bw, stage, {6.0e9, 0.0, 0.0}, 1);
    ctx.wanShare = 0.001;

    Matrix<Bytes> dead = Matrix<Bytes>::square(3, 0.0);
    dead.at(0, 0) = 5.0e9;
    dead.at(0, 1) = 1.0e9;
    Matrix<Bytes> live = Matrix<Bytes>::square(3, 0.0);
    live.at(0, 0) = 5.0e9;
    live.at(0, 2) = 1.0e9;

    const Seconds deadTime = gda::estimateStageTime(ctx, dead);
    const Seconds liveTime = gda::estimateStageTime(ctx, live);
    EXPECT_TRUE(std::isfinite(deadTime));
    EXPECT_GT(deadTime, 100.0 * liveTime);

    // And the fix routes around the outage: Tetrium drains the dead
    // pair down to (at most) the search's step granularity, where the
    // old floor saw no gradient at all.
    sched::TetriumScheduler tetrium;
    const auto a = tetrium.placeStage(ctx);
    EXPECT_LT(a.at(0, 1), 0.02 * 6.0e9 + 1.0);
    Bytes rowSum = 0.0;
    for (std::size_t j = 0; j < 3; ++j)
        rowSum += a.at(0, j);
    EXPECT_NEAR(rowSum, 6.0e9, 1.0);
}

// ---- warm starts ------------------------------------------------------------

TEST(WarmStart, AppliesOnlySizeMatchingRememberedFractions)
{
    const auto topo = experiments::workerCluster(3, 2);
    const Matrix<Mbps> bw = Matrix<Mbps>::square(3, 400.0);
    const gda::StageSpec stage{"s", 1.0, 0.05, true};
    auto ctx = contextFor(topo, bw, stage, {3.0e9, 0.0, 0.0}, 1);

    std::vector<double> seed = {1.0, 0.0, 0.0};
    // No memory attached: nothing to apply.
    EXPECT_FALSE(sched::applyWarmStart(ctx, seed));

    gda::PlanMemory mem;
    mem.fractionsByStage[1] = {0.2, 0.3, 0.5};
    mem.fractionsByStage[2] = {1.0, 0.0}; // wrong cluster size
    ctx.memory = &mem;
    EXPECT_TRUE(sched::applyWarmStart(ctx, seed));
    EXPECT_DOUBLE_EQ(seed[2], 0.5);

    ctx.stageIndex = 2;
    std::vector<double> other = {1.0, 0.0, 0.0};
    EXPECT_FALSE(sched::applyWarmStart(ctx, other));
    EXPECT_DOUBLE_EQ(other[0], 1.0);
}

TEST(WarmStart, SecondSearchFromMemoryConvergesInFewerIterations)
{
    // A network-dominated two-DC stage with all input at DC 0: the
    // compute-proportional cold seed (half the work shipped to DC 1)
    // is far from the optimum, and with a single WAN destination
    // every 2% move strictly lowers the bottleneck, so the cold
    // search walks a long way down the simplex. Re-planning the same
    // stage with the remembered fractions must start at the optimum
    // and settle (near-)immediately.
    const auto topo = experiments::workerCluster(2, 2);
    const Matrix<Mbps> bw = Matrix<Mbps>::square(2, 300.0);
    const gda::StageSpec stage{"s", 1.0, 0.01, true};
    auto ctx = contextFor(topo, bw, stage, {8.0e9, 0.0}, 1);
    gda::PlanMemory mem;
    ctx.memory = &mem;

    sched::TetriumScheduler tetrium;
    const auto cold = tetrium.placeStage(ctx);
    const std::size_t coldIterations = mem.lastIterations;
    ASSERT_GT(coldIterations, 0u);
    ASSERT_EQ(mem.fractionsByStage.count(1), 1u);

    const auto warm = tetrium.placeStage(ctx);
    EXPECT_LT(mem.lastIterations, coldIterations);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            EXPECT_NEAR(warm.at(i, j), cold.at(i, j), 1.0);
}
