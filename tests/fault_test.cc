/**
 * @file
 * Tests for fault injection and recovery: the FaultPlan time algebra,
 * the retry/backoff policy, the predictor degradation ladder, the
 * engine's abort → retry → replan pipeline, blackout deferral, the
 * ladder firing end to end under gauge outages, fault scenarios in
 * the library and the CSV trace medium, and the serve layer's
 * query-granularity kill / requeue / blackout-admission recovery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hh"
#include "experiments/runner.hh"
#include "experiments/predictor_factory.hh"
#include "experiments/testbed.hh"
#include "fault/fault.hh"
#include "gda/engine.hh"
#include "scenario/driver.hh"
#include "scenario/library.hh"
#include "scenario/scenario.hh"
#include "scenario/trace.hh"
#include "sched/locality.hh"
#include "sched/tetrium.hh"
#include "serve/service.hh"
#include "storage/hdfs.hh"
#include "workloads/terasort.hh"
#include "workloads/tpcds.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::fault;
using test::whatOf;

namespace {

/** A temp file path unique to this test binary. */
std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "wanify_fault_" + name;
}

} // namespace

// ---- FaultPlan time algebra -------------------------------------------------

TEST(FaultPlan, CompilesDeterministicallyWithSeededJitter)
{
    std::vector<FaultEvent> evs;
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.time = 10.0;
    a.startJitter = 5.0;
    evs.push_back(a);
    a.time = 40.0;
    evs.push_back(a);

    const FaultPlan p1(evs, 4, 99);
    const FaultPlan p2(evs, 4, 99);
    ASSERT_EQ(p1.events().size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_DOUBLE_EQ(p1.events()[k].start, p2.events()[k].start);
        EXPECT_GE(p1.events()[k].start, evs[k].time);
        EXPECT_LT(p1.events()[k].start, evs[k].time + 5.0);
    }
    // A different seed draws different jitter for at least one event.
    const FaultPlan p3(evs, 4, 100);
    EXPECT_TRUE(p3.events()[0].start != p1.events()[0].start ||
                p3.events()[1].start != p1.events()[1].start);
}

TEST(FaultPlan, StartsInWindowAreSortedAndHalfOpen)
{
    std::vector<FaultEvent> evs;
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.time = 20.0;
    evs.push_back(a);
    a.time = 10.0;
    evs.push_back(a);
    const FaultPlan plan(evs, 4, 1);

    std::vector<std::size_t> hits;
    plan.startsIn(-1.0, 30.0, hits);
    ASSERT_EQ(hits.size(), 2u);
    // Sorted by start time, not by spec order.
    EXPECT_EQ(hits[0], 1u);
    EXPECT_EQ(hits[1], 0u);

    hits.clear();
    plan.startsIn(10.0, 20.0, hits); // (10, 20]: 10 excluded
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], 0u);

    std::vector<Seconds> edges;
    plan.edgesIn(-1.0, 30.0, edges);
    std::sort(edges.begin(), edges.end());
    ASSERT_GE(edges.size(), 2u);
    EXPECT_DOUBLE_EQ(edges.front(), 10.0);
}

TEST(FaultPlan, BlackoutWindowsAndClearTimeChaining)
{
    std::vector<FaultEvent> evs;
    FaultEvent b;
    b.kind = FaultKind::DcBlackout;
    b.dc = 1;
    b.time = 10.0;
    b.duration = 20.0;
    evs.push_back(b);
    b.dc = 2;
    b.time = 25.0;
    b.duration = 15.0; // [25, 40): overlaps the tail of DC 1's window
    evs.push_back(b);
    const FaultPlan plan(evs, 4, 1);

    EXPECT_FALSE(plan.blackoutAt(1, 9.9));
    EXPECT_TRUE(plan.blackoutAt(1, 10.0));
    EXPECT_TRUE(plan.blackoutAt(1, 29.9));
    EXPECT_FALSE(plan.blackoutAt(1, 30.0));
    EXPECT_FALSE(plan.blackoutAt(0, 15.0));
    EXPECT_TRUE(plan.anyBlackoutAt(15.0));
    EXPECT_FALSE(plan.anyBlackoutAt(50.0));

    EXPECT_TRUE(plan.pairBlackedOutAt(1, 3, 15.0));
    EXPECT_TRUE(plan.pairBlackedOutAt(3, 1, 15.0));
    EXPECT_FALSE(plan.pairBlackedOutAt(0, 3, 15.0));

    // Pair (1, 2): DC 1 clears at 30 but DC 2 is already dark, so the
    // clear time walks the chained windows to 40.
    EXPECT_DOUBLE_EQ(plan.blackoutClearTime(1, 2, 15.0), 40.0);
    // Pair (1, 3) only waits for DC 1.
    EXPECT_DOUBLE_EQ(plan.blackoutClearTime(1, 3, 15.0), 30.0);
    // A clear pair at a clear time answers t itself.
    EXPECT_DOUBLE_EQ(plan.blackoutClearTime(0, 3, 15.0), 15.0);
    EXPECT_DOUBLE_EQ(plan.blackoutClearTime(1, 2, 100.0), 100.0);
}

TEST(FaultPlan, AgentCrashAndGaugeWindows)
{
    std::vector<FaultEvent> evs;
    FaultEvent c;
    c.kind = FaultKind::AgentCrash;
    c.dc = 2;
    c.time = 5.0;
    c.duration = 10.0;
    evs.push_back(c);
    FaultEvent g;
    g.kind = FaultKind::ProbeLoss;
    g.time = 20.0;
    g.duration = 10.0;
    evs.push_back(g);
    g.kind = FaultKind::GaugeTimeout;
    g.time = 25.0;
    g.duration = 10.0;
    evs.push_back(g);
    const FaultPlan plan(evs, 4, 1);

    EXPECT_TRUE(plan.agentCrashedAt(2, 5.0));
    EXPECT_TRUE(plan.agentCrashedAt(2, 14.9));
    EXPECT_FALSE(plan.agentCrashedAt(2, 15.0));
    EXPECT_FALSE(plan.agentCrashedAt(1, 10.0));

    FaultKind kind = FaultKind::TransferAbort;
    EXPECT_FALSE(plan.gaugeFaultAt(19.9));
    EXPECT_TRUE(plan.gaugeFaultAt(21.0, &kind));
    EXPECT_EQ(kind, FaultKind::ProbeLoss);
    // Overlap: the costlier GaugeTimeout wins.
    EXPECT_TRUE(plan.gaugeFaultAt(27.0, &kind));
    EXPECT_EQ(kind, FaultKind::GaugeTimeout);
    EXPECT_TRUE(plan.gaugeFaultAt(32.0, &kind));
    EXPECT_EQ(kind, FaultKind::GaugeTimeout);
    EXPECT_FALSE(plan.gaugeFaultAt(35.0));
}

TEST(FaultPlan, RejectsMismatchedAndMalformedEvents)
{
    std::vector<FaultEvent> evs;
    FaultEvent b;
    b.kind = FaultKind::DcBlackout;
    b.dc = 7; // out of range for a 4-DC cluster
    evs.push_back(b);
    EXPECT_THROW(FaultPlan(evs, 4, 1), FatalError);

    evs.clear();
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.time = -3.0;
    evs.push_back(a);
    EXPECT_THROW(FaultPlan(evs, 4, 1), FatalError);

    // A NaN jitter would fail every comparison and pass unjittered.
    evs[0].time = 3.0;
    evs[0].startJitter = std::nan("");
    EXPECT_EQ(whatOf<FatalError>([&] { FaultPlan(evs, 4, 1); }),
              "fatal: fault startJitter must be finite and >= 0");
}

// ---- retry policy -----------------------------------------------------------

TEST(RetryPolicy, CappedExponentialScheduleWithoutJitter)
{
    RetryPolicy p;
    p.baseBackoff = 2.0;
    p.multiplier = 2.0;
    p.maxBackoff = 10.0;
    p.jitterFraction = 0.0;
    EXPECT_DOUBLE_EQ(p.backoff(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(p.backoff(1, 1), 4.0);
    EXPECT_DOUBLE_EQ(p.backoff(2, 1), 8.0);
    EXPECT_DOUBLE_EQ(p.backoff(3, 1), 10.0); // capped
    EXPECT_DOUBLE_EQ(p.backoff(9, 1), 10.0);
}

TEST(RetryPolicy, JitterStaysInBandAndIsSeedDeterministic)
{
    RetryPolicy p; // defaults: base 2, x2, cap 60, jitter 0.25
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const Seconds d = p.backoff(1, seed);
        EXPECT_GE(d, 4.0 * (1.0 - 0.125));
        EXPECT_LE(d, 4.0 * (1.0 + 0.125));
        EXPECT_DOUBLE_EQ(d, p.backoff(1, seed));
    }
    // Distinct seeds desynchronize retries.
    EXPECT_NE(p.backoff(1, 11), p.backoff(1, 12));
}

// ---- predictor health ladder ------------------------------------------------

TEST(PredictorHealth, FullLadderDownAndUp)
{
    PredictorHealthConfig cfg; // 1 failure → Trend, 3 → Static
    PredictorHealth h(cfg);
    EXPECT_EQ(h.mode(), PredictorMode::Model);

    EXPECT_TRUE(h.recordFailure()); // Model → Trend
    EXPECT_EQ(h.mode(), PredictorMode::Trend);
    EXPECT_FALSE(h.recordFailure()); // 2 consecutive: still Trend
    EXPECT_TRUE(h.recordFailure()); // 3 consecutive → Static
    EXPECT_EQ(h.mode(), PredictorMode::Static);
    EXPECT_FALSE(h.recordFailure()); // already at the bottom

    EXPECT_TRUE(h.recordSuccess()); // Static → Trend
    EXPECT_EQ(h.mode(), PredictorMode::Trend);
    EXPECT_TRUE(h.recordSuccess()); // Trend → Model
    EXPECT_EQ(h.mode(), PredictorMode::Model);
    EXPECT_FALSE(h.recordSuccess()); // healthy: nothing to climb
}

TEST(PredictorHealth, SuccessResetsTheFailureStreak)
{
    PredictorHealthConfig cfg;
    cfg.failuresToStatic = 2;
    PredictorHealth h(cfg);
    EXPECT_TRUE(h.recordFailure()); // → Trend
    EXPECT_TRUE(h.recordSuccess()); // → Model, streak cleared
    EXPECT_TRUE(h.recordFailure()); // → Trend again, not Static
    EXPECT_EQ(h.mode(), PredictorMode::Trend);
}

// ---- engine: abort → retry → replan -----------------------------------------

namespace {

/** Skewed TeraSort under Tetrium with a plain (no-WANify) transfer. */
gda::QueryResult
runFaultRun(const FaultPlan *faults, std::uint64_t seed,
            RetryPolicy retry = {})
{
    const auto topo = experiments::workerCluster(4, 2);
    const auto job = workloads::teraSort(8.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadSkewed(job.inputBytes, {0.55, 0.25, 0.15, 0.05});
    sched::TetriumScheduler tetrium;

    gda::Engine engine(topo, experiments::defaultSimConfig(), seed);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
    opts.staticConnections = Matrix<int>::square(4, 2);
    opts.faults = faults;
    opts.retry = retry;
    return engine.run(job, hdfs.distribution(), tetrium, opts);
}

/** Wildcard transfer aborts early in the first shuffle. */
FaultPlan
abortStorm()
{
    std::vector<FaultEvent> evs;
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.time = 5.0;
    evs.push_back(a);
    a.time = 12.0;
    evs.push_back(a);
    return FaultPlan(evs, 4, 7);
}

} // namespace

TEST(EngineFault, TransferAbortRetriesAndCompletes)
{
    const auto plan = abortStorm();
    const auto clean = runFaultRun(nullptr, 2024);
    const auto hit = runFaultRun(&plan, 2024);

    EXPECT_GE(hit.faultsInjected, 1u);
    EXPECT_GE(hit.transferAborts, 1u);
    EXPECT_GE(hit.transferRetries, 1u);
    EXPECT_GT(hit.lostBytes, 0.0);
    EXPECT_GT(hit.backoffSeconds, 0.0);
    // Recovery, not corruption: every stage still finishes and the
    // storm costs latency.
    ASSERT_EQ(hit.stages.size(), clean.stages.size());
    for (const auto &stage : hit.stages)
        EXPECT_GE(stage.end, stage.transferEnd);
    EXPECT_GT(hit.latency, clean.latency);
}

TEST(EngineFault, FaultRunsAreBitDeterministic)
{
    const auto plan = abortStorm();
    const auto a = runFaultRun(&plan, 321);
    const auto b = runFaultRun(&plan, 321);
    EXPECT_DOUBLE_EQ(a.latency, b.latency);
    EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
    EXPECT_EQ(a.transferAborts, b.transferAborts);
    EXPECT_EQ(a.transferRetries, b.transferRetries);
    EXPECT_DOUBLE_EQ(a.lostBytes, b.lostBytes);
    EXPECT_DOUBLE_EQ(a.backoffSeconds, b.backoffSeconds);
}

TEST(EngineFault, EmptyPlanMatchesFaultFreeBitIdentically)
{
    // The fault-free arm must be structurally untouched by the fault
    // machinery: an empty plan and a null plan take the same code
    // paths and produce the same bits.
    const FaultPlan empty;
    const auto null = runFaultRun(nullptr, 777);
    const auto hollow = runFaultRun(&empty, 777);
    EXPECT_DOUBLE_EQ(null.latency, hollow.latency);
    EXPECT_DOUBLE_EQ(null.cost.total(), hollow.cost.total());
    EXPECT_DOUBLE_EQ(null.minObservedBw, hollow.minObservedBw);
    EXPECT_EQ(hollow.faultsInjected, 0u);
    EXPECT_EQ(hollow.transferAborts, 0u);
}

TEST(EngineFault, PlanForAnotherClusterSizeIsRefused)
{
    std::vector<FaultEvent> evs;
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.time = 5.0;
    evs.push_back(a);
    const FaultPlan threeDcs(evs, 3, 7);
    EXPECT_EQ(whatOf<FatalError>([&] { runFaultRun(&threeDcs, 1); }),
              "fatal: Engine::run: fault plan compiled for a different "
              "cluster size");
}

TEST(EngineFault, ExplicitEmptyPlanOverridesTheDynamicsPlan)
{
    // fault-storm's timeline carries its own plan; an explicit empty
    // plan replaces it, so the run injects nothing.
    const scenario::ScenarioTimeline timeline(
        scenario::libraryScenario("fault-storm"), 4, 11);
    const auto topo = experiments::workerCluster(4, 2);
    const auto job = workloads::teraSort(8.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    sched::TetriumScheduler tetrium;
    auto run = [&](const FaultPlan *faults) {
        gda::Engine engine(topo, experiments::defaultSimConfig(), 555);
        gda::RunOptions opts;
        opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
        opts.staticConnections = Matrix<int>::square(4, 2);
        opts.dynamics = &timeline;
        opts.faults = faults;
        return engine.run(job, hdfs.distribution(), tetrium, opts);
    };

    const FaultPlan none;
    const auto quiet = run(&none);
    EXPECT_EQ(quiet.faultsInjected, 0u);
    EXPECT_EQ(quiet.transferAborts, 0u);
    EXPECT_EQ(quiet.blackouts, 0u);
    EXPECT_EQ(quiet.agentCrashes, 0u);
    EXPECT_EQ(quiet.lostBytes, 0.0);
    EXPECT_GE(run(nullptr).faultsInjected, 1u);
}

TEST(EngineFault, ExhaustedRetriesReplanTheResidual)
{
    // maxAttempts = 1: the first abort exhausts the budget and the
    // undelivered bytes must be re-placed on an alternate path.
    RetryPolicy oneShot;
    oneShot.maxAttempts = 1;
    const auto plan = abortStorm();
    const auto r = runFaultRun(&plan, 2024, oneShot);
    EXPECT_GE(r.transferAborts, 1u);
    EXPECT_GE(r.faultReplans, 1u);
    EXPECT_GT(r.lostBytes, 0.0);
    EXPECT_GT(r.latency, 0.0);
    for (const auto &stage : r.stages)
        EXPECT_GE(stage.end, stage.transferEnd);
}

TEST(EngineFault, BlackoutDefersTransfersAndRecovers)
{
    std::vector<FaultEvent> evs;
    FaultEvent b;
    b.kind = FaultKind::DcBlackout;
    b.dc = 1;
    b.time = 3.0;
    b.duration = 27.0;
    evs.push_back(b);
    const FaultPlan plan(evs, 4, 7);

    const auto clean = runFaultRun(nullptr, 404);
    const auto dark = runFaultRun(&plan, 404);
    EXPECT_GE(dark.blackouts, 1u);
    EXPECT_GE(dark.transferAborts, 1u);
    // Deferred sends wait out the window, so the job pays for it but
    // still completes every stage.
    EXPECT_GT(dark.latency, clean.latency);
    ASSERT_EQ(dark.stages.size(), clean.stages.size());
    EXPECT_DOUBLE_EQ(runFaultRun(&plan, 404).latency, dark.latency);
}

// ---- engine: the degradation ladder end to end ------------------------------

namespace {

core::WanifyConfig
ladderWanifyConfig()
{
    core::WanifyConfig cfg;
    // 4 DCs: a mesh is 12 pairs; one DC's row+col is 6/12 = 50%.
    cfg.drift.windowSize = 24;
    cfg.drift.minObservations = 12;
    cfg.drift.retrainFraction = 0.2;
    return cfg;
}

/**
 * Drift-triggering outage plus a gauge-fault window: the retrain that
 * the drift detector demands cannot gauge, so the predictor must step
 * down the ladder instead of retraining.
 */
gda::QueryResult
runLadderRun(Seconds gaugeFaultStart, Seconds gaugeFaultLen,
             FaultKind gaugeKind, PredictorHealthConfig healthCfg,
             std::uint64_t seed, double jobGb = 8.0,
             Seconds outageLen = 3000.0)
{
    scenario::ScenarioSpec spec;
    spec.name = "ladder";
    scenario::ScenarioEvent ev;
    ev.kind = scenario::EventKind::Outage;
    ev.start = 10.0;
    ev.duration = outageLen;
    ev.residual = 0.3;
    spec.events.push_back(ev);
    if (gaugeFaultLen > 0.0) {
        FaultEvent g;
        g.kind = gaugeKind;
        g.time = gaugeFaultStart;
        g.duration = gaugeFaultLen;
        spec.faults.push_back(g);
    }
    const scenario::ScenarioTimeline timeline(spec, 4, 99);

    core::Wanify wanify(ladderWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());

    const auto topo = experiments::workerCluster(4, 2);
    const auto job = workloads::teraSort(jobGb);
    storage::HdfsStore hdfs(topo);
    hdfs.loadSkewed(job.inputBytes, {0.55, 0.25, 0.15, 0.05});
    sched::TetriumScheduler tetrium;

    gda::Engine engine(topo, experiments::defaultSimConfig(), seed);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
    opts.wanify = &wanify;
    opts.dynamics = &timeline;
    opts.adaptOnDrift = true;
    opts.predictorHealth = healthCfg;
    return engine.run(job, hdfs.distribution(), tetrium, opts);
}

} // namespace

TEST(EngineFault, GaugeOutageDegradesToTrendExtrapolation)
{
    // The whole run sits inside a ProbeLoss window: every retrain the
    // drift detector triggers must be served by the trend rung (the
    // initial prediction seeded the trend), and no warm-start retrain
    // may happen.
    const auto r = runLadderRun(0.0, 4000.0, FaultKind::ProbeLoss,
                                PredictorHealthConfig{}, 2024);
    EXPECT_GE(r.retrainTriggers, 1u);
    EXPECT_GE(r.gaugeFaults, 1u);
    EXPECT_GE(r.trendPlans, 1u);
    EXPECT_GE(r.predictorModeSwitches, 1u);
    EXPECT_GE(r.worstPredictorMode, 1);
    EXPECT_EQ(r.retrainsApplied, 0u);
    EXPECT_GT(r.latency, 0.0);
}

TEST(EngineFault, ImpatientLadderFallsToStaticApriori)
{
    // failuresToStatic = 1: the first failed gauge drops prediction
    // all the way to the static a-priori matrix.
    PredictorHealthConfig impatient;
    impatient.failuresToTrend = 1;
    impatient.failuresToStatic = 1;
    const auto r = runLadderRun(0.0, 4000.0, FaultKind::ProbeLoss,
                                impatient, 2024);
    EXPECT_GE(r.gaugeFaults, 1u);
    EXPECT_GE(r.staticPlans, 1u);
    EXPECT_EQ(r.worstPredictorMode, 2);
    EXPECT_GT(r.latency, 0.0);
}

TEST(EngineFault, LadderRecoversWhenGaugesReturn)
{
    // A finite outage fires the drift detector twice: once into the
    // outage (inside the gauge-fault window → ladder steps down) and
    // once at its recovery (gauges healthy again → a real warm-start
    // retrain and the ladder steps back up). At least two mode
    // switches — down, then up — with exactly the degraded retrain
    // skipped.
    const auto r = runLadderRun(0.0, 90.0, FaultKind::ProbeLoss,
                                PredictorHealthConfig{}, 2024, 24.0,
                                80.0);
    EXPECT_GE(r.gaugeFaults, 1u);
    EXPECT_GE(r.predictorModeSwitches, 2u);
    EXPECT_GE(r.worstPredictorMode, 1);
    EXPECT_GE(r.retrainsApplied, 1u);
    EXPECT_GT(r.latency, 0.0);
}

TEST(EngineFault, GaugeTimeoutDegradesLikeProbeLossAndCompletes)
{
    // Same fault geometry, costlier kind: the hung probe also pays a
    // measurement epoch before degrading, and the whole path must
    // stay bit-deterministic.
    const auto hung =
        runLadderRun(0.0, 4000.0, FaultKind::GaugeTimeout,
                     PredictorHealthConfig{}, 2024);
    EXPECT_GE(hung.gaugeFaults, 1u);
    EXPECT_GE(hung.worstPredictorMode, 1);
    EXPECT_EQ(hung.retrainsApplied, 0u);
    EXPECT_GT(hung.latency, 0.0);
    const auto again =
        runLadderRun(0.0, 4000.0, FaultKind::GaugeTimeout,
                     PredictorHealthConfig{}, 2024);
    EXPECT_DOUBLE_EQ(hung.latency, again.latency);
    EXPECT_EQ(hung.gaugeFaults, again.gaugeFaults);
}

// ---- aggregate rollup -------------------------------------------------------

TEST(RunnerFault, AggregateRollsUpFaultTelemetry)
{
    const auto plan = abortStorm();
    const auto agg = experiments::runTrials(
        [&](std::uint64_t seed) { return runFaultRun(&plan, seed); },
        3, 5000, experiments::Execution::Sequential);
    EXPECT_EQ(agg.trials, 3u);
    EXPECT_GE(agg.totalFaultsInjected, 3u);
    EXPECT_GE(agg.totalTransferAborts, 1u);
    EXPECT_GE(agg.totalTransferRetries, 1u);
    EXPECT_GT(agg.totalLostBytes, 0.0);
    EXPECT_GT(agg.meanBackoffSeconds, 0.0);

    // The parallel execution contract holds with faults in play.
    const auto par = experiments::runTrials(
        [&](std::uint64_t seed) { return runFaultRun(&plan, seed); },
        3, 5000, experiments::Execution::Parallel);
    EXPECT_DOUBLE_EQ(agg.meanLatency, par.meanLatency);
    EXPECT_EQ(agg.totalTransferAborts, par.totalTransferAborts);
    EXPECT_DOUBLE_EQ(agg.totalLostBytes, par.totalLostBytes);
}

// ---- scenario library & trace medium ----------------------------------------

TEST(FaultScenarios, LibraryExposesFaultStormsSeparately)
{
    const auto faulty = scenario::faultScenarioNames();
    ASSERT_EQ(faulty.size(), 2u);
    EXPECT_EQ(faulty[0], "fault-storm");
    EXPECT_EQ(faulty[1], "blackout");

    // campaignDynamics() cycles libraryScenarioNames() by index, so
    // the fault scenarios must NOT grow that list.
    const auto base = scenario::libraryScenarioNames();
    EXPECT_EQ(base.size(), 8u);
    for (const auto &name : faulty) {
        EXPECT_TRUE(scenario::isLibraryScenario(name));
        EXPECT_EQ(std::count(base.begin(), base.end(), name), 0);
        const auto spec = scenario::libraryScenario(name);
        EXPECT_FALSE(spec.faults.empty());
        const scenario::ScenarioTimeline timeline(spec, 4, 3);
        ASSERT_NE(timeline.faultPlan(), nullptr);
        EXPECT_FALSE(timeline.faultPlan()->empty());
    }
}

TEST(FaultScenarios, FaultStormRunsEndToEnd)
{
    const auto spec = scenario::libraryScenario("fault-storm");
    const scenario::ScenarioTimeline timeline(spec, 4, 11);

    const auto topo = experiments::workerCluster(4, 2);
    const auto job = workloads::teraSort(8.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    sched::TetriumScheduler tetrium;

    gda::Engine engine(topo, experiments::defaultSimConfig(), 555);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
    opts.staticConnections = Matrix<int>::square(4, 2);
    opts.dynamics = &timeline; // fault plan consumed from dynamics
    const auto r = engine.run(job, hdfs.distribution(), tetrium, opts);
    EXPECT_GE(r.faultsInjected, 1u);
    EXPECT_GT(r.latency, 0.0);
}

TEST(FaultTrace, FaultEventsSurviveTheCsvRoundTrip)
{
    scenario::BwTrace trace;
    trace.dcs = 2;
    trace.add(5.0, {1.0, 0.5, 0.5, 1.0});
    trace.add(10.0, {1.0, 0.25, 0.25, 1.0});
    scenario::BurstFlow burst;
    burst.start = 2.0;
    burst.duration = 4.0;
    burst.src = 0;
    burst.dst = 1;
    trace.bursts.push_back(burst);
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.src = 0;
    a.dst = 1;
    a.time = 3.0;
    trace.faults.push_back(a);
    FaultEvent b;
    b.kind = FaultKind::DcBlackout;
    b.dc = 1;
    b.time = 6.0;
    b.duration = 2.0;
    trace.faults.push_back(b);

    const auto path = tmpPath("roundtrip.csv");
    scenario::writeTraceCsv(path, trace);
    const auto loaded = scenario::readTraceCsv(path);
    std::remove(path.c_str());

    EXPECT_TRUE(loaded.identical(trace));
    EXPECT_EQ(loaded.hash(), trace.hash());
    ASSERT_EQ(loaded.faults.size(), 2u);
    EXPECT_EQ(loaded.faults[0].kind, FaultKind::TransferAbort);
    EXPECT_EQ(loaded.faults[1].kind, FaultKind::DcBlackout);
    EXPECT_DOUBLE_EQ(loaded.faults[1].duration, 2.0);

    const scenario::TraceReplay replay(loaded);
    ASSERT_NE(replay.faultPlan(), nullptr);
    EXPECT_EQ(replay.faultPlan()->events().size(), 2u);
    EXPECT_TRUE(replay.faultPlan()->blackoutAt(1, 7.0));
}

TEST(FaultTrace, RecordedFaultStormReplaysItsFaults)
{
    const auto spec = scenario::libraryScenario("fault-storm");
    const auto topo = experiments::workerCluster(4, 2);
    scenario::DriveConfig cfg;
    cfg.seed = 7;
    const auto recorded = scenario::driveScenario(spec, topo, cfg);
    const scenario::ScenarioTimeline timeline(spec, 4, cfg.seed);
    const scenario::TraceReplay replay(recorded.trace);

    // The recording keeps every fault that starts within its horizon,
    // at the start the timeline resolved for it.
    std::vector<Seconds> want, got;
    for (const CompiledFault &cf : timeline.faultPlan()->events())
        if (cf.start <= spec.horizon)
            want.push_back(cf.start);
    ASSERT_NE(replay.faultPlan(), nullptr);
    for (const CompiledFault &cf : replay.faultPlan()->events())
        got.push_back(cf.start);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want);

    // So an engine run over the replay injects what the run over the
    // timeline injects.
    auto faultsInjected = [&](const scenario::Dynamics &dynamics) {
        const auto job = workloads::teraSort(8.0);
        storage::HdfsStore hdfs(topo);
        hdfs.loadUniform(job.inputBytes);
        sched::TetriumScheduler tetrium;
        gda::Engine engine(topo, experiments::defaultSimConfig(), 555);
        gda::RunOptions opts;
        opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
        opts.staticConnections = Matrix<int>::square(4, 2);
        opts.dynamics = &dynamics;
        return engine.run(job, hdfs.distribution(), tetrium, opts)
            .faultsInjected;
    };
    const std::size_t injected = faultsInjected(timeline);
    EXPECT_GE(injected, 1u);
    EXPECT_EQ(faultsInjected(replay), injected);
}

TEST(FaultTrace, ReadErrorsNameTheOffendingFile)
{
    const auto missing = tmpPath("does_not_exist.csv");
    try {
        scenario::readTraceCsv(missing);
        FAIL() << "expected FatalError for a missing trace";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(missing),
                  std::string::npos);
    }

    // A truncated/garbage file must fail cleanly, naming the path,
    // instead of surfacing a bare parser error.
    const auto path = tmpPath("truncated.csv");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("t,cap_0_0,cap_0_1\n1.0,0.5\n", f);
    std::fclose(f);
    try {
        scenario::readTraceCsv(path);
        FAIL() << "expected FatalError for a truncated trace";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

// ---- serve layer: kill / requeue / blackout admission -----------------------

namespace {

/** An identical multi-DC analytics query that must shuffle. */
serve::QuerySpec
wanServeQuery(std::size_t i, std::size_t dcCount)
{
    serve::QuerySpec q;
    q.name = "w" + std::to_string(i);
    q.job = workloads::tpcDsQuery(workloads::TpcDsQuery::Q95, 1.0);
    std::vector<double> frac(dcCount, 0.0);
    double sum = 0.0;
    for (std::size_t d = 0; d < dcCount; ++d) {
        frac[d] = std::pow(0.6, static_cast<double>(d));
        sum += frac[d];
    }
    q.inputByDc.assign(dcCount, 0.0);
    for (std::size_t d = 0; d < dcCount; ++d)
        q.inputByDc[d] = q.job.inputBytes * frac[d] / sum;
    return q;
}

/** A single-stage local query confined to one DC (no WAN traffic). */
serve::QuerySpec
localServeQuery(std::size_t i, std::size_t dc, std::size_t dcCount)
{
    serve::QuerySpec q;
    q.name = "l" + std::to_string(i);
    gda::StageSpec stage;
    stage.name = "scan-agg";
    stage.selectivity = 0.05;
    stage.workPerMb = 0.5;
    q.job.name = "local";
    q.job.stages.push_back(stage);
    q.job.inputBytes = 1.0e9;
    q.inputByDc.assign(dcCount, 0.0);
    q.inputByDc[dc] = q.job.inputBytes;
    return q;
}

} // namespace

TEST(ServiceFault, FaultKillRequeuesAndEveryQueryCompletes)
{
    std::vector<FaultEvent> evs;
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.time = 5.0; // mid-shuffle for the t = 0 cohort
    evs.push_back(a);
    const FaultPlan plan(evs, 4, 3);

    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 6;
    cfg.faults = &plan;
    cfg.requeueBackoff = 10.0;
    auto run = [&] {
        serve::Service service(experiments::workerCluster(4), cfg,
                               experiments::quietSimConfig(),
                               nullptr, 55);
        for (std::size_t i = 0; i < 4; ++i)
            service.submit(wanServeQuery(i, 4));
        return service.drain();
    };
    const auto a1 = run();
    EXPECT_GE(a1.faultKills, 1u);
    EXPECT_GE(a1.requeuedQueries, 1u);
    EXPECT_EQ(a1.failedQueries, 0u);
    EXPECT_EQ(a1.completed, 4u);
    bool sawRequeue = false;
    for (const auto &q : a1.queries) {
        EXPECT_FALSE(q.killedByFault);
        sawRequeue = sawRequeue || q.requeues > 0;
    }
    EXPECT_TRUE(sawRequeue);

    const auto a2 = run();
    EXPECT_EQ(a1.resultHash, a2.resultHash);
    EXPECT_EQ(a1.faultKills, a2.faultKills);
}

TEST(ServiceFault, PlanForAnotherClusterSizeIsRefused)
{
    std::vector<FaultEvent> evs;
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.time = 5.0;
    evs.push_back(a);
    const FaultPlan threeDcs(evs, 3, 3);
    serve::ServiceConfig cfg;
    cfg.faults = &threeDcs;
    EXPECT_EQ(whatOf<FatalError>([&] {
                  serve::Service service(experiments::workerCluster(4),
                                         cfg);
              }),
              "fatal: Service: fault plan compiled for a different "
              "cluster size");
}

TEST(ServiceFault, ExhaustedRequeuesAreReportedFailed)
{
    std::vector<FaultEvent> evs;
    FaultEvent a;
    a.kind = FaultKind::TransferAbort;
    a.time = 5.0;
    evs.push_back(a);
    const FaultPlan plan(evs, 4, 3);

    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 6;
    cfg.faults = &plan;
    cfg.maxRequeues = 0; // the first kill is terminal
    serve::Service service(experiments::workerCluster(4), cfg,
                           experiments::quietSimConfig(), nullptr,
                           55);
    for (std::size_t i = 0; i < 4; ++i)
        service.submit(wanServeQuery(i, 4));
    const auto report = service.drain();
    EXPECT_GE(report.faultKills, 1u);
    EXPECT_GE(report.failedQueries, 1u);
    EXPECT_EQ(report.requeuedQueries, 0u);
    EXPECT_EQ(report.completed + report.failedQueries +
                  report.timedOut,
              4u);
    std::size_t flagged = 0;
    for (const auto &q : report.queries)
        if (q.killedByFault)
            ++flagged;
    EXPECT_EQ(flagged, report.failedQueries);
}

TEST(ServiceFault, BlackoutShrinksTheAdmissionCap)
{
    // A whole-horizon blackout of DC 3 with purely local queries on
    // DC 0: nothing gets killed (no WAN traffic touches DC 3), but
    // admission must throttle to ceil(4 * 0.25) = 1 slot while any
    // blackout is active.
    std::vector<FaultEvent> evs;
    FaultEvent b;
    b.kind = FaultKind::DcBlackout;
    b.dc = 3;
    b.time = 0.0;
    b.duration = 1.0e7;
    evs.push_back(b);
    const FaultPlan plan(evs, 4, 3);

    auto run = [&](const FaultPlan *faults) {
        serve::ServiceConfig cfg;
        cfg.maxConcurrent = 4;
        cfg.scheduler = serve::SchedulerKind::Locality;
        cfg.faults = faults;
        cfg.blackoutAdmissionFactor = 0.25;
        serve::Service service(experiments::workerCluster(4), cfg,
                               experiments::quietSimConfig(),
                               nullptr, 63);
        for (std::size_t i = 0; i < 4; ++i)
            service.submit(localServeQuery(i, 0, 4));
        return service.drain();
    };

    const auto dark = run(&plan);
    EXPECT_EQ(dark.completed, 4u);
    EXPECT_EQ(dark.faultKills, 0u);
    EXPECT_EQ(dark.peakConcurrent, 1u);

    const auto bright = run(nullptr);
    EXPECT_EQ(bright.completed, 4u);
    EXPECT_EQ(bright.peakConcurrent, 4u);
    EXPECT_LT(bright.makespan, dark.makespan);
}
