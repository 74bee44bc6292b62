/**
 * @file
 * Bit-exact goldens for the two per-query drivers, gda::Engine::run and
 * serve::Service::drain. Every expected value is the hex-float (%a)
 * rendering of the recorded result, so a change to stage execution
 * that moves any bit of a virtual-time outcome fails here, and the
 * failure message prints the new value in the same form.
 *
 * - Engine: skewed TeraSort under WANify-TC + Tetrium with
 *   drift-adaptive retraining and forecast planning, once under the
 *   library fault-storm scenario (transfer aborts, a gauge outage, an
 *   agent crash) and once under blackout (a hard DC blackout). The
 *   recovery counters, each stage's timeline and traffic, every pair's
 *   billed bytes and the drift, retrain-error and degradation-ladder
 *   telemetry are pinned too, and each run is checked to have actually
 *   taken the paths it is meant to lock.
 * - Service: the result hash of a straggler-heavy drain (re-dispatch
 *   fires) and of a drain under fault-storm (kill and requeue fire).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/wanify.hh"
#include "experiments/predictor_factory.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "scenario/library.hh"
#include "scenario/scenario.hh"
#include "sched/tetrium.hh"
#include "serve/service.hh"
#include "serve/workload.hh"
#include "storage/hdfs.hh"
#include "workloads/terasort.hh"

using namespace wanify;

namespace {

std::string
hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** WANify-TC with a drift detector sized for a 4-DC mesh and tuned
 *  sensitive enough that even fault-storm's mild diurnal swing
 *  triggers retrains (and, inside its gauge outage, the ladder). */
core::WanifyConfig
driftConfig()
{
    core::WanifyConfig cfg;
    cfg.drift.windowSize = 24;
    cfg.drift.minObservations = 12;
    cfg.drift.retrainFraction = 0.1;
    cfg.drift.significantError = 20.0;
    return cfg;
}

/** Skewed 120 GB TeraSort on 4 DCs under library @p scenario. */
gda::QueryResult
runEngineGolden(const std::string &scenario)
{
    const std::size_t n = 4;
    const scenario::ScenarioTimeline timeline(
        scenario::libraryScenario(scenario), n, 424242);
    core::Wanify wanify(driftConfig());
    wanify.setPredictor(experiments::sharedPredictor());

    const auto topo = experiments::workerCluster(n, 2);
    const auto job = workloads::teraSort(120.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadSkewed(job.inputBytes, {0.55, 0.25, 0.15, 0.05});
    sched::TetriumScheduler tetrium;

    gda::Engine engine(topo, experiments::defaultSimConfig(), 2024);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(n, 500.0);
    opts.wanify = &wanify;
    opts.dynamics = &timeline;
    opts.adaptOnDrift = true;
    opts.forecast.enabled = true;
    opts.forecast.horizon = 120.0;
    opts.forecast.step = 5.0;
    opts.clock = gda::ClockMode::EventDriven;
    // Two send attempts: fault-storm's second abort exhausts a
    // transfer's budget and exercises the residual replan.
    opts.retry.maxAttempts = 2;
    return engine.run(job, hdfs.distribution(), tetrium, opts);
}

Bytes
totalWanBytes(const gda::QueryResult &r)
{
    Bytes sum = 0.0;
    for (std::size_t i = 0; i < r.wanBytesByPair.rows(); ++i)
        for (std::size_t j = 0; j < r.wanBytesByPair.cols(); ++j)
            sum += r.wanBytesByPair.at(i, j);
    return sum;
}

/** One stage's recorded timeline and traffic. */
struct StageGolden
{
    const char *start;
    const char *transferEnd;
    const char *end;
    const char *wanBytes;
    const char *minPairBw;
};

/** The recorded outcome of one engine golden run. */
struct EngineGolden
{
    const char *latency;
    const char *cost;
    const char *minObservedBw;
    const char *wanBytes;
    const char *lostBytes;
    const char *backoffSeconds;
    std::size_t faultsInjected;
    std::size_t transferAborts;
    std::size_t transferRetries;
    std::size_t faultReplans;
    std::size_t gaugeFaults;
    std::size_t predictorModeSwitches;
    std::size_t agentCrashes;
    std::size_t blackouts;
    std::size_t retrainTriggers;
    std::size_t retrainsApplied;
    const char *preRetrainError;
    const char *postRetrainError;
    const char *driftErrorFraction;
    std::size_t driftObservations;
    std::size_t trendPlans;
    std::size_t staticPlans;
    int worstPredictorMode;
    std::vector<StageGolden> stages;
    /** wanBytesByPair, row-major. */
    std::vector<const char *> wanBytesByPair;
};

void
expectEngineGolden(const gda::QueryResult &r, const EngineGolden &g)
{
    EXPECT_EQ(hex(r.latency), g.latency);
    EXPECT_EQ(hex(r.cost.total()), g.cost);
    EXPECT_EQ(hex(r.minObservedBw), g.minObservedBw);
    EXPECT_EQ(hex(totalWanBytes(r)), g.wanBytes);
    EXPECT_EQ(hex(r.lostBytes), g.lostBytes);
    EXPECT_EQ(hex(r.backoffSeconds), g.backoffSeconds);
    EXPECT_EQ(r.faultsInjected, g.faultsInjected);
    EXPECT_EQ(r.transferAborts, g.transferAborts);
    EXPECT_EQ(r.transferRetries, g.transferRetries);
    EXPECT_EQ(r.faultReplans, g.faultReplans);
    EXPECT_EQ(r.gaugeFaults, g.gaugeFaults);
    EXPECT_EQ(r.predictorModeSwitches, g.predictorModeSwitches);
    EXPECT_EQ(r.agentCrashes, g.agentCrashes);
    EXPECT_EQ(r.blackouts, g.blackouts);
    EXPECT_EQ(r.retrainTriggers, g.retrainTriggers);
    EXPECT_EQ(r.retrainsApplied, g.retrainsApplied);
    EXPECT_EQ(r.retrainLatencies.size(), g.retrainsApplied);
    EXPECT_EQ(hex(r.preRetrainError), g.preRetrainError);
    EXPECT_EQ(hex(r.postRetrainError), g.postRetrainError);
    EXPECT_EQ(hex(r.driftErrorFraction), g.driftErrorFraction);
    EXPECT_EQ(r.driftObservations, g.driftObservations);
    EXPECT_EQ(r.trendPlans, g.trendPlans);
    EXPECT_EQ(r.staticPlans, g.staticPlans);
    EXPECT_EQ(r.worstPredictorMode, g.worstPredictorMode);

    ASSERT_EQ(r.stages.size(), g.stages.size());
    for (std::size_t s = 0; s < g.stages.size(); ++s) {
        SCOPED_TRACE("stage " + std::to_string(s));
        const gda::StageResult &got = r.stages[s];
        const StageGolden &want = g.stages[s];
        EXPECT_EQ(hex(got.start), want.start);
        EXPECT_EQ(hex(got.transferEnd), want.transferEnd);
        EXPECT_EQ(hex(got.end), want.end);
        EXPECT_EQ(hex(got.wanBytes), want.wanBytes);
        EXPECT_EQ(hex(got.minPairBw), want.minPairBw);
    }

    const std::size_t n = r.wanBytesByPair.rows();
    ASSERT_EQ(n * r.wanBytesByPair.cols(), g.wanBytesByPair.size());
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(hex(r.wanBytesByPair.at(i, j)),
                      g.wanBytesByPair[i * n + j])
                << "pair " << i << " -> " << j;
}

/** A 4-DC service draining mixedWorkload's seed-@p mixSeed mix. */
serve::ServiceReport
drainServeGolden(const serve::ServiceConfig &cfg,
                 const core::Wanify &wanify, std::uint64_t mixSeed)
{
    serve::WorkloadConfig wl;
    wl.queries = 16;
    wl.heavyFraction = 0.25;
    wl.heavyInputGb = 8.0;
    wl.arrivalWindow = 40.0;
    serve::Service service(experiments::workerCluster(4), cfg,
                           experiments::defaultSimConfig(), &wanify,
                           77);
    for (serve::QuerySpec &q : serve::mixedWorkload(wl, 4, mixSeed))
        service.submit(std::move(q));
    return service.drain();
}

} // namespace

TEST(EngineGolden, FaultStorm)
{
    const auto r = runEngineGolden("fault-storm");
    // The run must exercise what the golden is meant to lock.
    EXPECT_GE(r.transferRetries, 1u);
    EXPECT_GE(r.faultReplans, 1u);
    EXPECT_GE(r.gaugeFaults, 1u);
    EXPECT_GE(r.trendPlans, 1u);
    EXPECT_GE(r.agentCrashes, 1u);
    EXPECT_GE(r.retrainsApplied, 1u);
    expectEngineGolden(r, {"0x1.2a50fcfb1952dp+11", "0x1.011c8319dababp+3",
                           "0x1.6f2fc7889a707p+2", "0x1.304dc7ed4e229p+37",
                           "0x1.d0d74b2dbf8f6p+34", "0x1.7dea02286881cp+2",
                           4, 4, 3, 1, 2, 2, 1, 0, 10, 8,
                           "0x1.37466d9c66ef8p+6", "0x1.2409a913b2556p+6",
                           "0x1p-1", 1488, 2, 0, 1,
                           {{"0x1p+0", "0x1.7e37b097297p+8",
                             "0x1.8f180af97d75p+9", "0x1.39d23554382d6p+36",
                             "0x1.6f2fc7889a707p+2"},
                            {"0x1.8f180af97d75p+9", "0x1.1ccff85f7f434p+10",
                             "0x1.2a70fcfb1952dp+11",
                             "0x1.26c95a866417cp+36",
                             "0x1.b2ff1fd0d0ccbp+2"}},
                           {"0x0p+0", "0x1.3c02e8d676316p+34",
                            "0x1.3202aa1b26396p+34", "0x1.fdd200e810391p+33",
                            "0x1.cfe889c3eadf9p+33", "0x0p+0",
                            "0x1.bd8e268b04eebp+33", "0x1.bd38dcc8338ap+33",
                            "0x1.6b59d7da5d25ep+33", "0x1.6b59d7da5d264p+33",
                            "0x0p+0", "0x1.6b59d7da5d24ap+33",
                            "0x1.a7382ba0e44f7p+32", "0x1.ae2623b912243p+32",
                            "0x1.e726376cc62dcp+32", "0x0p+0"}});
}

TEST(EngineGolden, Blackout)
{
    const auto r = runEngineGolden("blackout");
    EXPECT_GE(r.blackouts, 1u);
    EXPECT_GE(r.transferRetries, 1u);
    EXPECT_GE(r.retrainsApplied, 1u);
    expectEngineGolden(r, {"0x1.83ce855958098p+11", "0x1.db882d54dc78p+2",
                           "0x1.df54e24f38f3ep-2", "0x1.3941dbb5a9bb7p+37",
                           "0x1.34fd0500987e8p+30", "0x1.5p+8", 1, 2, 2,
                           0, 0, 0, 0, 1, 2, 2, "0x1.5b0491ebe0159p+7",
                           "0x1.3081a30ff31fap+7", "0x1p-2", 3240, 0, 0, 0,
                           {{"0x1p+0", "0x1.3a6f59c99408cp+8",
                             "0x1.0f3c8f1a70ab7p+10",
                             "0x1.ff6dd53d0d52ep+35",
                             "0x1.df54e24f38f3ep-2"},
                            {"0x1.0f3c8f1a70ab7p+10",
                             "0x1.0d4695bba5dc7p+11",
                             "0x1.83ee855958098p+11",
                             "0x1.72ccccccccccfp+36",
                             "0x1.d92338e88d039p+6"}},
                           {"0x0p+0", "0x1.b8cd77a6d762fp+34",
                            "0x1.99e8e8e14bc0fp+34", "0x1.22f0620848a2p+34",
                            "0x1.2622d66a7e44bp+34", "0x0p+0",
                            "0x1.d0f3dd89958b9p+33", "0x1.3e167cec4a8fcp+33",
                            "0x1.7b8afc95f6b92p+33", "0x1.7899b86323e68p+33",
                            "0x0p+0", "0x1.ec6e766994eefp+32",
                            "0x1.01daff19dd089p+32", "0x1.c46d7e6827d7p+31",
                            "0x1.c46d7e6827d6dp+31", "0x0p+0"}});
}

TEST(ServeGolden, StragglerHeavyDrain)
{
    core::Wanify wanify(driftConfig());
    wanify.setPredictor(experiments::sharedPredictor());
    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 8;
    cfg.policy = serve::AllocPolicy::WeightedPriority;
    cfg.stragglerFactor = 1.0;
    cfg.maxRedispatches = 2;
    const auto rep = drainServeGolden(cfg, wanify, 31);
    EXPECT_GE(rep.redispatches, 1u);
    EXPECT_EQ(rep.completed, 16u);
    EXPECT_EQ(hex(rep.resultHash), "0x38e9fe150fe1b168");
}

TEST(ServeGolden, FaultStormKillsAndRequeues)
{
    const scenario::ScenarioTimeline timeline(
        scenario::libraryScenario("fault-storm"), 4, 424242);
    core::Wanify wanify(driftConfig());
    wanify.setPredictor(experiments::sharedPredictor());
    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 8;
    cfg.dynamics = &timeline;
    cfg.forecast.enabled = true;
    cfg.forecast.horizon = 120.0;
    cfg.forecast.step = 5.0;
    cfg.retrainEveryCompleted = 4;
    const auto rep = drainServeGolden(cfg, wanify, 32);
    EXPECT_GE(rep.faultKills, 1u);
    EXPECT_GE(rep.requeuedQueries, 1u);
    EXPECT_EQ(hex(rep.resultHash), "0x4595c2765289826a");
}
