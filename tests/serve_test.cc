/**
 * @file
 * The serve layer's contract: flow-group hooks in the shared
 * simulator (weights, per-(group, pair) share caps, telemetry), the
 * cross-query BandwidthAllocator's weighted water-fill, the
 * share-aware fraction search (StageContext::wanShare), and the
 * resident Service loop — determinism, admission control, the
 * per-query guard, straggler re-dispatch, policy effects, and online
 * retrain publication.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "gda/scheduler.hh"
#include "ml/dataset.hh"
#include "monitor/features.hh"
#include "net/network_sim.hh"
#include "serve/allocator.hh"
#include "serve/service.hh"
#include "serve/workload.hh"
#include "workloads/tpcds.hh"

using namespace wanify;

namespace {

net::VmId
endpoint(const net::Topology &topo, net::DcId dc)
{
    return topo.dc(dc).vms.front();
}

/** Two-DC sim with no fluctuation: rate changes are policy-caused. */
net::NetworkSim
quietSim(std::size_t dcs, std::uint64_t seed = 5)
{
    return net::NetworkSim(experiments::workerCluster(dcs),
                           experiments::quietSimConfig(), seed);
}

/** A single-stage scan/aggregate query with input wholly at one DC. */
serve::QuerySpec
smallQuery(std::size_t i, std::size_t srcDc, std::size_t dcCount,
           Seconds arrival = 0.0, double weight = 1.0)
{
    serve::QuerySpec q;
    q.name = "t" + std::to_string(i);
    gda::StageSpec stage;
    stage.name = "scan-agg";
    stage.selectivity = 0.05;
    stage.workPerMb = 0.05;
    q.job.name = "small";
    q.job.stages.push_back(stage);
    q.job.inputBytes = 1.0e9;
    q.inputByDc.assign(dcCount, 0.0);
    q.inputByDc[srcDc] = q.job.inputBytes;
    q.arrival = arrival;
    q.weight = weight;
    return q;
}

/** An identical multi-DC analytics query that must shuffle. */
serve::QuerySpec
wanQuery(std::size_t i, std::size_t dcCount, double weight = 1.0)
{
    serve::QuerySpec q;
    q.name = "w" + std::to_string(i);
    q.job = workloads::tpcDsQuery(workloads::TpcDsQuery::Q95, 1.0);
    q.weight = weight;
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

/**
 * A Wanify facade with a small trained forest (production feature
 * shape, toy size) so Service planning exercises the model +
 * connection-planning path without an analyzer campaign.
 */
std::unique_ptr<core::Wanify>
tinyWanify(std::uint64_t seed = 404)
{
    Rng rng(seed);
    ml::Dataset data(monitor::kFeatureCount, 1);
    for (std::size_t s = 0; s < 400; ++s) {
        const double n = 2.0 + rng.uniformInt(0, 6);
        const double snap = rng.uniform(20.0, 2000.0);
        const double mem = rng.uniform(0.1, 0.9);
        const double cpu = rng.uniform(0.1, 0.9);
        const double retrans = rng.uniform(0.0, 0.5);
        const double dist = rng.uniform(100.0, 11000.0);
        const double target = snap * (1.1 - 0.3 * retrans) -
                              0.01 * dist + 40.0 * mem;
        data.add({n, snap, mem, cpu, retrans, dist}, target);
    }
    ml::ForestConfig fcfg;
    fcfg.nEstimators = 10;
    auto pred = std::make_shared<core::RuntimeBwPredictor>(fcfg);
    pred->train(data, seed ^ 0x9e3779b97f4a7c15ULL);
    auto w = std::make_unique<core::Wanify>();
    w->setPredictor(std::move(pred));
    return w;
}

} // namespace

// --- flow-group hooks in the shared simulator ---------------------------

TEST(FlowGroups, GroupWeightBiasesSharedBottleneckShares)
{
    auto sim = quietSim(2);
    const net::VmId a = endpoint(sim.topology(), 0);
    const net::VmId b = endpoint(sim.topology(), 1);

    // Two equal bundles on the same pair from the same endpoints:
    // without weights they split the shared bottleneck evenly.
    sim.startTransfer(a, b, 5.0e9, 8, 1);
    sim.startTransfer(a, b, 5.0e9, 8, 2);
    sim.advanceBy(0.01);
    const Mbps even1 = sim.groupRate(1);
    const Mbps even2 = sim.groupRate(2);
    ASSERT_GT(even1, 0.0);
    EXPECT_NEAR(even1 / even2, 1.0, 0.01);

    // A 3x weight on group 1 biases the max-min filling toward it.
    sim.setGroupWeight(1, 3.0);
    sim.advanceBy(0.01);
    const Mbps biased1 = sim.groupRate(1);
    const Mbps biased2 = sim.groupRate(2);
    EXPECT_GT(biased1, 1.9 * biased2);
    EXPECT_LE(biased1 / biased2, 4.0);

    // Total throughput is conserved: bias redistributes, not creates.
    EXPECT_NEAR(biased1 + biased2, even1 + even2,
                0.05 * (even1 + even2));
}

TEST(FlowGroups, GroupPairCapBindsAggregateAndClears)
{
    auto sim = quietSim(2);
    const net::VmId a = endpoint(sim.topology(), 0);
    const net::VmId b = endpoint(sim.topology(), 1);
    sim.startTransfer(a, b, 5.0e9, 8, 1);
    sim.startTransfer(a, b, 5.0e9, 8, 1); // same group: shares the cap
    sim.startTransfer(a, b, 5.0e9, 8, 2);
    sim.advanceBy(0.01);
    const Mbps uncapped = sim.groupRate(1);

    sim.setGroupPairCap(1, 0, 1, 200.0);
    sim.advanceBy(0.01);
    EXPECT_LE(sim.groupRate(1), 200.0 + 1.0);
    // The freed share flows to the other group, not into thin air.
    EXPECT_GT(sim.groupRate(2), uncapped);

    sim.clearGroupAllocations(1);
    sim.advanceBy(0.01);
    EXPECT_GT(sim.groupRate(1), 200.0 + 1.0);
    EXPECT_EQ(sim.registeredGroupCount(), 0u);
}

TEST(FlowGroups, TelemetryTracksGroupMembership)
{
    auto sim = quietSim(2);
    const net::VmId a = endpoint(sim.topology(), 0);
    const net::VmId b = endpoint(sim.topology(), 1);
    sim.startTransfer(a, b, 1.0e8, 2, 7);
    sim.startTransfer(b, a, 2.0e8, 2, 7);
    sim.startTransfer(a, b, 4.0e8, 2, 0); // ungrouped
    EXPECT_EQ(sim.groupTransferCount(7), 2u);
    EXPECT_DOUBLE_EQ(sim.groupPendingBytes(7), 3.0e8);
    EXPECT_EQ(sim.groupTransferCount(9), 0u);
    sim.runUntilAllComplete();
    EXPECT_EQ(sim.groupTransferCount(7), 0u);
    EXPECT_DOUBLE_EQ(sim.groupPendingBytes(7), 0.0);
}

// --- the cross-query allocator ------------------------------------------

TEST(Allocator, EqualElasticClaimsSplitEvenly)
{
    auto sim = quietSim(2);
    const std::size_t pair = sim.topology().pairIndex(0, 1);
    serve::BandwidthAllocator alloc(serve::AllocPolicy::MaxMinFair);
    std::vector<serve::QueryDemand> demands{
        {1, 1.0, {{pair, 0.0}}},
        {2, 4.0, {{pair, 0.0}}}, // weight ignored under maxmin
    };
    const auto a = alloc.allocate(sim, demands);
    EXPECT_EQ(a.cappedPairs, 1u);
    EXPECT_EQ(a.installedCaps, 2u);
    EXPECT_NEAR(a.planningShare.at(1), 0.5, 1e-9);
    EXPECT_NEAR(a.planningShare.at(2), 0.5, 1e-9);
}

TEST(Allocator, WeightedPolicySplitsByWeight)
{
    auto sim = quietSim(2);
    const std::size_t pair = sim.topology().pairIndex(0, 1);
    serve::BandwidthAllocator alloc(
        serve::AllocPolicy::WeightedPriority);
    std::vector<serve::QueryDemand> demands{
        {1, 3.0, {{pair, 0.0}}},
        {2, 1.0, {{pair, 0.0}}},
    };
    const auto a = alloc.allocate(sim, demands);
    EXPECT_NEAR(a.planningShare.at(1), 0.75, 1e-9);
    EXPECT_NEAR(a.planningShare.at(2), 0.25, 1e-9);
}

TEST(Allocator, FiniteDemandFreezesAndReleasesRemainder)
{
    auto sim = quietSim(2);
    const std::size_t pair = sim.topology().pairIndex(0, 1);
    const Mbps cap = sim.effectivePathCap(0, 1);
    serve::BandwidthAllocator alloc(serve::AllocPolicy::MaxMinFair);
    // Group 1 only wants a tenth of the pair; the elastic group 2
    // absorbs everything group 1 released.
    std::vector<serve::QueryDemand> demands{
        {1, 1.0, {{pair, 0.1 * cap}}},
        {2, 1.0, {{pair, 0.0}}},
    };
    const auto a = alloc.allocate(sim, demands);
    EXPECT_NEAR(a.planningShare.at(1), 0.1, 1e-9);
    EXPECT_NEAR(a.planningShare.at(2), 0.9, 1e-9);
}

TEST(Allocator, SoleDemanderKeepsWholeLink)
{
    auto sim = quietSim(3);
    serve::BandwidthAllocator alloc(serve::AllocPolicy::MaxMinFair);
    // Two queries on disjoint pairs: no contention, no caps.
    std::vector<serve::QueryDemand> demands{
        {1, 1.0, {{sim.topology().pairIndex(0, 1), 0.0}}},
        {2, 1.0, {{sim.topology().pairIndex(0, 2), 0.0}}},
    };
    const auto a = alloc.allocate(sim, demands);
    EXPECT_EQ(a.cappedPairs, 0u);
    EXPECT_EQ(a.installedCaps, 0u);
    EXPECT_NEAR(a.planningShare.at(1), 1.0, 1e-9);
    EXPECT_NEAR(a.planningShare.at(2), 1.0, 1e-9);
}

TEST(Allocator, StaleCapsRetireWhenContentionEnds)
{
    auto sim = quietSim(2);
    const net::VmId a = endpoint(sim.topology(), 0);
    const net::VmId b = endpoint(sim.topology(), 1);
    sim.startTransfer(a, b, 5.0e9, 8, 1);
    const net::TransferId other = sim.startTransfer(a, b, 5.0e9, 8, 2);
    const std::size_t pair = sim.topology().pairIndex(0, 1);
    serve::BandwidthAllocator alloc(serve::AllocPolicy::MaxMinFair);
    std::vector<serve::QueryDemand> both{
        {1, 1.0, {{pair, 0.0}}},
        {2, 1.0, {{pair, 0.0}}},
    };
    alloc.allocate(sim, both);
    sim.advanceBy(0.01);
    const Mbps capped = sim.groupRate(1);

    // Group 2 finishes and leaves the pair: the next round must lift
    // group 1's half-link cap so it can fill the idle half.
    sim.stopTransfer(other);
    std::vector<serve::QueryDemand> solo{{1, 1.0, {{pair, 0.0}}}};
    const auto round2 = alloc.allocate(sim, solo);
    EXPECT_EQ(round2.cappedPairs, 0u);
    sim.advanceBy(0.01);
    EXPECT_GT(sim.groupRate(1), 1.2 * capped);
}

TEST(Allocator, RejectsMalformedDemands)
{
    auto sim = quietSim(2);
    const std::size_t pair = sim.topology().pairIndex(0, 1);
    serve::BandwidthAllocator alloc(serve::AllocPolicy::MaxMinFair);
    std::vector<serve::QueryDemand> unsorted{
        {2, 1.0, {{pair, 0.0}}},
        {1, 1.0, {{pair, 0.0}}},
    };
    EXPECT_THROW(alloc.allocate(sim, unsorted), PanicError);
    std::vector<serve::QueryDemand> reserved{
        {0, 1.0, {{pair, 0.0}}}};
    EXPECT_THROW(alloc.allocate(sim, reserved), FatalError);
}

// --- share-aware planning ------------------------------------------------

TEST(Scheduler, WanShareScalesEstimatedStageTime)
{
    const auto topo = experiments::workerCluster(4);
    // A compute-free shuffle stage, so the estimate is purely
    // WAN-bound and the share's effect is exact.
    gda::JobSpec job;
    job.name = "shuffle-only";
    gda::StageSpec stage;
    stage.name = "shuffle";
    stage.selectivity = 1.0;
    stage.workPerMb = 0.0;
    job.stages.push_back(stage);
    job.inputBytes = 2.0e9;
    std::vector<Bytes> input(4, job.inputBytes / 4.0);
    const auto bw = Matrix<Mbps>::square(4, 500.0);
    gda::QueryExecution exec(topo, job, input);
    auto ctx = exec.context(input, bw);

    // A deliberately shuffling assignment: everything to DC 0.
    auto assignment = Matrix<Bytes>::square(4, 0.0);
    for (std::size_t i = 0; i < 4; ++i)
        assignment.at(i, 0) = input[i];

    const Seconds whole = gda::estimateStageTime(ctx, assignment);
    ctx.wanShare = 0.25;
    const Seconds quarter = gda::estimateStageTime(ctx, assignment);
    // A quarter of every link makes the WAN-bound stage 4x slower.
    EXPECT_NEAR(quarter, 4.0 * whole, 0.05 * quarter);

    ctx.wanShare = 0.0;
    EXPECT_THROW(gda::estimateStageTime(ctx, assignment), FatalError);
    ctx.wanShare = 1.5;
    EXPECT_THROW(gda::estimateStageTime(ctx, assignment), FatalError);
}

// --- the resident service ------------------------------------------------

TEST(Service, DrainReproducesBitIdenticalReports)
{
    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 4;
    auto run = [&] {
        serve::Service service(experiments::workerCluster(4), cfg,
                               experiments::defaultSimConfig(),
                               nullptr, 33);
        for (std::size_t i = 0; i < 10; ++i)
            service.submit(smallQuery(i, i % 4, 4,
                                      static_cast<Seconds>(i)));
        return service.drain();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.resultHash, b.resultHash);
    EXPECT_EQ(a.completed, 10u);
    EXPECT_EQ(a.timedOut, 0u);
    EXPECT_GT(a.makespan, 0.0);
}

TEST(Service, AdmissionCapQueuesExcessQueries)
{
    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 2;
    serve::Service service(experiments::workerCluster(4), cfg,
                           experiments::quietSimConfig(), nullptr,
                           11);
    for (std::size_t i = 0; i < 6; ++i)
        service.submit(smallQuery(i, i % 4, 4, 0.0));
    const auto report = service.drain();
    EXPECT_EQ(report.completed, 6u);
    EXPECT_EQ(report.peakConcurrent, 2u);
    EXPECT_GE(report.queuedAdmissions, 4u);
    // Queued queries observed a real admission delay.
    Seconds maxWait = 0.0;
    for (const auto &q : report.queries)
        maxWait = std::max(maxWait, q.queueWait);
    EXPECT_GT(maxWait, 0.0);
}

TEST(Service, PerQueryGuardTimesOutInfeasibleQueries)
{
    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 4;
    cfg.maxQuerySeconds = 2.0; // far below any real completion
    serve::Service service(experiments::workerCluster(4), cfg,
                           experiments::quietSimConfig(), nullptr,
                           21);
    for (std::size_t i = 0; i < 4; ++i)
        service.submit(smallQuery(i, i % 4, 4, 0.0));
    const auto report = service.drain();
    EXPECT_EQ(report.completed, 0u);
    EXPECT_EQ(report.timedOut, 4u);
    for (const auto &q : report.queries)
        EXPECT_TRUE(q.timedOut);
}

TEST(Service, StragglerRedispatchFiresAndStaysDeterministic)
{
    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 6;
    // A tiny budget factor declares every epoch-spanning transfer a
    // straggler: the re-dispatch path itself must stay deterministic
    // and must not lose bytes.
    cfg.stragglerFactor = 0.01;
    auto run = [&] {
        serve::Service service(experiments::workerCluster(4), cfg,
                               experiments::quietSimConfig(),
                               nullptr, 55);
        for (std::size_t i = 0; i < 6; ++i)
            service.submit(wanQuery(i, 4));
        return service.drain();
    };
    const auto a = run();
    EXPECT_GT(a.redispatches, 0u);
    EXPECT_EQ(a.completed + a.timedOut, 6u);
    const auto b = run();
    EXPECT_EQ(a.resultHash, b.resultHash);
}

TEST(Service, MaxRedispatchesBoundsRepeatStragglers)
{
    // A budget factor this tiny declares a transfer straggling at
    // every epoch check, so the re-dispatch count is bounded only by
    // maxRedispatches. The default (1) preserves the historical
    // once-per-transfer behavior; raising it re-sends a still-slow
    // transfer again; 0 disables the path entirely.
    auto run = [&](std::size_t cap) {
        serve::ServiceConfig cfg;
        cfg.maxConcurrent = 6;
        cfg.stragglerFactor = 0.01;
        cfg.maxRedispatches = cap;
        serve::Service service(experiments::workerCluster(4), cfg,
                               experiments::quietSimConfig(),
                               nullptr, 55);
        for (std::size_t i = 0; i < 6; ++i)
            service.submit(wanQuery(i, 4));
        return service.drain();
    };
    const auto off = run(0);
    const auto once = run(1);
    const auto twice = run(2);
    EXPECT_EQ(off.redispatches, 0u);
    EXPECT_GT(once.redispatches, 0u);
    // Per-transfer cap of 2: some transfer that straggled after its
    // first re-dispatch is re-sent a second time.
    EXPECT_GT(twice.redispatches, once.redispatches);
    EXPECT_EQ(off.completed + off.timedOut, 6u);
    EXPECT_EQ(twice.completed + twice.timedOut, 6u);
    // Each arm stays bit-deterministic.
    EXPECT_EQ(run(2).resultHash, twice.resultHash);
}

TEST(Service, WeightedPolicyRaisesPriorityPlanningShare)
{
    const auto wanify = tinyWanify();
    auto run = [&](serve::AllocPolicy policy) {
        serve::ServiceConfig cfg;
        cfg.policy = policy;
        cfg.maxConcurrent = 6;
        serve::Service service(experiments::workerCluster(4), cfg,
                               experiments::quietSimConfig(),
                               wanify.get(), 77);
        for (std::size_t i = 0; i < 6; ++i)
            service.submit(wanQuery(i, 4, i % 2 == 0 ? 4.0 : 1.0));
        return service.drain();
    };
    const auto maxmin = run(serve::AllocPolicy::MaxMinFair);
    const auto weighted = run(serve::AllocPolicy::WeightedPriority);

    // Under maxmin, weights are ignored: every query plans with the
    // same worst-case share. Under the weighted policy the priority
    // class plans (and is enforced) with a larger share.
    EXPECT_NEAR(maxmin.queries[0].minPlanningShare,
                maxmin.queries[1].minPlanningShare, 1e-9);
    EXPECT_GT(weighted.queries[0].minPlanningShare,
              1.5 * weighted.queries[1].minPlanningShare);
    EXPECT_NE(maxmin.resultHash, weighted.resultHash);
}

TEST(Service, RetrainRepublishesSharedPredictor)
{
    const auto wanify = tinyWanify();
    const auto before = wanify->predictorSnapshot();
    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 3;
    cfg.retrainEveryCompleted = 2;
    serve::Service service(experiments::workerCluster(4), cfg,
                           experiments::quietSimConfig(),
                           wanify.get(), 91);
    for (std::size_t i = 0; i < 5; ++i)
        service.submit(smallQuery(i, i % 4, 4, 0.0));
    const auto report = service.drain();
    EXPECT_EQ(report.completed, 5u);
    EXPECT_GE(report.retrainsPublished, 1u);
    // The facade now serves a different (warm-started) model, so
    // queries admitted after the publish pin fresher trees.
    EXPECT_NE(wanify->predictorSnapshot().get(), before.get());
}

TEST(Service, AprioriShareIgnoresComputeBoundPeers)
{
    // Three compute-heavy local queries admitted at t = 0 are deep in
    // their compute phase when a fourth query arrives: they occupy no
    // WAN, so the a-priori share lets the newcomer plan with the whole
    // mesh instead of dividing by every active query.
    serve::ServiceConfig cfg;
    cfg.maxConcurrent = 8;
    cfg.scheduler = serve::SchedulerKind::Locality;
    serve::Service service(experiments::workerCluster(4), cfg,
                           experiments::quietSimConfig(), nullptr, 63);
    for (std::size_t i = 0; i < 3; ++i) {
        auto heavy = smallQuery(i, i, 4, 0.0);
        heavy.job.stages[0].workPerMb = 5.0;
        service.submit(heavy);
    }
    service.submit(smallQuery(3, 3, 4, 10.0));
    const auto report = service.drain();
    ASSERT_EQ(report.completed, 4u);

    // Co-planning cohort of three at t = 0.
    EXPECT_NEAR(report.queries[0].minPlanningShare, 1.0 / 3.0, 1e-9);
    // The late query plans alone against an idle mesh.
    EXPECT_NEAR(report.queries[3].minPlanningShare, 1.0, 1e-9);
}

TEST(Service, ForecastAdmissionHoldsThroughTheTrough)
{
    // An all-pairs maintenance window over [0, 60): the mesh mean sits
    // at 0.3 of nominal while the forecast sees full recovery inside
    // the horizon, so admission is deferred to the window's end —
    // and without forecast admission the same query starts at t = 0.
    scenario::ScenarioSpec spec;
    spec.name = "trough";
    scenario::ScenarioEvent ev;
    ev.kind = scenario::EventKind::Maintenance;
    ev.start = 0.0;
    ev.duration = 60.0;
    ev.magnitude = 0.7;
    spec.events.push_back(ev);
    const scenario::ScenarioTimeline timeline(spec, 4, 7);

    auto run = [&](bool holdOn) {
        serve::ServiceConfig cfg;
        cfg.maxConcurrent = 4;
        cfg.dynamics = &timeline;
        cfg.forecast.enabled = true;
        cfg.forecast.horizon = 120.0;
        cfg.forecast.step = 5.0;
        cfg.forecastAdmission = holdOn;
        serve::Service service(experiments::workerCluster(4), cfg,
                               experiments::quietSimConfig(),
                               nullptr, 29);
        service.submit(smallQuery(0, 0, 4, 0.0));
        return service.drain();
    };

    const auto held = run(true);
    ASSERT_EQ(held.completed, 1u);
    EXPECT_EQ(held.forecastHeldAdmissions, 1u);
    // Admitted at the recovery, not at arrival — and the hold is
    // bounded by maxAdmissionHold (120 s) on top of the window.
    EXPECT_GE(held.queries[0].admitted, 55.0);
    EXPECT_LE(held.queries[0].admitted, 65.0);

    const auto eager = run(false);
    ASSERT_EQ(eager.completed, 1u);
    EXPECT_EQ(eager.forecastHeldAdmissions, 0u);
    EXPECT_LE(eager.queries[0].admitted, 1.5);

    // The hold path stays deterministic.
    const auto again = run(true);
    EXPECT_EQ(held.resultHash, again.resultHash);
    EXPECT_DOUBLE_EQ(held.queries[0].admitted,
                     again.queries[0].admitted);
}

TEST(Service, ForecastAdmissionHoldExpiresIntoCoolOff)
{
    // A trough longer than maxAdmissionHold: the forecast still sees
    // recovery inside the horizon, so a hold begins at arrival, but
    // it is capped at maxAdmissionHold and the following cool-off
    // admits the query mid-trough — bounded delay, not starvation.
    scenario::ScenarioSpec spec;
    spec.name = "long-trough";
    scenario::ScenarioEvent ev;
    ev.kind = scenario::EventKind::Maintenance;
    ev.start = 0.0;
    ev.duration = 100.0;
    ev.magnitude = 0.7;
    spec.events.push_back(ev);
    const scenario::ScenarioTimeline timeline(spec, 4, 7);

    auto run = [&] {
        serve::ServiceConfig cfg;
        cfg.maxConcurrent = 4;
        cfg.dynamics = &timeline;
        cfg.forecast.enabled = true;
        cfg.forecast.horizon = 120.0;
        cfg.forecast.step = 5.0;
        cfg.forecastAdmission = true;
        cfg.maxAdmissionHold = 20.0;
        serve::Service service(experiments::workerCluster(4), cfg,
                               experiments::quietSimConfig(),
                               nullptr, 29);
        service.submit(smallQuery(0, 0, 4, 0.0));
        return service.drain();
    };

    const auto report = run();
    ASSERT_EQ(report.completed, 1u);
    EXPECT_EQ(report.forecastHeldAdmissions, 1u);
    // Admitted when the hold expires — well before the trough's end
    // at t = 100 — and not re-held thanks to the cool-off.
    EXPECT_GE(report.queries[0].admitted, 18.0);
    EXPECT_LE(report.queries[0].admitted, 60.0);

    const auto again = run();
    EXPECT_EQ(report.resultHash, again.resultHash);
    EXPECT_DOUBLE_EQ(report.queries[0].admitted,
                     again.queries[0].admitted);
}

TEST(Workload, MixedWorkloadIsDeterministicAndShaped)
{
    serve::WorkloadConfig cfg;
    cfg.queries = 40;
    const auto a = serve::mixedWorkload(cfg, 8, 13);
    const auto b = serve::mixedWorkload(cfg, 8, 13);
    ASSERT_EQ(a.size(), 40u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].weight, b[i].weight);
        EXPECT_LE(a[i].arrival, cfg.arrivalWindow);
        const double total = std::accumulate(
            a[i].inputByDc.begin(), a[i].inputByDc.end(), 0.0);
        EXPECT_NEAR(total, a[i].job.inputBytes,
                    1e-6 * a[i].job.inputBytes);
    }
}
