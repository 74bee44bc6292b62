/**
 * @file
 * Tests for the event-driven dynamics clock: the EventClock's
 * deterministic (time, kind, seq) pop order, the engine's parity
 * contract (waking at change points that land on the epoch tick grid
 * is an idempotent no-op, so such a run is bit-identical to one whose
 * dynamics report no change points at all), and the sub-epoch
 * semantics the wake-ups add — a flash crowd opening mid-compute and
 * expiring mid-shuffle changes delivery exactly as hand-computed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "gda/event_clock.hh"
#include "scenario/library.hh"
#include "scenario/scenario.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::experiments;
using test::whatOf;
using gda::ClockEvent;
using gda::ClockEventKind;
using gda::EventClock;

namespace {

/** Spreads every DC's input uniformly over all DCs — every ordered
 *  pair carries shuffle traffic, the densest mesh a placement can
 *  produce. */
class SpreadScheduler : public gda::Scheduler
{
  public:
    std::string name() const override { return "spread"; }

    Matrix<Bytes>
    placeStage(const gda::StageContext &ctx) override
    {
        const std::size_t n = ctx.topo->dcCount();
        Matrix<Bytes> a = Matrix<Bytes>::square(n, 0.0);
        for (net::DcId i = 0; i < n; ++i)
            for (net::DcId j = 0; j < n; ++j)
                a.at(i, j) =
                    ctx.inputByDc[i] / static_cast<double>(n);
        return a;
    }
};

/** Stage 0 keeps data in place; later stages route everything to
 *  DC 1 — a two-stage job whose only WAN transfer is (0, 1). */
class RouteToOneScheduler : public gda::Scheduler
{
  public:
    std::string name() const override { return "route-to-one"; }

    Matrix<Bytes>
    placeStage(const gda::StageContext &ctx) override
    {
        const std::size_t n = ctx.topo->dcCount();
        Matrix<Bytes> a = Matrix<Bytes>::square(n, 0.0);
        for (net::DcId i = 0; i < n; ++i)
            a.at(i, ctx.stageIndex == 0 ? i : 1) = ctx.inputByDc[i];
        return a;
    }
};

/** Dynamics consisting of exactly one flash-crowd burst: no factor
 *  windows, just a background flow with hard start/end instants. */
class OneBurst : public scenario::Dynamics
{
  public:
    explicit OneBurst(scenario::BurstFlow flow) : flow_(flow) {}

    std::size_t dcCount() const override { return 0; }

    void applyAt(net::NetworkSim &, Seconds) const override {}

    std::vector<scenario::BurstFlow>
    burstsIn(Seconds t0, Seconds t1) const override
    {
        if (flow_.start > t0 && flow_.start <= t1)
            return {flow_};
        return {};
    }

    void
    changePointsIn(Seconds t0, Seconds t1,
                   std::vector<scenario::ChangePoint> &out)
        const override
    {
        if (flow_.start > t0 && flow_.start <= t1)
            out.push_back(
                {flow_.start, scenario::ChangeKind::BurstStart});
        const Seconds end = flow_.start + flow_.duration;
        if (end > t0 && end <= t1)
            out.push_back({end, scenario::ChangeKind::BurstEnd});
    }

  private:
    scenario::BurstFlow flow_;
};

/**
 * Forwards everything of @p inner except its change points, so the
 * engine only wakes on epoch ticks and applies conditions at whatever
 * tick follows a change — the per-epoch advance the event clock
 * replaced.
 */
class EdgeBlind : public scenario::Dynamics
{
  public:
    explicit EdgeBlind(const scenario::Dynamics &inner) : inner_(inner)
    {}

    std::size_t dcCount() const override { return inner_.dcCount(); }

    void
    applyAt(net::NetworkSim &sim, Seconds t) const override
    {
        inner_.applyAt(sim, t);
    }

    double
    capFactorAt(net::DcId i, net::DcId j, Seconds t) const override
    {
        return inner_.capFactorAt(i, j, t);
    }

    std::vector<scenario::BurstFlow>
    burstsIn(Seconds t0, Seconds t1) const override
    {
        return inner_.burstsIn(t0, t1);
    }

    const fault::FaultPlan *
    faultPlan() const override
    {
        return inner_.faultPlan();
    }

  private:
    const scenario::Dynamics &inner_;
};

/** Bitwise comparison of two engine results (gtest EXPECT_EQ on
 *  doubles is exact ==). */
void
expectIdenticalResults(const gda::QueryResult &a,
                       const gda::QueryResult &b)
{
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.cost.total(), b.cost.total());
    EXPECT_EQ(a.minObservedBw, b.minObservedBw);
    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (std::size_t s = 0; s < a.stages.size(); ++s) {
        EXPECT_EQ(a.stages[s].start, b.stages[s].start);
        EXPECT_EQ(a.stages[s].transferEnd, b.stages[s].transferEnd);
        EXPECT_EQ(a.stages[s].end, b.stages[s].end);
        EXPECT_EQ(a.stages[s].wanBytes, b.stages[s].wanBytes);
        EXPECT_EQ(a.stages[s].minPairBw, b.stages[s].minPairBw);
    }
    const std::size_t n = a.wanBytesByPair.rows();
    ASSERT_EQ(b.wanBytesByPair.rows(), n);
    for (net::DcId i = 0; i < n; ++i)
        for (net::DcId j = 0; j < n; ++j)
            EXPECT_EQ(a.wanBytesByPair.at(i, j),
                      b.wanBytesByPair.at(i, j))
                << "pair " << i << "->" << j;
}

} // namespace

// ---- EventClock ------------------------------------------------------------

TEST(EventClock, PopsByTimeFirst)
{
    EventClock clock;
    clock.push(3.0, ClockEventKind::EpochTick);
    clock.push(1.0, ClockEventKind::BurstEdge);
    clock.push(2.0, ClockEventKind::StageGuard);
    EXPECT_EQ(clock.size(), 3u);
    EXPECT_EQ(clock.pop().time, 1.0);
    EXPECT_EQ(clock.pop().time, 2.0);
    EXPECT_EQ(clock.pop().time, 3.0);
    EXPECT_TRUE(clock.empty());
}

TEST(EventClock, SameTimeCollisionsPopInKindThenSeqOrder)
{
    // Collision-heavy: every kind lands on the same instant, pushed
    // in scrambled order and with same-kind duplicates. The pop
    // order must be the documented (kind, then push sequence) — the
    // guard before the tick, the tick before any dynamics edge,
    // duplicates in push order.
    EventClock clock;
    const Seconds t = 42.0;
    clock.push(t, ClockEventKind::BurstEdge);      // seq 0
    clock.push(t, ClockEventKind::DynamicsChange); // seq 1
    clock.push(t, ClockEventKind::EpochTick);      // seq 2
    clock.push(t, ClockEventKind::BurstEdge);      // seq 3
    clock.push(t, ClockEventKind::StageGuard);     // seq 4
    clock.push(t, ClockEventKind::DynamicsChange); // seq 5
    clock.push(t, ClockEventKind::EpochTick);      // seq 6

    const std::vector<std::pair<ClockEventKind, std::uint64_t>>
        expected = {
            {ClockEventKind::StageGuard, 4},
            {ClockEventKind::EpochTick, 2},
            {ClockEventKind::EpochTick, 6},
            {ClockEventKind::DynamicsChange, 1},
            {ClockEventKind::DynamicsChange, 5},
            {ClockEventKind::BurstEdge, 0},
            {ClockEventKind::BurstEdge, 3},
        };
    for (const auto &[kind, seq] : expected) {
        const ClockEvent ev = clock.pop();
        EXPECT_EQ(ev.time, t);
        EXPECT_EQ(ev.kind, kind);
        EXPECT_EQ(ev.seq, seq);
    }
    EXPECT_TRUE(clock.empty());
}

TEST(EventClock, InterleavedPushesKeepStableOrder)
{
    // The engine's steady state: pop a tick, push the next one. A
    // later push at an instant already queued must pop after the
    // earlier same-(time, kind) event, never before it.
    EventClock clock;
    clock.push(5.0, ClockEventKind::DynamicsChange); // seq 0
    clock.push(1.0, ClockEventKind::EpochTick);      // seq 1
    EXPECT_EQ(clock.pop().time, 1.0);
    clock.push(5.0, ClockEventKind::DynamicsChange); // seq 2
    clock.push(5.0, ClockEventKind::EpochTick);      // seq 3

    ClockEvent ev = clock.pop();
    EXPECT_EQ(ev.kind, ClockEventKind::EpochTick);
    ev = clock.pop();
    EXPECT_EQ(ev.kind, ClockEventKind::DynamicsChange);
    EXPECT_EQ(ev.seq, 0u);
    ev = clock.pop();
    EXPECT_EQ(ev.seq, 2u);
    EXPECT_TRUE(clock.empty());
}

TEST(EventClock, SeqCounterSurvivesClear)
{
    EventClock clock;
    clock.push(1.0, ClockEventKind::EpochTick); // seq 0
    clock.clear();
    EXPECT_TRUE(clock.empty());
    clock.push(1.0, ClockEventKind::EpochTick); // seq 1
    EXPECT_EQ(clock.pop().seq, 1u);
}

TEST(EventClock, RejectsNanAndEmptyAccess)
{
    EventClock clock;
    EXPECT_EQ(whatOf<FatalError>([&] {
                  clock.push(std::nan(""), ClockEventKind::EpochTick);
              }),
              "fatal: EventClock::push: NaN time");
    EXPECT_EQ(whatOf<PanicError>([&] { clock.top(); }),
              "panic: EventClock::top: empty queue");
    EXPECT_EQ(whatOf<PanicError>([&] { clock.pop(); }),
              "panic: EventClock::pop: empty queue");
}

// ---- engine golden parity --------------------------------------------------

TEST(EngineEventClock, GridAlignedEdgesAreIdempotentWakeups)
{
    // Every library scenario scripts its events at integer seconds
    // with no start jitter, and a single-stage job with wanify unset
    // runs its shuffle from t = 0 with a 1-second epoch — so every
    // discrete change point lands exactly on the tick grid. There the
    // clock's extra wake-ups must be idempotent no-ops: the run is
    // bit-identical to one blind to the change points, OU fluctuation
    // included.
    const auto topo = workerCluster(8, 1);
    const std::size_t n = 8;

    gda::JobSpec job;
    job.name = "mesh-shuffle";
    job.stages.push_back({"shuffle", 1.0, 0.0, true});
    job.inputBytes = units::gigabytes(16.0) * n;
    const std::vector<Bytes> input(n, units::gigabytes(16.0));

    bool sawTraffic = false;
    for (const std::string &name : scenario::libraryScenarioNames()) {
        SCOPED_TRACE(name);
        const scenario::ScenarioTimeline timeline(
            scenario::libraryScenario(name), n, 77);

        const EdgeBlind blind(timeline);

        SpreadScheduler spread;
        gda::RunOptions opts;
        opts.schedulerBw = Matrix<Mbps>::square(n, 400.0);

        gda::Engine blindEngine(topo, defaultSimConfig(), 1234);
        gda::Engine eventEngine(topo, defaultSimConfig(), 1234);
        opts.dynamics = &blind;
        const auto a = blindEngine.run(job, input, spread, opts);
        opts.dynamics = &timeline;
        const auto b = eventEngine.run(job, input, spread, opts);

        expectIdenticalResults(a, b);
        sawTraffic = sawTraffic || a.minObservedBw > 0.0;
    }
    EXPECT_TRUE(sawTraffic);
}

TEST(EngineEventClock, EventModeDeterministicAcrossRuns)
{
    const auto topo = workerCluster(8, 1);
    const std::size_t n = 8;
    const scenario::ScenarioTimeline timeline(
        scenario::libraryScenario("cascading"), n, 9);

    gda::JobSpec job;
    job.name = "mesh-shuffle";
    job.stages.push_back({"shuffle", 1.0, 0.0, true});
    job.inputBytes = units::gigabytes(16.0) * n;
    const std::vector<Bytes> input(n, units::gigabytes(16.0));

    SpreadScheduler spread;
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(n, 400.0);
    opts.dynamics = &timeline;

    gda::Engine engineA(topo, defaultSimConfig(), 55);
    gda::Engine engineB(topo, defaultSimConfig(), 55);
    const auto a = engineA.run(job, input, spread, opts);
    const auto b = engineB.run(job, input, spread, opts);
    expectIdenticalResults(a, b);
    EXPECT_GT(a.latency, 0.0);
}

// ---- sub-epoch burst semantics ---------------------------------------------

TEST(EngineEventClock, MidStageBurstChangesDeliveryAsHandComputed)
{
    // A flash crowd opens mid-way through stage 1's compute phase and
    // expires mid-way between two epoch ticks of stage 2's shuffle.
    // The event clock must open it at its true start (inside the
    // compute window, where a tick-only advance structurally cannot)
    // and close it at its true end, so stage 2's only transfer runs at
    // the hand-computed shared rate until exactly the burst end and
    // at its solo rate afterwards. Blind to the change points, the
    // engine keeps the burst open until the next tick and must finish
    // measurably later.
    const auto topo = workerCluster(2, 1);
    net::NetworkSimConfig simCfg = quietSimConfig();

    // Solo the job transfer is connection-capped; against the burst
    // it gets a 1 / (1 + cb) weighted share of the binding shared
    // resource — the VM WAN cap, shrunk by the solver's
    // oversubscription-waste penalty because the two bundles'
    // aggregate desire exceeds the NIC (both flows ride the same
    // VMs and the same pair, so their per-connection weights are
    // identical and shares split exactly by connection count).
    const int cb = 3; // burst connections; job uses 1
    const Mbps cc = topo.connCap(0, 1);
    const Mbps path = topo.pathCap(0, 1);
    const auto &vmType = topo.vm(topo.dc(0).vms.front()).type;
    const auto &sc = simCfg.solver;
    const Mbps desire =
        net::bundleCap(1, cc, sc) + net::bundleCap(cb, cc, sc);
    double penalty = 1.0;
    if (desire > vmType.nicCapMbps)
        penalty +=
            sc.oversubAlpha * (desire / vmType.nicCapMbps - 1.0);
    const Mbps shared =
        std::min(path, vmType.wanCapMbps / penalty);
    const Mbps rShared = shared / (1.0 + static_cast<double>(cb));
    ASSERT_LT(cc, shared);  // alone: rate = connCap
    ASSERT_LT(rShared, cc); // burst genuinely slows the job
    ASSERT_GT(vmType.nicCapMbps / penalty, shared); // NIC never binds

    // Stage 1: 400 MB resident at DC 0, computed in place for 7.3 s
    // (workPerMb tuned against t2.medium's 2.0 units/s). Stage 2:
    // the full 400 MB shuffles 0 -> 1. Burst: starts at 4.6 (inside
    // stage 1's compute), ends at 9.8 = stage-2 start + 2.5 (between
    // the ticks at +2 and +3).
    const Bytes inputBytes = units::megabytes(400.0);
    const Seconds computeEnd = 7.3;
    const double workPerMb =
        computeEnd * 2.0 / units::toMegabytes(inputBytes);
    scenario::BurstFlow burst;
    burst.start = 4.6;
    burst.duration = 5.2; // ends at 9.8
    burst.src = 0;
    burst.dst = 1;
    burst.connections = cb;
    const Seconds burstEnd = burst.start + burst.duration;
    const OneBurst dynamics(burst);
    const EdgeBlind blind(dynamics);

    gda::JobSpec job;
    job.name = "burst-probe";
    job.stages.push_back({"ingest", 1.0, workPerMb, true});
    job.stages.push_back({"reduce", 1.0, 0.0, true});
    job.inputBytes = inputBytes;
    const std::vector<Bytes> input = {inputBytes, 0.0};

    RouteToOneScheduler route;
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(2, 400.0);

    opts.dynamics = &dynamics;
    gda::Engine eventEngine(topo, simCfg, 3);
    const auto ev = eventEngine.run(job, input, route, opts);
    opts.dynamics = &blind;
    gda::Engine blindEngine(topo, simCfg, 3);
    const auto ep = blindEngine.run(job, input, route, opts);

    ASSERT_EQ(ev.stages.size(), 2u);
    ASSERT_EQ(ep.stages.size(), 2u);
    EXPECT_NEAR(ev.stages[1].start, computeEnd, 1e-9);
    EXPECT_NEAR(ep.stages[1].start, computeEnd, 1e-9);

    // Event clock: shared rate over (start, burstEnd], solo connCap
    // for the remainder — piecewise-exact delivery.
    const Seconds sharedWindow = burstEnd - ev.stages[1].start;
    const Bytes atBurstEnd = units::bytesAtRate(rShared, sharedWindow);
    ASSERT_GT(inputBytes, atBurstEnd); // still in flight at the end
    const Seconds eventExpected =
        burstEnd + (inputBytes - atBurstEnd) * units::kBitsPerByte /
                       (cc * units::kBitsPerMegabit);
    EXPECT_NEAR(ev.stages[1].transferEnd, eventExpected, 2e-3);

    // Blind to the edges: the burst stays open until the first tick
    // at or after its end — a full half-second of extra contention.
    const Seconds epochClose = ep.stages[1].start + 3.0;
    const Bytes atEpochClose =
        units::bytesAtRate(rShared, epochClose - ep.stages[1].start);
    ASSERT_GT(inputBytes, atEpochClose);
    const Seconds epochExpected =
        epochClose + (inputBytes - atEpochClose) *
                         units::kBitsPerByte /
                         (cc * units::kBitsPerMegabit);
    EXPECT_NEAR(ep.stages[1].transferEnd, epochExpected, 2e-3);
    EXPECT_GT(ep.stages[1].transferEnd - ev.stages[1].transferEnd,
              0.1);

    // Burst traffic is other tenants' data: the query is billed its
    // own 400 MB on (0, 1) in both modes, nothing more.
    EXPECT_NEAR(ev.wanBytesByPair.at(0, 1), inputBytes,
                inputBytes * 1e-6);
    EXPECT_NEAR(ep.wanBytesByPair.at(0, 1), inputBytes,
                inputBytes * 1e-6);
}
