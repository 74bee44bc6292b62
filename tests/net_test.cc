/**
 * @file
 * Unit and property tests for the WAN substrate: regions, RTT model,
 * fluctuation, topology, flow solver, and the network simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "experiments/testbed.hh"
#include "net/flow_solver.hh"
#include "net/fluctuation.hh"
#include "net/network_sim.hh"
#include "net/region.hh"
#include "net/rtt_model.hh"
#include "net/topology.hh"
#include "net/vm.hh"
#include "oracles/solver_inputs.hh"
#include "oracles/water_fill.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::net;
using test::whatOf;

namespace {

Topology
paperTopo(std::size_t n = 8)
{
    return TopologyBuilder::paperTestbed(n, VmTypeCatalog::t3nano());
}

NetworkSimConfig
quiet()
{
    NetworkSimConfig cfg;
    cfg.fluctuation.enabled = false;
    return cfg;
}

} // namespace

// ---- regions ---------------------------------------------------------------

TEST(Region, CatalogHasEightPaperRegions)
{
    const auto regions = RegionCatalog::paperRegions();
    ASSERT_EQ(regions.size(), 8u);
    EXPECT_EQ(regions[RegionCatalog::UsEast].id, "us-east-1");
    EXPECT_EQ(regions[RegionCatalog::SaEast].id, "sa-east-1");
}

TEST(Region, SubsetBoundsChecked)
{
    EXPECT_THROW(RegionCatalog::paperSubset(1), FatalError);
    EXPECT_THROW(RegionCatalog::paperSubset(9), FatalError);
    EXPECT_EQ(RegionCatalog::paperSubset(4).size(), 4u);
}

TEST(Region, ByIdFindsAndFails)
{
    EXPECT_EQ(RegionCatalog::byId("eu-west-1").displayName,
              "EU West (Ireland)");
    EXPECT_THROW(RegionCatalog::byId("mars-north-1"), FatalError);
}

TEST(Region, DistancesMatchGeography)
{
    const auto &east = RegionCatalog::byId("us-east-1");
    const auto &west = RegionCatalog::byId("us-west-1");
    const auto &sing = RegionCatalog::byId("ap-southeast-1");
    EXPECT_NEAR(distanceKm(east, west), 3860.0, 120.0);
    EXPECT_NEAR(distanceKm(east, sing), 15540.0, 300.0);
}

// ---- RTT model -------------------------------------------------------------

TEST(RttModel, CalibratedToPaperAnchors)
{
    // Single-connection US East <-> US West ~1700 Mbps and US East <->
    // AP SE ~121 Mbps (Fig. 1).
    const RttModel model;
    const auto &east = RegionCatalog::byId("us-east-1");
    const auto &west = RegionCatalog::byId("us-west-1");
    const auto &sing = RegionCatalog::byId("ap-southeast-1");
    EXPECT_NEAR(model.connCapForDistance(distanceKm(east, west)),
                1700.0, 100.0);
    EXPECT_NEAR(model.connCapForDistance(distanceKm(east, sing)),
                121.0, 15.0);
}

TEST(RttModel, RttMonotoneInDistance)
{
    const RttModel model;
    Seconds prev = 0.0;
    for (double km : {100.0, 1000.0, 5000.0, 15000.0}) {
        const Seconds rtt = model.rtt(km);
        EXPECT_GT(rtt, prev);
        prev = rtt;
    }
}

TEST(RttModel, ConnCapClamped)
{
    RttModelParams params;
    const RttModel model(params);
    EXPECT_LE(model.connCap(0.001), params.maxConnCap);
    EXPECT_GE(model.connCap(10.0), params.minConnCap);
}

// ---- fluctuation -----------------------------------------------------------

TEST(Fluctuation, DisabledIsIdentity)
{
    FluctuationParams params;
    params.enabled = false;
    OuProcess p(params, Rng(1));
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(p.step(1.0), 1.0);
}

TEST(Fluctuation, StationaryMeanNearOne)
{
    FluctuationParams params;
    OuProcess p(params, Rng(42));
    stats::RunningStats acc;
    for (int i = 0; i < 20000; ++i)
        acc.push(p.step(1.0));
    EXPECT_NEAR(acc.mean(), 1.0, 0.05);
    EXPECT_GT(acc.stddev(), 0.05);
}

TEST(Fluctuation, BankProcessesAreIndependent)
{
    FluctuationBank bank(4, FluctuationParams{}, 7);
    bank.step(1.0);
    // At least two processes should differ after one step.
    bool anyDifferent = false;
    for (std::size_t i = 1; i < bank.size(); ++i)
        anyDifferent |= bank.multiplier(i) != bank.multiplier(0);
    EXPECT_TRUE(anyDifferent);
}

TEST(Fluctuation, ZeroStepDoesNotPerturbTheStream)
{
    // step(0) (and negative / NaN dt) must not consume RNG state:
    // interleaving zero-length steps must leave the stream exactly
    // where back-to-back real steps would.
    FluctuationParams params;
    OuProcess a(params, Rng(99));
    OuProcess b(params, Rng(99));
    a.step(1.0);
    b.step(1.0);
    const double before = a.multiplier();
    EXPECT_DOUBLE_EQ(a.step(0.0), before);
    EXPECT_DOUBLE_EQ(a.step(-1.0), before);
    EXPECT_DOUBLE_EQ(a.step(std::nan("")), before);
    EXPECT_DOUBLE_EQ(a.step(1.0), b.step(1.0));
}

TEST(Fluctuation, DisabledConsistentInInitAndStep)
{
    FluctuationParams params;
    params.enabled = false;
    OuProcess p(params, Rng(1));
    // Stationary init honors the flag: multiplier is exactly 1
    // before any step, after zero steps, and after real steps.
    EXPECT_DOUBLE_EQ(p.multiplier(), 1.0);
    EXPECT_DOUBLE_EQ(p.step(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.step(5.0), 1.0);
    p.reseedStationary();
    EXPECT_DOUBLE_EQ(p.multiplier(), 1.0);
    EXPECT_FALSE(p.active());

    // Zero sigma behaves identically to disabled.
    FluctuationParams zero;
    zero.logSigma = 0.0;
    OuProcess q(zero, Rng(1));
    EXPECT_FALSE(q.active());
    EXPECT_DOUBLE_EQ(q.step(5.0), 1.0);
}

TEST(Fluctuation, RejectsNonFiniteParams)
{
    FluctuationParams params;
    params.theta = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(OuProcess(params, Rng(1)), FatalError);
    params.theta = 0.08;
    params.logSigma = std::numeric_limits<double>::infinity();
    EXPECT_THROW(OuProcess(params, Rng(1)), FatalError);
}

// ---- topology --------------------------------------------------------------

TEST(Topology, BuilderWiresDcsAndVms)
{
    const auto topo = paperTopo(4);
    EXPECT_EQ(topo.dcCount(), 4u);
    EXPECT_EQ(topo.vmCount(), 4u);
    for (DcId d = 0; d < 4; ++d) {
        ASSERT_EQ(topo.dc(d).vms.size(), 1u);
        EXPECT_EQ(topo.vm(topo.dc(d).vms[0]).dc, d);
    }
}

TEST(Topology, HeterogeneousVmCounts)
{
    TopologyBuilder builder;
    builder.addDc(RegionCatalog::byId("us-east-1"),
                  VmTypeCatalog::t2medium(), 2);
    builder.addDc(RegionCatalog::byId("eu-west-1"),
                  VmTypeCatalog::t2medium(), 1);
    builder.addVm(1, VmTypeCatalog::t2large());
    const auto topo = builder.build();
    EXPECT_EQ(topo.vmCount(), 4u);
    EXPECT_EQ(topo.dc(1).vms.size(), 2u);
    EXPECT_EQ(topo.vm(topo.dc(1).vms[1]).type.name, "t2.large");
}

TEST(Topology, PairIndexIsDense)
{
    const auto topo = paperTopo(4);
    std::set<std::size_t> seen;
    for (DcId i = 0; i < 4; ++i)
        for (DcId j = 0; j < 4; ++j)
            seen.insert(topo.pairIndex(i, j));
    EXPECT_EQ(seen.size(), 16u);
    EXPECT_EQ(*seen.rbegin(), 15u);
}

TEST(Topology, RouteQualityDeterministicAndBounded)
{
    const auto a = paperTopo(8);
    const auto b = paperTopo(8);
    for (DcId i = 0; i < 8; ++i) {
        for (DcId j = 0; j < 8; ++j) {
            EXPECT_DOUBLE_EQ(a.routeQuality(i, j),
                             b.routeQuality(i, j));
            if (i != j) {
                EXPECT_GE(a.routeQuality(i, j), 0.55);
                EXPECT_LE(a.routeQuality(i, j), 1.0);
            }
        }
    }
}

TEST(Topology, RouteQualityStableAcrossClusterSizes)
{
    // The same region pair must keep its quality in any subset, or
    // the predictor's training would not transfer across sizes.
    const auto small = paperTopo(4);
    const auto big = paperTopo(8);
    for (DcId i = 0; i < 4; ++i)
        for (DcId j = 0; j < 4; ++j)
            EXPECT_DOUBLE_EQ(small.routeQuality(i, j),
                             big.routeQuality(i, j));
}

// ---- flow solver: unit cases -------------------------------------------------

namespace {

SolverInputs
simpleInputs(std::size_t vms, std::size_t dcs, Mbps vmCap = 1000.0,
             Mbps pathCap = 1.0e6)
{
    SolverInputs in;
    in.dcCount = dcs;
    in.vmEgressCap.assign(vms, vmCap);
    in.vmIngressCap.assign(vms, vmCap);
    in.vmNicCap.assign(vms, 2.0 * vmCap);
    in.pathCap.assign(dcs * dcs, pathCap);
    return in;
}

/** Solver config with the congestion/oversubscription penalties off,
 *  for tests that check the pure weighted-sharing arithmetic. */
SolverConfig
pureSharing()
{
    SolverConfig cfg;
    cfg.vmConnAlpha = 0.0;
    cfg.oversubAlpha = 0.0;
    return cfg;
}

FlowSpec
flow(std::size_t srcVm, std::size_t dstVm, std::size_t srcDc,
     std::size_t dstDc, int conns, double weight, Mbps cap)
{
    FlowSpec f;
    f.srcVm = srcVm;
    f.dstVm = dstVm;
    f.srcDc = srcDc;
    f.dstDc = dstDc;
    f.connections = conns;
    f.weightPerConn = weight;
    f.capPerConn = cap;
    return f;
}

} // namespace

TEST(FlowSolver, SingleFlowSelfCapBound)
{
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 1, 1.0, 300.0)}, simpleInputs(2, 2));
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_NEAR(rates[0].rate, 300.0, 1e-6);
    EXPECT_EQ(rates[0].bottleneck, Bottleneck::SelfCap);
}

TEST(FlowSolver, SingleFlowEgressBound)
{
    const auto rates =
        solveRates({flow(0, 1, 0, 1, 1, 1.0, 5000.0)},
                   simpleInputs(2, 2), pureSharing());
    EXPECT_NEAR(rates[0].rate, 1000.0, 1e-6);
    EXPECT_EQ(rates[0].bottleneck, Bottleneck::SrcVm);
}

TEST(FlowSolver, WeightedSharingSplitsProportionally)
{
    // Two flows from the same VM, weights 3:1, both unbounded by
    // their own caps -> 750 / 250 of the 1000 egress.
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 1, 3.0, 5000.0),
         flow(0, 2, 0, 2, 1, 1.0, 5000.0)},
        simpleInputs(3, 3), pureSharing());
    EXPECT_NEAR(rates[0].rate, 750.0, 1e-6);
    EXPECT_NEAR(rates[1].rate, 250.0, 1e-6);
}

TEST(FlowSolver, CappedFlowReleasesShareToOthers)
{
    // The heavy-weight flow is self-capped at 100; the other takes
    // the rest of the egress.
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 1, 10.0, 100.0),
         flow(0, 2, 0, 2, 1, 1.0, 5000.0)},
        simpleInputs(3, 3), pureSharing());
    EXPECT_NEAR(rates[0].rate, 100.0, 1e-6);
    EXPECT_NEAR(rates[1].rate, 900.0, 1e-6);
}

TEST(FlowSolver, TcLimitCapsPairAggregate)
{
    auto inputs = simpleInputs(2, 2);
    inputs.tcLimit.assign(4, 0.0);
    inputs.tcLimit[0 * 2 + 1] = 150.0;
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 4, 1.0, 500.0)}, inputs);
    EXPECT_NEAR(rates[0].rate, 150.0, 1e-6);
    EXPECT_EQ(rates[0].bottleneck, Bottleneck::TcLimit);
}

TEST(FlowSolver, NicTotalSharedAcrossDirections)
{
    // VM 0's NIC (2000) is shared by its outbound and inbound flows;
    // equal weights -> 1000 each even though each direction's WAN cap
    // alone would allow more.
    auto inputs = simpleInputs(3, 3, 1800.0, 1.0e6);
    inputs.vmNicCap.assign(3, 2000.0);
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 1, 1.0, 5000.0),
         flow(2, 0, 2, 0, 1, 1.0, 5000.0)},
        inputs, pureSharing());
    EXPECT_NEAR(rates[0].rate + rates[1].rate, 2000.0, 1e-6);
}

TEST(FlowSolver, BundleCapEfficiencyDecaysPastKnee)
{
    SolverConfig cfg;
    const Mbps at8 = bundleCap(8, 100.0, cfg);
    const Mbps at12 = bundleCap(12, 100.0, cfg);
    EXPECT_NEAR(at8, 800.0, 1e-9);
    EXPECT_LT(at12, 1200.0);
    // Degradation grows quadratically: eff(12) = 1/(1+0.05*16).
    EXPECT_NEAR(at12, 1200.0 / 1.8, 1e-6);
}

TEST(FlowSolver, EmptyProblemIsEmpty)
{
    EXPECT_TRUE(solveRates({}, simpleInputs(1, 1)).empty());
}

TEST(FlowSolver, FillOverAKeptStructureRefusesWhatItCannotSee)
{
    // Two flows from VM 0 under a tc limit and a share cap: a refill
    // at new values of both gives what a fresh solve gives.
    SolverInputs in = simpleInputs(3, 3);
    in.tcLimit.assign(9, 0.0);
    in.tcLimit[1] = 300.0;
    in.shareCap = {200.0};
    std::vector<FlowSpec> flows = {flow(0, 1, 0, 1, 4, 1.0, 500.0),
                                   flow(0, 2, 0, 2, 2, 1.0, 500.0)};
    flows[0].shareCap = 0;
    SolverScratch s;
    buildSolverStructure(flows, in, SolverConfig{}, s);
    in.tcLimit[1] = 150.0;
    in.shareCap[0] = 120.0;
    in.pathCap[2] = 90.0;
    const auto fresh = solveRates(flows, in);
    const auto &kept = fillRates(in, SolverConfig{}, s);
    ASSERT_EQ(kept.size(), fresh.size());
    for (std::size_t f = 0; f < kept.size(); ++f) {
        EXPECT_EQ(kept[f].rate, fresh[f].rate) << "flow " << f;
        EXPECT_EQ(kept[f].bottleneck, fresh[f].bottleneck) << "flow " << f;
    }
    EXPECT_EQ(kept[0].bottleneck, Bottleneck::GroupShare);
    EXPECT_EQ(kept[1].bottleneck, Bottleneck::Path);

    // A kept limit that is no longer positive, or inputs of another
    // shape, need a new build.
    in.tcLimit[1] = 0.0;
    EXPECT_EQ(whatOf<PanicError>([&] { fillRates(in, {}, s); }),
              "panic: fillRates: a kept tc limit is no longer positive");
    in.tcLimit[1] = 150.0;
    in.shareCap[0] = -1.0;
    EXPECT_EQ(whatOf<PanicError>([&] { fillRates(in, {}, s); }),
              "panic: fillRates: a kept share cap is no longer positive");
    in.shareCap = {120.0, 80.0};
    EXPECT_EQ(whatOf<PanicError>([&] { fillRates(in, {}, s); }),
              "panic: fillRates: solver inputs changed shape since the "
              "build");
}

// ---- flow solver: properties over random meshes ------------------------------

class FlowSolverProperty : public ::testing::TestWithParam<int>
{};

TEST_P(FlowSolverProperty, ConservationAndFeasibility)
{
    Rng rng(1000 + GetParam());
    const std::size_t dcs = 2 + rng.uniformInt(0, 4);
    const std::size_t vms = dcs;
    auto inputs = simpleInputs(vms, dcs,
                               rng.uniform(500.0, 3000.0),
                               rng.uniform(800.0, 4000.0));

    std::vector<FlowSpec> flows;
    for (std::size_t i = 0; i < dcs; ++i) {
        for (std::size_t j = 0; j < dcs; ++j) {
            if (i == j || rng.bernoulli(0.3))
                continue;
            flows.push_back(flow(
                i, j, i, j, static_cast<int>(rng.uniformInt(1, 10)),
                rng.uniform(0.1, 10.0), rng.uniform(50.0, 2000.0)));
        }
    }
    const auto rates = solveRates(flows, inputs);
    ASSERT_EQ(rates.size(), flows.size());

    // Feasibility: rates non-negative, self-cap honored, resources
    // not oversubscribed (the conn/oversubscription penalties only
    // shrink capacities, so the nominal caps bound from above).
    SolverConfig cfg;
    std::vector<double> egress(vms, 0.0), ingress(vms, 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
        EXPECT_GE(rates[f].rate, 0.0);
        EXPECT_LE(rates[f].rate,
                  bundleCap(flows[f].connections,
                            flows[f].capPerConn, cfg) +
                      1e-6);
        egress[flows[f].srcVm] += rates[f].rate;
        ingress[flows[f].dstVm] += rates[f].rate;
    }
    for (std::size_t v = 0; v < vms; ++v) {
        EXPECT_LE(egress[v], inputs.vmEgressCap[v] + 1e-6);
        EXPECT_LE(ingress[v], inputs.vmIngressCap[v] + 1e-6);
        EXPECT_LE(egress[v] + ingress[v], inputs.vmNicCap[v] + 1e-6);
    }
}

TEST_P(FlowSolverProperty, AddingConnectionsNeverHurtsOwnPair)
{
    // Growing a bundle's connection count (within the knee) must not
    // reduce that bundle's allocated rate, all else equal.
    Rng rng(5000 + GetParam());
    auto inputs = simpleInputs(3, 3, 2000.0, 3000.0);
    std::vector<FlowSpec> flows = {
        flow(0, 1, 0, 1, 1, rng.uniform(0.5, 3.0), 400.0),
        flow(0, 2, 0, 2, 1, rng.uniform(0.5, 3.0), 400.0),
    };
    const auto before = solveRates(flows, inputs);
    for (int c = 2; c <= 8; ++c) {
        flows[0].connections = c;
        const auto after = solveRates(flows, inputs);
        EXPECT_GE(after[0].rate, before[0].rate - 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomMeshes, FlowSolverProperty,
                         ::testing::Range(0, 12));

// ---- flow solver: differential check against the lazy-heap oracle ----------

namespace {

std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

/** One random solver problem: 2-64 DCs with 1-3 VMs each, duplicate
 *  flows, tc limits, per-(group, pair) share caps and zero-capacity
 *  VMs and paths. */
struct RandomMesh
{
    SolverInputs inputs;
    std::vector<FlowSpec> flows;
};

/** How randomMesh draws capacities, weights and connections. */
enum class MeshShape
{
    /** From discrete value sets half the time, so keys tie exactly. */
    Mixed,
    /** Every flow with the same connections, cap and weight: all
     *  self-cap keys tie, and (kind, id) alone orders them. */
    Tied,
    /** Caps and weights log-uniform over ten more decades than their
     *  usual range: keys span many binades, so buckets are uneven. */
    Wide,
};

RandomMesh
randomMesh(Rng &rng, MeshShape shape = MeshShape::Mixed)
{
    RandomMesh mesh;
    SolverInputs &in = mesh.inputs;
    const std::size_t dcs =
        static_cast<std::size_t>(rng.uniformInt(2, 64));
    const std::size_t vmsPerDc =
        static_cast<std::size_t>(rng.uniformInt(1, 3));
    const std::size_t vms = dcs * vmsPerDc;
    const bool discrete = rng.bernoulli(0.5);
    const bool outages = rng.bernoulli(0.5);
    auto draw = [&](double lo, double hi) {
        if (shape == MeshShape::Wide)
            return std::exp(rng.uniform(std::log(lo * 1e-5),
                                        std::log(hi * 1e5)));
        return discrete ? lo + (hi - lo) *
                                   static_cast<double>(
                                       rng.uniformInt(0, 3)) /
                                   3.0
                        : rng.uniform(lo, hi);
    };
    FlowSpec tied;
    if (shape == MeshShape::Tied) {
        tied.connections = static_cast<int>(rng.uniformInt(1, 12));
        tied.weightPerConn = draw(0.2, 4.0);
        // Low enough that self caps bind, so the tied keys fire.
        tied.capPerConn = draw(1.0, 20.0);
    }

    in.dcCount = dcs;
    for (std::size_t v = 0; v < vms; ++v) {
        const Mbps wan = outages && rng.bernoulli(0.03)
                             ? 0.0
                             : draw(200.0, 3000.0);
        in.vmEgressCap.push_back(wan);
        in.vmIngressCap.push_back(draw(200.0, 3000.0));
        in.vmNicCap.push_back(draw(300.0, 5000.0));
    }
    if (rng.bernoulli(0.1))
        in.vmNicCap.clear(); // NIC resources are optional
    for (std::size_t p = 0; p < dcs * dcs; ++p)
        in.pathCap.push_back(outages && rng.bernoulli(0.05)
                                 ? 0.0
                                 : draw(50.0, 4000.0));
    if (rng.bernoulli(0.5)) {
        in.tcLimit.assign(dcs * dcs, 0.0);
        for (Mbps &limit : in.tcLimit)
            if (rng.bernoulli(0.3))
                limit = draw(20.0, 1500.0);
    }

    // Flows over a random subset of VM pairs, keeping the larger
    // meshes near the few thousand flows of a 64-DC shuffle; a flow
    // may belong to one of a few groups (groupOf, kNone = ungrouped).
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> groupOf;
    const std::size_t groups =
        static_cast<std::size_t>(rng.uniformInt(0, 4));
    const double density =
        std::min(1.0, 2500.0 / static_cast<double>(vms * vms));
    for (std::size_t a = 0; a < vms; ++a) {
        for (std::size_t b = 0; b < vms; ++b) {
            if (a == b || !rng.bernoulli(density))
                continue;
            std::size_t group = kNone;
            FlowSpec f;
            f.srcVm = a;
            f.dstVm = b;
            f.srcDc = a / vmsPerDc;
            f.dstDc = b / vmsPerDc;
            if (shape == MeshShape::Tied) {
                f.connections = tied.connections;
                f.weightPerConn = tied.weightPerConn;
                f.capPerConn = tied.capPerConn;
            } else {
                f.connections =
                    static_cast<int>(rng.uniformInt(1, 12));
                f.weightPerConn = rng.bernoulli(0.02) ? 0.0
                                                      : draw(0.2, 4.0);
                f.capPerConn = rng.bernoulli(0.02) ? 0.0
                                                   : draw(30.0, 600.0);
            }
            if (groups > 0 && rng.bernoulli(0.7))
                group = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          groups - 1)));
            mesh.flows.push_back(f);
            groupOf.push_back(group);
            // An exact duplicate ties every key the flow carries.
            if (rng.bernoulli(0.15)) {
                mesh.flows.push_back(f);
                groupOf.push_back(group);
            }
        }
    }

    // Sparse share caps, sorted by (group, pair) and unique; some
    // non-positive entries, which the solver must ignore.
    struct Entry
    {
        std::size_t group;
        std::size_t pair;
    };
    std::vector<Entry> entries;
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t p = 0; p < dcs * dcs; ++p) {
            if (!rng.bernoulli(0.2))
                continue;
            const Mbps cap =
                rng.bernoulli(0.1) ? 0.0 : draw(10.0, 800.0);
            entries.push_back({g, p});
            in.shareCap.push_back(cap);
        }
    }

    // Each grouped flow names the entry of its (group, pair), found
    // by binary search; a flow whose pair has no entry is uncapped.
    for (std::size_t f = 0; f < mesh.flows.size(); ++f) {
        if (groupOf[f] == kNone)
            continue;
        const std::size_t pair =
            mesh.flows[f].srcDc * dcs + mesh.flows[f].dstDc;
        auto it = std::lower_bound(
            entries.begin(), entries.end(), Entry{groupOf[f], pair},
            [](const Entry &a, const Entry &b) {
                return a.group != b.group ? a.group < b.group
                                          : a.pair < b.pair;
            });
        if (it != entries.end() && it->group == groupOf[f] &&
            it->pair == pair)
            mesh.flows[f].shareCap =
                static_cast<std::size_t>(it - entries.begin());
    }
    return mesh;
}

/** Solve @p mesh with solveRates into @p actual and with the oracle;
 *  every rate and bottleneck must agree to the bit. */
::testing::AssertionResult
matchesOracle(const RandomMesh &mesh, const SolverConfig &cfg,
              SolverScratch &scratch, std::vector<FlowRate> &actual)
{
    const auto expected =
        oracle::solveRatesLazyHeap(mesh.flows, mesh.inputs, cfg);
    actual = solveRates(mesh.flows, mesh.inputs, cfg, &scratch);
    if (actual.size() != expected.size())
        return ::testing::AssertionFailure()
               << actual.size() << " rates vs " << expected.size();
    for (std::size_t f = 0; f < actual.size(); ++f) {
        if (bitsOf(actual[f].rate) != bitsOf(expected[f].rate))
            return ::testing::AssertionFailure()
                   << "flow " << f << ": " << actual[f].rate << " vs "
                   << expected[f].rate;
        if (actual[f].bottleneck != expected[f].bottleneck)
            return ::testing::AssertionFailure()
                   << "flow " << f << ": bottleneck "
                   << static_cast<int>(actual[f].bottleneck) << " vs "
                   << static_cast<int>(expected[f].bottleneck);
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(FlowSolverDifferential, MatchesLazyHeapOracleBitForBit)
{
    // solveRates must reproduce the lazy min-heap fill exactly: same
    // freeze order, same float arithmetic, so every rate and every
    // Bottleneck agrees to the bit. One scratch serves every call,
    // including calls that threw half-way through the resource build.
    Rng rng(20251017);
    SolverScratch scratch;
    std::size_t flowsChecked = 0;
    std::size_t threw = 0;
    std::size_t bottlenecks[8] = {};
    std::size_t zeroRateShared = 0;

    for (int c = 0; c < 240; ++c) {
        const RandomMesh mesh = randomMesh(rng);
        SolverConfig cfg;
        if (rng.bernoulli(0.3))
            cfg = pureSharing();

        if (c % 5 == 0 && !mesh.flows.empty()) {
            // Append a flow the solver rejects after it has already
            // registered resources for the others.
            std::vector<FlowSpec> bad = mesh.flows;
            FlowSpec f = bad.front();
            f.weightPerConn = 1.0; // active, so it reaches the checks
            f.capPerConn = 100.0;
            if (c % 10 == 0)
                f.dstVm = mesh.inputs.vmIngressCap.size();
            else
                f.srcDc = mesh.inputs.dcCount;
            bad.push_back(f);
            EXPECT_THROW(solveRates(bad, mesh.inputs, cfg, &scratch),
                         PanicError);
            ++threw;
        }

        std::vector<FlowRate> actual;
        ASSERT_TRUE(matchesOracle(mesh, cfg, scratch, actual))
            << "case " << c;
        for (const FlowRate &rate : actual) {
            ++bottlenecks[static_cast<int>(rate.bottleneck)];
            if (rate.rate == 0.0 && rate.bottleneck != Bottleneck::SelfCap)
                ++zeroRateShared;
        }
        flowsChecked += actual.size();
    }

    // The generator must reach every path it is meant to cover.
    EXPECT_GT(flowsChecked, 50000u);
    EXPECT_GE(threw, 48u);
    EXPECT_GT(zeroRateShared, 0u); // zero-capacity pre-freeze
    for (Bottleneck b :
         {Bottleneck::SelfCap, Bottleneck::SrcVm, Bottleneck::DstVm,
          Bottleneck::NicTotal, Bottleneck::Path, Bottleneck::TcLimit,
          Bottleneck::GroupShare})
        EXPECT_GT(bottlenecks[static_cast<int>(b)], 0u)
            << "bottleneck " << static_cast<int>(b) << " never hit";

    // The static-event order at its edges: self-cap keys that all tie,
    // and keys spread over so many binades that most buckets are
    // empty and a few are crowded.
    std::size_t tiedSelfCaps = 0;
    int widestBinades = 0;
    for (int c = 0; c < 40; ++c) {
        const bool tiedCase = c % 2 == 0;
        const RandomMesh mesh = randomMesh(
            rng, tiedCase ? MeshShape::Tied : MeshShape::Wide);
        const SolverConfig cfg = c % 4 < 2 ? SolverConfig{} : pureSharing();
        std::vector<FlowRate> actual;
        ASSERT_TRUE(matchesOracle(mesh, cfg, scratch, actual))
            << (tiedCase ? "tied" : "wide") << " case " << c;
        int lo = std::numeric_limits<int>::max();
        int hi = std::numeric_limits<int>::min();
        for (const FlowRate &rate : actual) {
            if (tiedCase && rate.bottleneck == Bottleneck::SelfCap)
                ++tiedSelfCaps;
            if (!tiedCase && rate.rate > 0.0) {
                lo = std::min(lo, std::ilogb(rate.rate));
                hi = std::max(hi, std::ilogb(rate.rate));
            }
        }
        if (hi >= lo)
            widestBinades = std::max(widestBinades, hi - lo);
    }
    EXPECT_GT(tiedSelfCaps, 2000u); // tied self caps that fired
    EXPECT_GE(widestBinades, 30);   // rates over 9 decades in one case
}

TEST(FlowSolverDifferential, SignedZeroKeysTieAndFireByFlowId)
{
    // Keys -0 and +0 are one fill level, so flow 0 (key +0) freezes
    // before flow 1 (key -0), by id. The order shows in the last bits
    // of flow 2's rate: the shared egress subtracts the two weights in
    // freeze order, and 0.6 - 0.1 - 0.2 != 0.6 - 0.2 - 0.1 in doubles.
    SolverConfig cfg = pureSharing();
    cfg.epsilon = -1.0; // keeps the zero-capability flows active
    const std::vector<FlowSpec> flows = {
        flow(0, 1, 0, 1, 1, 0.1, 0.0),
        flow(0, 2, 0, 2, 1, 0.2, -0.0),
        flow(0, 3, 0, 3, 1, 0.3, 5000.0),
    };
    const SolverInputs inputs = simpleInputs(4, 4);
    const auto expected =
        oracle::solveRatesLazyHeap(flows, inputs, cfg);
    const auto actual = solveRates(flows, inputs, cfg);
    ASSERT_EQ(actual.size(), flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f) {
        EXPECT_EQ(bitsOf(actual[f].rate), bitsOf(expected[f].rate))
            << "flow " << f << ": " << actual[f].rate << " vs "
            << expected[f].rate;
        EXPECT_EQ(actual[f].bottleneck, expected[f].bottleneck)
            << "flow " << f;
    }
    EXPECT_EQ(bitsOf(actual[1].rate), bitsOf(-0.0));
}

// ---- network sim -------------------------------------------------------------

TEST(NetworkSim, FiniteTransferCompletesOnSchedule)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    // East -> West single connection: ~1718 Mbps; 1 decimal GB.
    const auto id = sim.startTransfer(0, 1, 1.0e9, 1);
    const Seconds t = sim.runUntilAllComplete();
    EXPECT_NEAR(t, 8000.0 / 1718.8, 0.05);
    // Only live transfers report a status; the completion record
    // carries the final bytes.
    EXPECT_FALSE(sim.status(id).exists);
    const auto recs = sim.drainCompletions();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].id, id);
    EXPECT_NEAR(recs[0].moved, 1.0e9, 10.0);
}

TEST(NetworkSim, CompletionsAreReported)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const auto id = sim.startTransfer(0, 1, 1.0e8, 2, 3);
    const Seconds t = sim.runUntilAllComplete();
    // The const view shows what a drain would return, and leaves it.
    ASSERT_EQ(sim.completions().size(), 1u);
    EXPECT_EQ(sim.completions()[0].id, id);
    const auto recs = sim.drainCompletions();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].id, id);
    EXPECT_EQ(recs[0].time, t);
    EXPECT_EQ(recs[0].group, 3u);
    EXPECT_NEAR(recs[0].moved, 1.0e8, 1.0);
    EXPECT_TRUE(sim.drainCompletions().empty());
    EXPECT_TRUE(sim.completions().empty());
}

TEST(NetworkSim, MeasurementFlowsNeverComplete)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    sim.startMeasurement(0, 1, 1);
    sim.advanceBy(30.0);
    EXPECT_TRUE(sim.allTransfersDone()); // no *finite* transfers
    EXPECT_EQ(sim.activeTransferCount(), 1u);
    EXPECT_TRUE(sim.drainCompletions().empty());
}

TEST(NetworkSim, PairBytesAccumulate)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    sim.startMeasurement(0, 1, 1);
    sim.advanceBy(10.0);
    const Bytes moved = sim.pairBytes(0, 1);
    // ~1718.8 Mbps for 10 s ~= 2.15 decimal GB.
    EXPECT_NEAR(moved, 1718.8e6 / 8.0 * 10.0, 2.0e7);
    EXPECT_DOUBLE_EQ(sim.pairBytes(1, 0), 0.0);
}

TEST(NetworkSim, SetConnectionsChangesRate)
{
    NetworkSim sim(paperTopo(8), quiet(), 1);
    // Weak pair: East -> AP SE.
    const auto id = sim.startMeasurement(0, 3, 1);
    sim.advanceBy(1.0);
    const Mbps single = sim.transferRate(id);
    sim.setConnections(id, 8);
    sim.advanceBy(1.0);
    const Mbps eight = sim.transferRate(id);
    EXPECT_GT(eight, 5.0 * single);
}

TEST(NetworkSim, TcLimitIsAppliedAndCleared)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const auto id = sim.startMeasurement(0, 1, 4);
    sim.setTcLimit(0, 1, 200.0);
    sim.advanceBy(1.0);
    EXPECT_NEAR(sim.transferRate(id), 200.0, 1.0);
    sim.setTcLimit(0, 1, 0.0);
    sim.advanceBy(1.0);
    EXPECT_GT(sim.transferRate(id), 1000.0);
}

TEST(NetworkSim, StopTransferRemovesIt)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const auto id = sim.startTransfer(0, 1, 1.0e12, 1);
    sim.advanceBy(1.0);
    sim.stopTransfer(id);
    EXPECT_TRUE(sim.allTransfersDone());
    EXPECT_FALSE(sim.status(id).exists);
    // A stopped transfer did not complete.
    sim.advanceBy(1.0);
    EXPECT_TRUE(sim.drainCompletions().empty());
}

TEST(NetworkSim, InvalidArgumentsFail)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { sim.startTransfer(0, 0, 100.0, 1); }),
              "fatal: NetworkSim: transfer to self");
    const std::string bytesMsg =
        "fatal: startTransfer: bytes must be finite and positive";
    for (const Bytes bad : {0.0, -1.0e9,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()})
        EXPECT_EQ(whatOf<FatalError>(
                      [&] { sim.startTransfer(0, 1, bad, 1); }),
                  bytesMsg)
            << "bytes " << bad;
    EXPECT_EQ(sim.activeTransferCount(), 0u);
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { sim.startTransfer(0, 1, 100.0, 0); }),
              "fatal: NetworkSim: connections must be >= 1");
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { sim.startMeasurement(0, 99, 1); }),
              "fatal: NetworkSim: VM id out of range");
    EXPECT_EQ(whatOf<FatalError>([&] { sim.advanceBy(-1.0); }),
              "fatal: advanceBy: negative dt");

    // Every per-pair accessor refuses DC n, as either endpoint.
    const std::string dcMsg = "panic: NetworkSim: DC out of range";
    for (const std::pair<DcId, DcId> &pair :
         {std::pair<DcId, DcId>{2, 0}, std::pair<DcId, DcId>{0, 2}}) {
        const DcId src = pair.first;
        const DcId dst = pair.second;
        EXPECT_EQ(whatOf<PanicError>(
                      [&] { sim.setTcLimit(src, dst, 100.0); }),
                  dcMsg);
        EXPECT_EQ(whatOf<PanicError>(
                      [&] { sim.setScenarioCapFactor(src, dst, 0.5); }),
                  dcMsg);
        EXPECT_EQ(whatOf<PanicError>(
                      [&] { sim.setScenarioRttFactor(src, dst, 2.0); }),
                  dcMsg);
        EXPECT_EQ(whatOf<PanicError>(
                      [&] { sim.scenarioCapFactor(src, dst); }),
                  dcMsg);
        EXPECT_EQ(whatOf<PanicError>(
                      [&] { sim.scenarioRttFactor(src, dst); }),
                  dcMsg);
        EXPECT_EQ(whatOf<PanicError>([&] { sim.pairBytes(src, dst); }),
                  dcMsg);
        EXPECT_EQ(whatOf<PanicError>(
                      [&] { sim.effectivePathCap(src, dst); }),
                  dcMsg);
    }

    // The solver's per-VM arrays are sized by egress; a longer
    // ingress list would let a destination VM index past them.
    SolverInputs uneven = simpleInputs(1, 2);
    uneven.vmIngressCap = {1000.0, 1000.0};
    EXPECT_EQ(whatOf<PanicError>([&] {
                  solveRates({flow(0, 1, 0, 1, 1, 1.0, 100.0)}, uneven);
              }),
              "panic: solveRates: vmEgressCap and vmIngressCap sizes "
              "differ");
}

TEST(NetworkSim, DeterministicAcrossRuns)
{
    auto run = [] {
        NetworkSim sim(paperTopo(4), NetworkSimConfig{}, 77);
        sim.startTransfer(0, 3, 5.0e8, 3);
        sim.startTransfer(1, 2, 5.0e8, 2);
        return sim.runUntilAllComplete();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(NetworkSim, ScenarioCapFactorScalesEffectiveCapacity)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const Mbps nominal = sim.effectivePathCap(0, 1);
    sim.setScenarioCapFactor(0, 1, 0.25);
    EXPECT_NEAR(sim.effectivePathCap(0, 1), 0.25 * nominal, 1e-9);
    // The reverse direction is untouched.
    EXPECT_NEAR(sim.effectivePathCap(1, 0), nominal, 1e-9);
    sim.setScenarioCapFactor(0, 1, 1.0);
    EXPECT_NEAR(sim.effectivePathCap(0, 1), nominal, 1e-9);
}

TEST(NetworkSim, ScenarioOutageStallsAndRecoveryReleases)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const auto id = sim.startMeasurement(0, 1, 8);
    sim.advanceBy(1.0);
    const Mbps before = sim.transferRate(id);
    EXPECT_GT(before, 500.0);
    sim.setScenarioCapFactor(0, 1, 0.01);
    sim.advanceBy(1.0);
    EXPECT_LT(sim.transferRate(id), 0.05 * before);
    sim.setScenarioCapFactor(0, 1, 1.0);
    sim.advanceBy(1.0);
    EXPECT_NEAR(sim.transferRate(id), before, 1e-6);
}

TEST(NetworkSim, ScenarioFactorsValidated)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const std::string capMsg =
        "fatal: setScenarioCapFactor: factor must be finite and >= 0";
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { sim.setScenarioCapFactor(0, 1, -0.5); }),
              capMsg);
    EXPECT_EQ(whatOf<FatalError>([&] {
                  sim.setScenarioCapFactor(
                      0, 1, std::numeric_limits<double>::quiet_NaN());
              }),
              capMsg);
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { sim.setScenarioRttFactor(0, 1, 0.0); }),
              "fatal: setScenarioRttFactor: factor must be finite and "
              "> 0");
    EXPECT_DOUBLE_EQ(sim.scenarioCapFactor(0, 1), 1.0);
}

TEST(NetworkSim, GroupSettersValidated)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t p01 = sim.topology().pairIndex(0, 1);
    const std::size_t p10 = sim.topology().pairIndex(1, 0);
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { sim.installShareCaps({{1, p01, inf}}); }),
              "fatal: installShareCaps: cap must be finite");
    EXPECT_EQ(whatOf<FatalError>([&] {
                  sim.installShareCaps(
                      {{1, p01, std::numeric_limits<double>::quiet_NaN()}});
              }),
              "fatal: installShareCaps: cap must be finite");
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { sim.installShareCaps({{0, p01, 100.0}}); }),
              "fatal: installShareCaps: group 0 is ungrouped");
    EXPECT_EQ(whatOf<PanicError>(
                  [&] { sim.installShareCaps({{1, 4, 100.0}}); }),
              "panic: installShareCaps: pair index out of range");
    const std::string unsorted =
        "panic: installShareCaps: caps not sorted by (group, pair) and "
        "unique";
    EXPECT_EQ(whatOf<PanicError>([&] {
                  sim.installShareCaps({{1, p10, 100.0}, {1, p01, 50.0}});
              }),
              unsorted);
    EXPECT_EQ(whatOf<PanicError>([&] {
                  sim.installShareCaps({{2, p01, 100.0}, {1, p10, 50.0}});
              }),
              unsorted);
    EXPECT_EQ(whatOf<PanicError>([&] {
                  sim.installShareCaps({{1, p01, 100.0}, {1, p01, 50.0}});
              }),
              unsorted);
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { sim.setGroupWeight(1, 0.0); }),
              "fatal: setGroupWeight: weight must be finite and > 0");
    // A rejected install leaves the table as it was.
    EXPECT_TRUE(sim.shareCaps().empty());
    EXPECT_EQ(sim.registeredGroupCount(), 0u);
}

TEST(NetworkSim, FlatSolverInputsMatchReferenceBitExact)
{
    // The flat per-pair composition path (persistent PairIndex-keyed
    // arrays) must give every transfer bit-identically the rate and
    // bottleneck that the map-keyed input build in
    // tests/oracles/solver_inputs.hh gives it — the golden 8-DC mesh
    // drives one sim through every feature that feeds the solver:
    // groups, share caps, scenario factors, tc limits, connection
    // changes, and OU fluctuation, and through every kind of change
    // that keeps or rebuilds the solver's structure. Every solve the
    // run makes is checked, not just two checkpoints.
    const auto topo = paperTopo(8);
    auto vm = [&](DcId dc) { return topo.dc(dc).vms.front(); };
    NetworkSimConfig cfg; // fluctuation ON: wobbled caps too
    NetworkSim sim(topo, cfg, 99);
    std::vector<TransferId> ids;

    std::size_t checks = 0;
    // Checks after the second tick, and how many of them saw a flow
    // bound by something other than its own connections.
    std::size_t lateChecks = 0;
    std::size_t lateOtherBound = 0;
    auto expectMatchesOracle = [&]() {
        ++checks;
        const auto ref = oracle::MapKeyedSolverInputs::rates(sim);
        ASSERT_EQ(ref.size(), sim.activeTransferCount());
        bool otherBound = false;
        std::map<TransferId, Mbps> refRate;
        for (const auto &r : ref) {
            otherBound = otherBound ||
                         r.rate.bottleneck != Bottleneck::SelfCap;
            EXPECT_EQ(sim.transferRate(r.id), r.rate.rate)
                << "flow " << r.id << " at t=" << sim.now();
            EXPECT_EQ(sim.transferBottleneck(r.id), r.rate.bottleneck)
                << "flow " << r.id << " at t=" << sim.now();
            refRate[r.id] = r.rate.rate;
        }
        for (DcId i = 0; i < 8; ++i) {
            for (DcId j = 0; j < 8; ++j) {
                Mbps want = 0.0;
                for (TransferId id : sim.transfersBetween(i, j))
                    want += refRate.at(id);
                EXPECT_EQ(sim.pairRate(i, j), want)
                    << "pair " << i << "->" << j << " at t=" << sim.now();
            }
        }
        if (sim.now() > 2.0) {
            ++lateChecks;
            lateOtherBound += otherBound ? 1 : 0;
        }
    };
    auto nextCompletionIn = [&]() {
        Seconds best = std::numeric_limits<Seconds>::infinity();
        for (TransferId id : ids) {
            const auto st = sim.status(id);
            if (st.exists)
                best = std::min(best, units::transferTime(
                                          st.bytesRemaining,
                                          sim.transferRate(id)));
        }
        return best;
    };
    // The sim's fluctuation ticks, tracked the way the sim tracks them.
    Seconds nextTick = NetworkSim::kTickInterval;
    // Solve what changed since the last step and check that solve.
    // Then end each step at the next tick, the earliest completion at
    // current rates, or the end of dt, so each advanceBy makes at most
    // one event and the check after it makes the one solve that
    // event needs: every solve gets checked.
    auto advanceChecked = [&](Seconds dt) {
        sim.advanceBy(0.0);
        expectMatchesOracle();
        while (dt > 0.0) {
            const Seconds step = std::min(
                {dt, nextTick - sim.now(), nextCompletionIn()});
            sim.advanceBy(step);
            if (sim.now() >= nextTick - 1.0e-12)
                nextTick += NetworkSim::kTickInterval;
            for (const auto &c : sim.drainCompletions())
                EXPECT_EQ(c.time, sim.now())
                    << "flow " << c.id << " completed mid-step";
            expectMatchesOracle();
            dt -= step;
        }
    };

    for (DcId i = 0; i < 8; ++i)
        for (DcId j = 0; j < 8; ++j)
            if (i != j)
                ids.push_back(sim.startTransfer(
                    topo.dc(i).vms.front(), topo.dc(j).vms.front(),
                    units::megabytes(40.0 + 3.0 * i + j),
                    1 + static_cast<int>((i + j) % 4), (i + j) % 3));
    ids.push_back(sim.startMeasurement(topo.dc(0).vms.front(),
                                       topo.dc(7).vms.front(), 2));
    // Without this flow, every flow that outlives the first tick is
    // bound by its own connection cap, which fluctuation never moves,
    // so a sim that stopped re-solving at ticks would still pass. It
    // has connections enough to saturate its VMs, whose wobbling caps
    // then bind a compared flow at every later check.
    ids.push_back(sim.startMeasurement(topo.dc(1).vms.front(),
                                       topo.dc(0).vms.front(), 4));
    sim.setGroupWeight(1, 2.5);
    sim.installShareCaps({{1, topo.pairIndex(0, 1), 300.0},
                          {2, topo.pairIndex(3, 4), 150.0}});
    sim.setScenarioCapFactor(2, 3, 0.4);
    sim.setScenarioRttFactor(1, 2, 1.5);
    sim.setTcLimit(0, 2, 500.0);
    advanceChecked(0.7);
    advanceChecked(1.3);

    // Mutate every dirty-tracking path mid-flight and recheck.
    sim.setConnections(ids[3], 6);
    sim.stopTransfer(ids[10]);
    // Clear group 1's cap by leaving it out of the table.
    sim.installShareCaps({{2, topo.pairIndex(3, 4), 150.0}});
    sim.setGroupWeight(2, 0.5);
    sim.setScenarioCapFactor(2, 3, 1.0);
    sim.setTcLimit(0, 2, 0.0);
    sim.clearGroupAllocations(2);
    advanceChecked(2.0);

    // One kind of change at a time, each on its own checked solve,
    // over transfers that outlive this part of the script.
    const std::size_t p01 = topo.pairIndex(0, 1);
    const std::size_t p34 = topo.pairIndex(3, 4);
    const Bytes longer = units::gigabytes(1.0);
    const TransferId capped = sim.startTransfer(vm(0), vm(1), longer, 4, 1);
    ids.push_back(capped);
    ids.push_back(sim.startTransfer(vm(3), vm(4), longer, 2, 2));
    const TransferId limited = sim.startTransfer(vm(2), vm(5), longer, 3);
    ids.push_back(limited);
    sim.installShareCaps({{1, p01, 60.0}});
    advanceChecked(0.5);
    // Cap values only: the structure is kept, the new cap binds.
    sim.installShareCaps({{1, p01, 45.0}});
    advanceChecked(0.5);
    EXPECT_EQ(sim.transferBottleneck(capped), Bottleneck::GroupShare);
    // Share-cap keys added, then removed.
    sim.installShareCaps({{1, p01, 45.0}, {2, p34, 30.0}});
    advanceChecked(0.5);
    sim.installShareCaps({{2, p34, 30.0}});
    advanceChecked(0.5);
    // A tc limit set 0 -> positive, moved to another positive value,
    // and set back to 0.
    sim.setTcLimit(2, 5, 60.0);
    advanceChecked(0.5);
    sim.setTcLimit(2, 5, 40.0);
    advanceChecked(0.5);
    EXPECT_EQ(sim.transferBottleneck(limited), Bottleneck::TcLimit);
    sim.setTcLimit(2, 5, 0.0);
    advanceChecked(0.5);
    // An outage on the kept structure, and back.
    sim.setScenarioCapFactor(0, 1, 0.0);
    advanceChecked(0.5);
    EXPECT_EQ(sim.transferRate(capped), 0.0);
    sim.setScenarioCapFactor(0, 1, 1.0);
    advanceChecked(0.5);
    sim.setScenarioRttFactor(3, 4, 2.0);
    advanceChecked(0.5);
    sim.setGroupWeight(1, 1.5);
    advanceChecked(0.5);

    // Run the finite transfers out, one tick interval at a time.
    while (!sim.allTransfersDone() && sim.now() < 600.0)
        advanceChecked(NetworkSim::kTickInterval);
    EXPECT_TRUE(sim.allTransfersDone());
    EXPECT_LT(sim.now(), 600.0);
    // At least one check per tick the run crossed.
    EXPECT_GE(static_cast<double>(checks),
              sim.now() / NetworkSim::kTickInterval);
    EXPECT_GT(lateChecks, 0u);
    EXPECT_EQ(lateOtherBound, lateChecks);
}

TEST(NetworkSim, RegistryCompactionKeepsSolveOrder)
{
    // Stops only mark their transfers until the next resolve drops
    // them, and completions leave in progress()'s compaction pass.
    // Either way the survivors must stay in ascending id, the order
    // the solver numbers its resources in: they must get exactly the
    // rates of a fresh sim that starts them in that order.
    const auto topo = paperTopo(4);
    auto vm = [&](DcId dc) { return topo.dc(dc).vms.front(); };
    struct Start
    {
        DcId src;
        DcId dst;
        Bytes bytes;
        int connections;
        FlowGroupId group;
    };
    const Bytes big = units::gigabytes(50.0);
    const Bytes twin = units::megabytes(30.0);
    // Three identical twins (3, 5, 7) share group 2's cap on 0->1.
    std::vector<Start> starts = {
        {0, 1, big, 2, 1},  {0, 2, big, 3, 2}, {1, 0, big, 1, 0},
        {0, 1, twin, 2, 2}, {2, 3, big, 4, 1}, {0, 1, twin, 2, 2},
        {3, 1, big, 2, 2},  {0, 1, twin, 2, 2}, {1, 2, big, 1, 1},
        {2, 0, big, 2, 0},
    };

    NetworkSim sim(topo, quiet(), 7);
    std::vector<TransferId> ids;
    for (const Start &s : starts)
        ids.push_back(sim.startTransfer(vm(s.src), vm(s.dst), s.bytes,
                                        s.connections, s.group));
    sim.setGroupWeight(2, 1.5);
    sim.installShareCaps({{1, topo.pairIndex(0, 1), 120.0},
                          {2, topo.pairIndex(0, 1), 90.0},
                          {2, topo.pairIndex(3, 1), 40.0}});
    sim.advanceBy(0.2);

    // Stop the first, a middle and the last transfer: telemetry
    // skips them before any resolve drops them.
    sim.stopTransfer(ids[0]);
    sim.stopTransfer(ids[4]);
    sim.stopTransfer(ids[9]);
    sim.setConnections(ids[6], 5);
    starts[6].connections = 5;
    EXPECT_EQ(sim.activeTransferCount(), 7u);
    EXPECT_EQ(sim.groupTransferCount(1), 1u);
    EXPECT_FALSE(sim.status(ids[4]).exists);
    EXPECT_EQ(sim.transfersBetween(2, 0).size(), 0u);

    // The twins finish in one progress step, reported in ascending id.
    sim.advanceBy(30.0);
    const auto done = sim.drainCompletions();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].id, ids[3]);
    EXPECT_EQ(done[1].id, ids[5]);
    EXPECT_EQ(done[2].id, ids[7]);
    EXPECT_EQ(done[0].time, done[2].time);
    EXPECT_EQ(sim.activeTransferCount(), 4u);

    // A new table, then two more starts that append after the gaps.
    const std::vector<GroupPairCap> caps = {
        {1, topo.pairIndex(1, 2), 60.0}, {2, topo.pairIndex(3, 1), 45.0}};
    sim.installShareCaps(caps);
    starts.push_back({3, 1, big, 3, 2});
    ids.push_back(sim.startTransfer(vm(3), vm(1), big, 3, 2));
    starts.push_back({1, 2, big, 2, 1});
    ids.push_back(sim.startTransfer(vm(1), vm(2), big, 2, 1));
    sim.advanceBy(0.0);

    NetworkSim fresh(topo, quiet(), 7);
    fresh.setGroupWeight(2, 1.5);
    const std::vector<std::size_t> survivors = {1, 2, 6, 8, 10, 11};
    std::vector<TransferId> freshIds;
    for (const std::size_t k : survivors)
        freshIds.push_back(fresh.startTransfer(
            vm(starts[k].src), vm(starts[k].dst), starts[k].bytes,
            starts[k].connections, starts[k].group));
    fresh.installShareCaps(caps);
    fresh.advanceBy(0.0);

    ASSERT_EQ(sim.activeTransferCount(), survivors.size());
    bool groupShare = false;
    for (std::size_t k = 0; k < survivors.size(); ++k) {
        const TransferId a = ids[survivors[k]];
        const TransferId b = freshIds[k];
        ASSERT_TRUE(sim.status(a).exists) << "survivor " << k;
        EXPECT_EQ(bitsOf(sim.transferRate(a)), bitsOf(fresh.transferRate(b)))
            << "survivor " << k;
        EXPECT_EQ(sim.transferBottleneck(a), fresh.transferBottleneck(b))
            << "survivor " << k;
        EXPECT_EQ(sim.status(a).connections, fresh.status(b).connections)
            << "survivor " << k;
        groupShare = groupShare ||
                     sim.transferBottleneck(a) == Bottleneck::GroupShare;
    }
    EXPECT_TRUE(groupShare); // the installed caps bind
}

TEST(NetworkSim, KeptStructureMatchesFreshSolveUnderRandomMutations)
{
    // Random 2-16-DC meshes under random mutation scripts: after
    // every step, each live transfer's rate and bottleneck must equal,
    // bit for bit, a fresh solveRates of the map-keyed oracle inputs,
    // whichever mix of structure and capacity changes the step made.
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Rng rng(seed);
        const auto pick = [&](std::size_t count) {
            return static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(count) - 1));
        };
        const std::size_t n = 2 + pick(15);
        const Topology topo = experiments::workerCluster(n, 1 + pick(2));
        NetworkSim sim(topo, experiments::defaultSimConfig(), seed);
        const std::size_t vms = topo.vmCount();
        std::vector<TransferId> ids;
        const auto anyId = [&] { return ids[pick(ids.size())]; };
        const auto anyPair = [&] {
            const DcId src = pick(n);
            const DcId dst = (src + 1 + pick(n - 1)) % n;
            return std::make_pair(src, dst);
        };
        const auto anyCap = [&] {
            return rng.bernoulli(0.2) ? 0.0 : rng.uniform(20.0, 800.0);
        };
        const auto start = [&] {
            const VmId src = pick(vms);
            VmId dst = pick(vms);
            if (topo.vm(dst).dc == topo.vm(src).dc)
                dst = topo.dc((topo.vm(src).dc + 1) % n).vms.front();
            const int conns = 1 + static_cast<int>(pick(8));
            ids.push_back(
                rng.bernoulli(0.15)
                    ? sim.startMeasurement(src, dst, conns)
                    : sim.startTransfer(src, dst,
                                        units::megabytes(
                                            rng.uniform(5.0, 400.0)),
                                        conns, pick(5)));
        };
        for (int k = 0; k < 6; ++k)
            start();

        for (std::size_t step = 0; step < 50; ++step) {
            const std::size_t mutations = 1 + pick(3);
            for (std::size_t m = 0; m < mutations; ++m) {
                switch (pick(11)) {
                case 0:
                    start();
                    break;
                case 1:
                    sim.stopTransfer(anyId());
                    break;
                case 2:
                    sim.setConnections(anyId(),
                                       1 + static_cast<int>(pick(8)));
                    break;
                case 3: {
                    const auto [src, dst] = anyPair();
                    sim.setTcLimit(src, dst, anyCap());
                    break;
                }
                case 4: {
                    const auto [src, dst] = anyPair();
                    sim.setScenarioCapFactor(
                        src, dst,
                        rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.2, 1.5));
                    break;
                }
                case 5: {
                    const auto [src, dst] = anyPair();
                    sim.setScenarioRttFactor(src, dst,
                                             rng.uniform(0.5, 3.0));
                    break;
                }
                case 6:
                    sim.setGroupWeight(1 + pick(4), rng.uniform(0.5, 3.0));
                    break;
                case 7: {
                    // The same keys with new values.
                    std::vector<GroupPairCap> caps = sim.shareCaps();
                    for (GroupPairCap &c : caps)
                        c.cap = anyCap();
                    sim.installShareCaps(caps);
                    break;
                }
                case 8: {
                    std::vector<GroupPairCap> caps;
                    for (FlowGroupId g = 1; g <= 4; ++g) {
                        std::set<std::size_t> pairs;
                        for (std::size_t k = pick(4); k > 0; --k) {
                            const auto [src, dst] = anyPair();
                            pairs.insert(topo.pairIndex(src, dst));
                        }
                        for (const std::size_t pair : pairs)
                            caps.push_back({g, pair, anyCap()});
                    }
                    sim.installShareCaps(caps);
                    break;
                }
                case 9:
                    sim.clearGroupAllocations(1 + pick(4));
                    break;
                default:
                    sim.advanceBy(rng.uniform(0.0, 2.5));
                    break;
                }
            }

            const auto ref = oracle::MapKeyedSolverInputs::rates(sim);
            ASSERT_EQ(ref.size(), sim.activeTransferCount())
                << "seed " << seed << " step " << step;
            for (const auto &r : ref) {
                EXPECT_EQ(bitsOf(sim.transferRate(r.id)),
                          bitsOf(r.rate.rate))
                    << "seed " << seed << " step " << step << " flow "
                    << r.id;
                EXPECT_EQ(sim.transferBottleneck(r.id), r.rate.bottleneck)
                    << "seed " << seed << " step " << step << " flow "
                    << r.id;
            }
        }
    }
}

TEST(NetworkSim, SolveCountersPinTheLazyContract)
{
    const auto topo = paperTopo(4);
    auto vm = [&](DcId dc) { return topo.dc(dc).vms.front(); };
    NetworkSim sim(topo, NetworkSimConfig{}, 5);
    const TransferId a =
        sim.startTransfer(vm(0), vm(1), units::gigabytes(50.0), 2, 1);
    sim.startTransfer(vm(2), vm(3), units::gigabytes(50.0), 3, 2);
    sim.startMeasurement(vm(1), vm(0), 4);
    SolveCounts want;
    auto expectCounts = [&](const char *when) {
        EXPECT_EQ(sim.solveCounts().solves, want.solves) << when;
        EXPECT_EQ(sim.solveCounts().structureBuilds, want.structureBuilds)
            << when;
    };

    // A rate read after a mutation solves once; the next reads reuse it.
    expectCounts("before any read");
    EXPECT_GT(sim.transferRate(a), 0.0);
    (void)sim.pairRate(0, 1);
    (void)sim.groupRate(1);
    want = {1, 1};
    expectCounts("after the first reads");

    // status() never solves.
    sim.setConnections(a, 3);
    EXPECT_TRUE(sim.status(a).exists);
    expectCounts("after status()");
    (void)sim.pairRateMatrix();
    want = {2, 2};
    expectCounts("after the matrix read");

    // Ticks alone refill the kept structure: one solve each.
    for (int tick = 0; tick < 3; ++tick) {
        sim.advanceBy(NetworkSim::kTickInterval);
        (void)sim.transferRate(a);
    }
    want = {5, 2};
    expectCounts("after three ticks");

    // An advance ending on a tick leaves the tick's solve to the next
    // read, so the mutation right after it costs one solve, not two.
    sim.advanceBy(NetworkSim::kTickInterval);
    expectCounts("after an advance");
    sim.setConnections(a, 4);
    (void)sim.transferRate(a);
    want = {6, 3};
    expectCounts("after a mutation that follows an advance");

    // A value-only share-cap install builds nothing; a key change
    // builds once.
    const std::size_t p01 = topo.pairIndex(0, 1);
    const std::size_t p23 = topo.pairIndex(2, 3);
    sim.installShareCaps({{1, p01, 80.0}});
    (void)sim.transferRate(a);
    want = {7, 4};
    expectCounts("after new share-cap keys");
    sim.installShareCaps({{1, p01, 60.0}});
    (void)sim.transferRate(a);
    want = {8, 4};
    expectCounts("after new share-cap values");
    sim.installShareCaps({{1, p01, 60.0}, {2, p23, 50.0}});
    (void)sim.transferRate(a);
    want = {9, 5};
    expectCounts("after an added share-cap key");
}
