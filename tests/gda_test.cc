/**
 * @file
 * Tests for the storage / cost / monitor / GDA layers: HDFS skew,
 * query cost accounting, Eq. 1 (Table 2's exact figures), the
 * measurement plane, schedulers, workload factories, and the engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "common/stats.hh"
#include "cost/cost_model.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "monitor/features.hh"
#include "monitor/iftop.hh"
#include "monitor/measurement.hh"
#include "sched/kimchi.hh"
#include "sched/locality.hh"
#include "sched/tetrium.hh"
#include "storage/hdfs.hh"
#include "workloads/ml_quantization.hh"
#include "workloads/terasort.hh"
#include "workloads/tpcds.hh"
#include "workloads/wordcount.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::experiments;
using test::whatOf;

// ---- storage ---------------------------------------------------------------

TEST(Hdfs, UniformLoadSpreadsEvenly)
{
    const auto topo = workerCluster(4);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(units::gigabytes(1.0));
    const auto dist = hdfs.distribution();
    for (net::DcId d = 1; d < 4; ++d)
        EXPECT_NEAR(dist[d], dist[0], 1.0);
    EXPECT_NEAR(hdfs.totalBytes(),
                units::gigabytes(1.0) * hdfs.config().s3ReadOverhead,
                1.0e4);
}

TEST(Hdfs, BlocksRespectBlockSize)
{
    const auto topo = workerCluster(2);
    storage::HdfsConfig cfg;
    cfg.blockSize = units::megabytes(64.0);
    storage::HdfsStore hdfs(topo, cfg);
    hdfs.loadUniform(units::megabytes(200.0));
    for (const auto &block : hdfs.blocks())
        EXPECT_LE(block.size, cfg.blockSize);
    // 100 MB per DC -> 2 blocks = 64 + 36.
    EXPECT_EQ(hdfs.blockCount(), 4u);
}

TEST(Hdfs, SkewWeightsReflectDistribution)
{
    const auto topo = workerCluster(4);
    storage::HdfsStore hdfs(topo);
    hdfs.loadSkewed(units::gigabytes(1.0), {0.7, 0.1, 0.1, 0.1});
    const auto ws = hdfs.skewWeights();
    EXPECT_NEAR(ws[0], 2.8, 0.01); // 0.7 * 4
    EXPECT_NEAR(ws[1], 0.4, 0.01);
    // Uniform data -> all-ones weights.
    hdfs.loadUniform(units::gigabytes(1.0));
    for (double w : hdfs.skewWeights())
        EXPECT_NEAR(w, 1.0, 0.01);
}

TEST(Hdfs, SkewFractionsValidated)
{
    const auto topo = workerCluster(2);
    storage::HdfsStore hdfs(topo);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { hdfs.loadSkewed(1000.0, {0.6, 0.6}); }),
              "fatal: HdfsStore::loadSkewed: fractions must sum to 1");
    EXPECT_EQ(
        whatOf<FatalError>([&] { hdfs.loadSkewed(1000.0, {1.0}); }),
        "fatal: HdfsStore::loadSkewed: fraction count mismatch");
    // A NaN fraction passes the sum check, and would put 0 bytes at
    // its DC without an error.
    EXPECT_EQ(
        whatOf<FatalError>([&] { hdfs.loadSkewed(1e9, {nan, 1.0}); }),
        "fatal: HdfsStore::loadSkewed: fractions must be finite");
    // A NaN total loads no block; +inf never leaves the block loop.
    const std::string nonFinite =
        "fatal: HdfsStore: totalBytes must be finite";
    EXPECT_EQ(
        whatOf<FatalError>([&] { hdfs.loadSkewed(nan, {0.5, 0.5}); }),
        nonFinite);
    EXPECT_EQ(
        whatOf<FatalError>([&] { hdfs.loadSkewed(inf, {0.5, 0.5}); }),
        nonFinite);
    EXPECT_EQ(whatOf<FatalError>([&] { hdfs.loadUniform(nan); }),
              nonFinite);
    EXPECT_EQ(whatOf<FatalError>([&] { hdfs.loadUniform(inf); }),
              nonFinite);
    EXPECT_EQ(hdfs.blockCount(), 0u);
}

// ---- cost --------------------------------------------------------------------

TEST(Cost, Table2RuntimeMonitoringExact)
{
    // Eq. 1 with the paper's parameters reproduces Table 2's runtime
    // column: $703 / $1055 / $1406.
    cost::MonitoringCostParams p;
    p.occurrencesPerYear = cost::occurrencesPerYear(30.0);
    p.perInstanceSecond = 0.0052 / 3600.0;
    p.duration = 20.0;
    p.perInstanceNetwork =
        cost::monitoringNetworkCost(200.0, 20.0, 0.02);

    p.nodes = 4;
    EXPECT_NEAR(cost::annualMonitoringCost(p), 703.0, 2.0);
    p.nodes = 6;
    EXPECT_NEAR(cost::annualMonitoringCost(p), 1055.0, 2.0);
    p.nodes = 8;
    EXPECT_NEAR(cost::annualMonitoringCost(p), 1406.0, 2.0);
}

TEST(Cost, NetworkCostUsesSourceEgressPricing)
{
    const auto topo = workerCluster(8);
    const cost::CostModel model(topo);
    Matrix<Bytes> bytes = Matrix<Bytes>::square(8, 0.0);
    bytes.at(0, 1) = 1.0e9; // 1 GB out of us-east at $0.02
    bytes.at(7, 0) = 1.0e9; // 1 GB out of sa-east at $0.138
    EXPECT_NEAR(model.networkCost(bytes), 0.02 + 0.138, 1e-9);
}

TEST(Cost, ComputeCostIncludesBurstSurcharge)
{
    const auto topo = workerCluster(2);
    const cost::CostModel model(topo);
    // t2.medium: $0.0464/h + 2 vCPU * $0.05/h = $0.1464/h.
    EXPECT_NEAR(model.vmComputeCost(0, 3600.0), 0.1464, 1e-6);
}

TEST(Cost, QueryBreakdownSumsComponents)
{
    const auto topo = workerCluster(2);
    const cost::CostModel model(topo);
    Matrix<Bytes> bytes = Matrix<Bytes>::square(2, 0.0);
    bytes.at(0, 1) = 5.0e8;
    const auto breakdown = model.queryCost(600.0, bytes, 10.0);
    EXPECT_GT(breakdown.compute, 0.0);
    EXPECT_GT(breakdown.network, 0.0);
    EXPECT_GT(breakdown.storage, 0.0);
    EXPECT_NEAR(breakdown.total(),
                breakdown.compute + breakdown.network +
                    breakdown.storage,
                1e-12);
}

// ---- monitor ---------------------------------------------------------------------

TEST(Measurement, IndependentMatchesSingleConnCaps)
{
    const auto topo = monitoringCluster(4);
    const auto simCfg = quietSimConfig();
    const monitor::MeasurementConfig mc;
    const auto bw =
        monitor::staticIndependentBw(topo, simCfg, mc, 1);
    for (net::DcId i = 0; i < 4; ++i) {
        for (net::DcId j = 0; j < 4; ++j) {
            if (i == j)
                continue;
            EXPECT_NEAR(bw.at(i, j), topo.connCap(i, j),
                        0.02 * topo.connCap(i, j));
        }
    }
}

TEST(Measurement, SimultaneousIsContended)
{
    const auto topo = monitoringCluster(8);
    const auto simCfg = quietSimConfig();
    const monitor::MeasurementConfig mc;
    const auto indep =
        monitor::staticIndependentBw(topo, simCfg, mc, 1);
    const auto simult =
        monitor::staticSimultaneousBw(topo, simCfg, mc, 1);
    // Contention can only hold a pair at or below its solo BW.
    std::size_t reduced = 0;
    for (net::DcId i = 0; i < 8; ++i) {
        for (net::DcId j = 0; j < 8; ++j) {
            if (i == j)
                continue;
            EXPECT_LE(simult.at(i, j), indep.at(i, j) * 1.02);
            reduced += simult.at(i, j) < 0.9 * indep.at(i, j);
        }
    }
    EXPECT_GT(reduced, 10u); // many pairs materially degraded
}

TEST(Measurement, SnapshotCorrelatesWithStable)
{
    // Section 2.2: 1-second snapshots have positive Pearson
    // correlation with >= 20-second stable BWs.
    const auto topo = monitoringCluster(6);
    net::NetworkSim sim(topo, defaultSimConfig(), 99);
    sim.advanceBy(20.0);
    monitor::MeshMeasurer measurer(sim);
    Rng rng(7);
    monitor::MeasurementConfig mc;
    const auto snap = measurer.snapshot(mc, rng);
    const auto stable = measurer.measureSimultaneous(20.0, 1);
    std::vector<double> xs, ys;
    for (net::DcId i = 0; i < 6; ++i) {
        for (net::DcId j = 0; j < 6; ++j) {
            if (i == j)
                continue;
            xs.push_back(snap.at(i, j));
            ys.push_back(stable.at(i, j));
        }
    }
    EXPECT_GT(stats::pearson(xs, ys), 0.8);
}

TEST(IfTop, WindowAveragesMatchMovedBytes)
{
    const auto topo = monitoringCluster(2);
    net::NetworkSim sim(topo, quietSimConfig(), 1);
    monitor::IfTop iftop(sim, 0);
    sim.startMeasurement(topo.dc(0).vms.front(),
                         topo.dc(1).vms.front(), 1);
    iftop.beginWindow();
    sim.advanceBy(5.0);
    const auto rates = iftop.endWindow();
    EXPECT_NEAR(rates[1], 1718.8, 30.0);
    EXPECT_DOUBLE_EQ(rates[0], 0.0);
}

TEST(Features, TableThreeLayout)
{
    const auto topo = monitoringCluster(4);
    const Matrix<Mbps> snap = Matrix<Mbps>::square(4, 321.0);
    monitor::HostLoad load;
    load.memUtil = 0.5;
    load.cpuLoad = 0.25;
    const auto f =
        monitor::pairFeatures(topo, snap, 0, 2, load, 0.1);
    ASSERT_EQ(f.size(), monitor::kFeatureCount);
    EXPECT_DOUBLE_EQ(f[monitor::FeatN], 4.0);
    EXPECT_DOUBLE_EQ(f[monitor::FeatSnapshotBw], 321.0);
    EXPECT_DOUBLE_EQ(f[monitor::FeatMemUtil], 0.5);
    EXPECT_DOUBLE_EQ(f[monitor::FeatCpuLoad], 0.25);
    EXPECT_DOUBLE_EQ(f[monitor::FeatRetrans], 0.1);
    EXPECT_NEAR(f[monitor::FeatDistance],
                units::toMiles(topo.distanceKm(0, 2)), 1e-6);
}

// ---- schedulers -------------------------------------------------------------------

namespace {

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

TEST(Schedulers, AssignmentsConserveInput)
{
    const auto topo = workerCluster(4);
    const Matrix<Mbps> bw = Matrix<Mbps>::square(4, 500.0);
    const gda::StageSpec stage{"s", 1.0, 0.05, true};
    const std::vector<Bytes> input = {4.0e9, 1.0e9, 2.0e9, 3.0e9};

    sched::LocalityScheduler locality;
    sched::TetriumScheduler tetrium;
    sched::KimchiScheduler kimchi;
    for (gda::Scheduler *sched :
         {static_cast<gda::Scheduler *>(&locality),
          static_cast<gda::Scheduler *>(&tetrium),
          static_cast<gda::Scheduler *>(&kimchi)}) {
        const auto ctx = contextFor(topo, bw, stage, input, 1);
        const auto a = sched->placeStage(ctx);
        for (std::size_t i = 0; i < 4; ++i) {
            Bytes rowSum = 0.0;
            for (std::size_t j = 0; j < 4; ++j) {
                EXPECT_GE(a.at(i, j), -1.0);
                rowSum += a.at(i, j);
            }
            EXPECT_NEAR(rowSum, input[i], 1.0) << sched->name();
        }
    }
}

TEST(Schedulers, LocalityMapStageStaysLocal)
{
    const auto topo = workerCluster(3);
    const Matrix<Mbps> bw = Matrix<Mbps>::square(3, 500.0);
    const gda::StageSpec stage{"map", 1.0, 0.05, true};
    sched::LocalityScheduler locality;
    const auto ctx = contextFor(topo, bw, stage,
                                {1.0e9, 2.0e9, 3.0e9}, 0);
    const auto a = locality.placeStage(ctx);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(a.at(i, j), i == j ? ctx.inputByDc[i]
                                                : 0.0);
}

TEST(Schedulers, TetriumAvoidsWeakInboundDc)
{
    const auto topo = workerCluster(3);
    // DC 2's inbound links are terrible.
    Matrix<Mbps> bw = Matrix<Mbps>::square(3, 1000.0);
    bw.at(0, 2) = bw.at(1, 2) = 10.0;
    const gda::StageSpec stage{"reduce", 1.0, 0.001, true};
    sched::TetriumScheduler tetrium;
    const auto ctx = contextFor(topo, bw, stage,
                                {3.0e9, 3.0e9, 3.0e9}, 1);
    const auto a = tetrium.placeStage(ctx);
    // Work shipped INTO DC 2 should be far less than into DC 0.
    Bytes into2 = a.at(0, 2) + a.at(1, 2);
    Bytes into0 = a.at(1, 0) + a.at(2, 0);
    EXPECT_LT(into2, 0.5 * into0);
}

TEST(Schedulers, KimchiPrefersCheapEgress)
{
    const auto topo = workerCluster(8);
    const Matrix<Mbps> bw = Matrix<Mbps>::square(8, 800.0);
    const gda::StageSpec stage{"reduce", 1.0, 0.001, true};
    // All input sits in Sao Paulo (egress $0.138/GB).
    std::vector<Bytes> input(8, 0.0);
    input[7] = 8.0e9;

    sched::KimchiScheduler cheap(600.0);
    sched::TetriumScheduler latencyOnly;
    const auto ctxK = contextFor(topo, bw, stage, input, 1);
    const auto aK = cheap.placeStage(ctxK);
    const auto ctxT = contextFor(topo, bw, stage, input, 1);
    const auto aT = latencyOnly.placeStage(ctxT);

    const auto ctxCost = contextFor(topo, bw, stage, input, 1);
    EXPECT_LT(gda::estimateStageCost(ctxCost, aK),
              gda::estimateStageCost(ctxCost, aT) + 1e-9);
    // Kimchi keeps more of the expensive-egress data at home.
    EXPECT_GE(aK.at(7, 7), aT.at(7, 7) - 1.0);
}

// ---- workloads ---------------------------------------------------------------------

TEST(Workloads, TeraSortShuffleEqualsInput)
{
    const auto job = workloads::teraSort(10.0);
    EXPECT_EQ(job.stages.size(), 2u);
    EXPECT_DOUBLE_EQ(job.stages[0].selectivity, 1.0);
    EXPECT_DOUBLE_EQ(job.stages[1].selectivity, 1.0);
    EXPECT_NEAR(job.inputBytes, units::gigabytes(10.0), 1.0);
}

TEST(Workloads, WordCountIntermediateControlled)
{
    const auto job = workloads::wordCount(600.0, 120.0);
    EXPECT_NEAR(job.stages[0].selectivity, 0.2, 1e-9);
    EXPECT_THROW(workloads::wordCount(0.0, 1.0), FatalError);
}

TEST(Workloads, TpcDsClassesOrderedByWeight)
{
    using workloads::TpcDsQuery;
    const auto q82 = workloads::tpcDsQuery(TpcDsQuery::Q82);
    const auto q78 = workloads::tpcDsQuery(TpcDsQuery::Q78);
    // The heavy query moves more intermediate data overall.
    auto shuffleVolume = [](const gda::JobSpec &job) {
        double total = 0.0, size = 1.0;
        for (const auto &s : job.stages) {
            size *= s.selectivity;
            total += size;
        }
        return total;
    };
    EXPECT_GT(shuffleVolume(q78), 5.0 * shuffleVolume(q82));
    EXPECT_EQ(workloads::queryWeight(TpcDsQuery::Q82),
              workloads::QueryWeight::Light);
    EXPECT_EQ(workloads::queryWeight(TpcDsQuery::Q78),
              workloads::QueryWeight::Heavy);
    EXPECT_EQ(workloads::allQueries().size(), 4u);
}

TEST(Workloads, QuantizationBitsFollowBw)
{
    EXPECT_EQ(workloads::quantizationBits(50.0), 8);
    EXPECT_EQ(workloads::quantizationBits(250.0), 16);
    EXPECT_EQ(workloads::quantizationBits(800.0), 32);
}

// ---- engine ------------------------------------------------------------------------

namespace {

gda::QueryResult
runTeraSortOnce(core::Wanify *wanify, int conns,
                std::uint64_t seed = 5150)
{
    const auto topo = workerCluster(4);
    const auto job = workloads::teraSort(8.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    sched::LocalityScheduler locality;

    gda::Engine engine(topo, defaultSimConfig(), seed);
    gda::RunOptions opts;
    opts.schedulerBw = monitor::staticIndependentBw(
        topo, quietSimConfig(), monitor::MeasurementConfig{}, 3);
    opts.wanify = wanify;
    if (conns > 0)
        opts.staticConnections = Matrix<int>::square(4, conns);
    return engine.run(job, hdfs.distribution(), locality, opts);
}

} // namespace

TEST(Engine, ProducesSaneQueryResult)
{
    const auto result = runTeraSortOnce(nullptr, 1);
    EXPECT_GT(result.latency, 10.0);
    EXPECT_LT(result.latency, 3600.0);
    EXPECT_GT(result.cost.total(), 0.0);
    EXPECT_GT(result.minObservedBw, 0.0);
    ASSERT_EQ(result.stages.size(), 2u);
    // TeraSort reduce shuffles 3/4 of the data across the WAN.
    EXPECT_NEAR(result.stages[1].wanBytes,
                units::gigabytes(8.0) * 1.03 * 0.75, 2.0e8);
    EXPECT_GT(result.stages[1].end, result.stages[1].start);
}

TEST(Engine, WanBytesMatchPairAccounting)
{
    const auto result = runTeraSortOnce(nullptr, 1);
    Bytes total = 0.0;
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            total += result.wanBytesByPair.at(i, j);
    Bytes fromStages = 0.0;
    for (const auto &s : result.stages)
        fromStages += s.wanBytes;
    EXPECT_NEAR(total, fromStages, 1.0e6);
}

TEST(Engine, ParallelConnectionsReduceLatency)
{
    const auto single = runTeraSortOnce(nullptr, 1);
    const auto parallel = runTeraSortOnce(nullptr, 4);
    EXPECT_LT(parallel.latency, single.latency);
    EXPECT_GT(parallel.minObservedBw, single.minObservedBw);
}

TEST(Engine, DeterministicForSameSeed)
{
    const auto a = runTeraSortOnce(nullptr, 2, 777);
    const auto b = runTeraSortOnce(nullptr, 2, 777);
    EXPECT_DOUBLE_EQ(a.latency, b.latency);
    EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
}

TEST(Engine, RejectsBadInputs)
{
    const auto topo = workerCluster(2);
    gda::Engine engine(topo, quietSimConfig(), 1);
    sched::LocalityScheduler locality;
    gda::JobSpec empty;
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(2, 100.0);
    EXPECT_EQ(whatOf<FatalError>([&] {
                  engine.run(empty, {1.0, 1.0}, locality, opts);
              }),
              "fatal: Engine::run: job has no stages");
    const auto job = workloads::teraSort(1.0);
    EXPECT_EQ(whatOf<FatalError>(
                  [&] { engine.run(job, {1.0}, locality, opts); }),
              "fatal: Engine::run: input distribution size mismatch");
    for (const Bytes bad : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -1.0e9})
        EXPECT_EQ(whatOf<FatalError>([&] {
                      engine.run(job, {1.0, bad}, locality, opts);
                  }),
                  "fatal: Engine::run: input bytes must be finite and "
                  "non-negative")
            << "input " << bad;
}

namespace {

std::string
hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

} // namespace

TEST(Engine, StageGuardCutsEachShuffleAndBillsItWhole)
{
    // No 40 GB TeraSort shuffles in 5 s: the guard cuts both stages'
    // shuffles at the cap and bills their transfers whole, as if they
    // finished at the cut. Recorded before the engine routed its
    // transfers through QueryExecution::complete and abandon.
    const auto topo = workerCluster(4);
    const auto job = workloads::teraSort(40.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadSkewed(job.inputBytes, {0.55, 0.25, 0.15, 0.05});
    sched::TetriumScheduler tetrium;

    gda::Engine engine(topo, defaultSimConfig(), 11);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
    opts.maxStageSeconds = 5.0;
    const auto r = engine.run(job, hdfs.distribution(), tetrium, opts);

    Bytes billed = 0.0;
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            billed += r.wanBytesByPair.at(i, j);
    EXPECT_EQ(hex(r.latency), "0x1.df9fbe76c8b44p+9");
    EXPECT_EQ(hex(r.minObservedBw), "0x1.ba61b299e8158p+9");
    EXPECT_EQ(hex(billed), "0x1.1046cfde9a596p+33");
    EXPECT_EQ(hex(r.cost.total()), "0x1.41dd9572f6415p-1");
    ASSERT_EQ(r.stages.size(), 2u);
    for (const auto &stage : r.stages)
        EXPECT_EQ(stage.transferEnd - stage.start, 5.0) << stage.name;
}

// ---- query execution: a transfer's lifecycle -------------------------------------

namespace {

/** One shuffle stage whose compute phase takes no time, so
 *  computeEnd(0) reads the last landing time. */
gda::JobSpec
shuffleOnlyJob()
{
    gda::StageSpec stage;
    stage.name = "shuffle";
    stage.workPerMb = 0.0;
    gda::JobSpec job;
    job.name = "shuffle-only";
    job.stages.push_back(stage);
    job.inputBytes = 6.0e8;
    return job;
}

/** Open @p exec's shuffle on @p sim: DC 0 keeps nothing and sends
 *  4e8 bytes to DC 1 and 2e8 to DC 2. */
void
openShuffle(gda::QueryExecution &exec, net::NetworkSim &sim)
{
    Matrix<Bytes> placed = Matrix<Bytes>::square(3, 0.0);
    placed.at(0, 1) = 4.0e8;
    placed.at(0, 2) = 2.0e8;
    exec.beginShuffle(placed, sim.now(),
                      [&](net::DcId i, net::DcId j, Bytes bytes) {
                          exec.start(sim, i, j, bytes, 1);
                      });
}

} // namespace

TEST(QueryExecution, CompleteRoutesOnlyItsOwnPendingTransfers)
{
    const auto topo = workerCluster(3);
    const auto job = shuffleOnlyJob();
    net::NetworkSim sim(topo, quietSimConfig(), 7);
    gda::QueryExecution exec(topo, job, {6.0e8, 0.0, 0.0});
    openShuffle(exec, sim);
    ASSERT_EQ(exec.pending().size(), 2u);
    // Another tenant's transfer on the same sim.
    const net::TransferId foreign = sim.startTransfer(
        topo.endpointVm(1), topo.endpointVm(2), 1.0e8, 1);

    sim.runUntilAllComplete();
    const auto records = sim.drainCompletions();
    ASSERT_EQ(records.size(), 3u);
    Seconds lastLanding = 0.0;
    for (const net::CompletionRecord &rec : records) {
        const auto t = exec.complete(rec);
        if (rec.id == foreign) {
            EXPECT_FALSE(t.has_value());
            continue;
        }
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->done, rec.time);
        EXPECT_EQ(t->src, 0u);
        EXPECT_EQ(t->bytes, t->dst == 1 ? 4.0e8 : 2.0e8);
        EXPECT_FALSE(exec.complete(rec).has_value()) << "repeated record";
        lastLanding = std::max(lastLanding, rec.time);
    }
    EXPECT_TRUE(exec.pending().empty());
    EXPECT_TRUE(exec.retired().empty());
    EXPECT_GT(lastLanding, 0.0);
    EXPECT_EQ(exec.computeEnd(0.0), lastLanding);
}

TEST(QueryExecution, StopLandsTheDeliveredPartNow)
{
    const auto topo = workerCluster(3);
    const auto job = shuffleOnlyJob();
    net::NetworkSim sim(topo, quietSimConfig(), 7);
    gda::QueryExecution exec(topo, job, {6.0e8, 0.0, 0.0});
    openShuffle(exec, sim);
    sim.advanceBy(0.5);
    net::TransferId toDc1 = 0;
    for (const auto &[id, t] : exec.pending())
        if (t.dst == 1)
            toDc1 = id;
    const net::TransferStatus st = sim.status(toDc1);
    ASSERT_TRUE(st.exists);
    ASSERT_GE(st.bytesRemaining, 1.0);

    const Seconds stopAt = sim.now();
    const auto rest = exec.stop(sim, toDc1, 1.0);
    ASSERT_TRUE(rest.has_value());
    EXPECT_EQ(rest->bytes, st.bytesRemaining);
    EXPECT_EQ(exec.assignment().at(0, 1), 4.0e8 - st.bytesRemaining);
    ASSERT_EQ(exec.retired().size(), 1u);
    EXPECT_EQ(exec.retired()[0].bytes, st.bytesMoved);
    EXPECT_EQ(exec.retired()[0].done, stopAt);
    EXPECT_EQ(exec.computeEnd(0.0), stopAt);

    // The other transfer lands later and moves the end with it.
    sim.runUntilAllComplete();
    const auto records = sim.drainCompletions();
    ASSERT_EQ(records.size(), 1u);
    const auto t = exec.complete(records[0]);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->dst, 2u);
    EXPECT_GT(t->done, stopAt);
    EXPECT_EQ(exec.computeEnd(0.0), t->done);
}

TEST(QueryExecution, AbandonRetiresEveryTransferWholeAtNow)
{
    const auto topo = workerCluster(3);
    const auto job = shuffleOnlyJob();
    net::NetworkSim sim(topo, quietSimConfig(), 7);
    gda::QueryExecution exec(topo, job, {6.0e8, 0.0, 0.0});
    openShuffle(exec, sim);
    sim.advanceBy(0.5);
    for (const auto &[id, t] : exec.pending())
        ASSERT_GE(sim.status(id).bytesRemaining, 1.0);

    exec.abandon(sim);
    EXPECT_EQ(sim.activeTransferCount(), 0u);
    EXPECT_TRUE(exec.pending().empty());
    ASSERT_EQ(exec.retired().size(), 2u);
    for (const gda::ShuffleTransfer &t : exec.retired()) {
        EXPECT_EQ(t.done, sim.now());
        EXPECT_EQ(t.bytes, t.dst == 1 ? 4.0e8 : 2.0e8);
    }
    // Whole: the bytes stay in the assignment and land at the cut.
    EXPECT_EQ(exec.assignment().at(0, 1), 4.0e8);
    EXPECT_EQ(exec.assignment().at(0, 2), 2.0e8);
    EXPECT_EQ(exec.computeEnd(0.0), sim.now());
    sim.advanceBy(10.0);
    EXPECT_TRUE(sim.drainCompletions().empty());
}

TEST(QueryExecution, RedispatchKeepsTheAssignmentAndPendingPairsFollow)
{
    const auto topo = workerCluster(3);
    const auto job = shuffleOnlyJob();
    net::NetworkSim sim(topo, quietSimConfig(), 7);
    gda::QueryExecution exec(topo, job, {6.0e8, 0.0, 0.0});
    using Pairs = std::vector<std::size_t>;
    const net::PairIndex pairs(3);
    const Pairs both{pairs(0, 1), pairs(0, 2)};
    EXPECT_TRUE(exec.pendingPairs().empty());
    openShuffle(exec, sim);
    // A second transfer on 0 -> 1: the pair is listed once.
    exec.start(sim, 0, 1, 3.0e8, 1);
    const net::TransferId second = exec.pending().rbegin()->first;
    EXPECT_EQ(exec.pendingPairs(), both);
    sim.advanceBy(0.5);

    net::TransferId toDc2 = 0;
    for (const auto &[id, t] : exec.pending())
        if (t.dst == 2)
            toDc2 = id;
    const net::TransferStatus st = sim.status(toDc2);
    ASSERT_GE(st.bytesRemaining, 1.0);
    const auto again = exec.redispatch(sim, toDc2, 4, 0);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->bytes, st.bytesRemaining);
    EXPECT_EQ(again->connections, 4);
    EXPECT_EQ(again->redispatches, 1);
    EXPECT_EQ(again->started, sim.now());
    EXPECT_FALSE(sim.status(toDc2).exists);
    EXPECT_EQ(exec.pending().size(), 3u);
    EXPECT_EQ(exec.assignment().at(0, 2), 2.0e8);
    EXPECT_EQ(exec.pendingPairs(), both);
    EXPECT_FALSE(exec.redispatch(sim, toDc2, 4, 0).has_value());

    // A pair leaves the list with its last pending transfer.
    ASSERT_TRUE(exec.stop(sim, second, 0.0).has_value());
    EXPECT_EQ(exec.pendingPairs(), both);
    exec.stopInFlight(sim);
    EXPECT_TRUE(exec.pending().empty());
    EXPECT_TRUE(exec.pendingPairs().empty());

    openShuffle(exec, sim);
    sim.runUntilAllComplete();
    for (const net::CompletionRecord &rec : sim.drainCompletions())
        exec.complete(rec);
    EXPECT_TRUE(exec.pendingPairs().empty());
    openShuffle(exec, sim);
    exec.abandon(sim);
    EXPECT_TRUE(exec.pendingPairs().empty());
    openShuffle(exec, sim);
    exec.restart({6.0e8, 0.0, 0.0});
    EXPECT_TRUE(exec.pendingPairs().empty());
}

// ---- ML workload ----------------------------------------------------------------------

TEST(MlQuantization, QuantizedTrainingIsFasterThanFullPrecision)
{
    const auto topo = workerCluster(4);
    workloads::MlModelSpec spec;
    spec.epochs = 2;
    spec.syncsPerEpoch = 150;
    const workloads::MlQuantizationJob job(spec);

    const auto noq = job.run(topo, defaultSimConfig(), 9,
                             std::nullopt, nullptr);
    // Quantize from a pessimistic matrix -> all links coarse.
    const Matrix<Mbps> slow = Matrix<Mbps>::square(4, 50.0);
    const auto quant =
        job.run(topo, defaultSimConfig(), 9, slow, nullptr);

    EXPECT_LT(quant.trainingTime, noq.trainingTime);
    EXPECT_LT(quant.cost.network, noq.cost.network);
    EXPECT_EQ(noq.epochTimes.size(), 2u);
    EXPECT_GT(quant.testAccuracy, 96.0);
}
