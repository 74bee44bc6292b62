/**
 * @file
 * Component micro-benchmarks (google-benchmark): the hot paths of the
 * WANify stack — the weighted max-min flow solver, Random Forest
 * inference, Algorithm 1, and the Eq. 2/3 global optimizer — plus the
 * DESIGN.md ablation showing that the RTT-bias weighting is
 * load-bearing (unweighted max-min erases the Fig. 2(b) starvation).
 */

#include <benchmark/benchmark.h>

#include "core/dc_relations.hh"
#include "core/global_optimizer.hh"
#include "experiments/predictor_factory.hh"
#include "experiments/testbed.hh"
#include "ml/compiled_forest.hh"
#include "monitor/features.hh"
#include "net/flow_solver.hh"
#include "net/network_sim.hh"

using namespace wanify;

namespace {

/** Full-mesh flow set on the n-DC monitoring testbed. */
std::pair<std::vector<net::FlowSpec>, net::SolverInputs>
meshProblem(std::size_t n, int connections, bool rttWeights)
{
    const auto topo = experiments::monitoringCluster(n);
    std::vector<net::FlowSpec> flows;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            net::FlowSpec spec;
            spec.srcVm = topo.dc(i).vms.front();
            spec.dstVm = topo.dc(j).vms.front();
            spec.srcDc = i;
            spec.dstDc = j;
            spec.connections = connections;
            const Seconds rtt = topo.rttSeconds(i, j);
            spec.weightPerConn =
                rttWeights ? 1.0 / (rtt * rtt) : 1.0;
            spec.capPerConn = topo.connCap(i, j);
            flows.push_back(spec);
        }
    }
    net::SolverInputs inputs;
    inputs.dcCount = n;
    inputs.vmEgressCap.assign(topo.vmCount(), 2900.0);
    inputs.vmIngressCap.assign(topo.vmCount(), 2900.0);
    inputs.vmNicCap.assign(topo.vmCount(), 5800.0);
    inputs.pathCap.assign(n * n, 2900.0);
    return {flows, inputs};
}

void
BM_FlowSolverMesh8(benchmark::State &state)
{
    auto [flows, inputs] = meshProblem(8, 4, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(net::solveRates(flows, inputs));
}
BENCHMARK(BM_FlowSolverMesh8);

void
BM_FlowSolverMesh8Unweighted(benchmark::State &state)
{
    // DESIGN ablation: without RTT bias the allocation equalizes and
    // the weak-link starvation of Fig. 2(b) disappears.
    auto [flows, inputs] = meshProblem(8, 4, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(net::solveRates(flows, inputs));
}
BENCHMARK(BM_FlowSolverMesh8Unweighted);

void
BM_NetworkSimAdvance(benchmark::State &state)
{
    const auto topo = experiments::monitoringCluster(8);
    net::NetworkSim sim(topo, experiments::defaultSimConfig(), 5);
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            if (i != j)
                sim.startMeasurement(topo.dc(i).vms.front(),
                                     topo.dc(j).vms.front(), 4);
    for (auto _ : state)
        sim.advanceBy(1.0);
}
BENCHMARK(BM_NetworkSimAdvance);

void
BM_RandomForestPredict(benchmark::State &state)
{
    const auto predictor = experiments::sharedPredictor();
    const std::vector<double> features = {8.0, 250.0, 0.4,
                                          0.3, 0.1, 9000.0};
    for (auto _ : state)
        benchmark::DoNotOptimize(predictor->predictPair(features));
}
BENCHMARK(BM_RandomForestPredict);

void
BM_RandomForestPredictCompiled(benchmark::State &state)
{
    // The allocation-free compiled walk of the same ensemble
    // BM_RandomForestPredict evaluates through the batch facade.
    const auto predictor = experiments::sharedPredictor();
    const ml::CompiledForest &compiled =
        predictor->forest().compiled();
    const std::vector<double> features = {8.0, 250.0, 0.4,
                                          0.3, 0.1, 9000.0};
    for (auto _ : state)
        benchmark::DoNotOptimize(compiled.predictRow(features.data()));
}
BENCHMARK(BM_RandomForestPredictCompiled);

void
BM_PredictMatrixBatched8(benchmark::State &state)
{
    // The full predict->plan input: all 56 ordered pairs of an 8-DC
    // mesh through one batched inference.
    const auto predictor = experiments::sharedPredictor();
    const auto topo = experiments::monitoringCluster(8);
    Matrix<Mbps> snapshot = Matrix<Mbps>::square(8, 0.0);
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            snapshot.at(i, j) =
                i == j ? 5800.0 : topo.connCap(i, j);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            predictor->predictMatrix(topo, snapshot));
}
BENCHMARK(BM_PredictMatrixBatched8);

void
BM_InferDcRelations(benchmark::State &state)
{
    const auto topo = experiments::monitoringCluster(8);
    Matrix<Mbps> bw = Matrix<Mbps>::square(8, 0.0);
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            bw.at(i, j) = i == j ? 5800.0 : topo.connCap(i, j);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::inferDcRelations(bw, 100.0));
}
BENCHMARK(BM_InferDcRelations);

void
BM_GlobalOptimize(benchmark::State &state)
{
    const auto topo = experiments::monitoringCluster(8);
    Matrix<Mbps> bw = Matrix<Mbps>::square(8, 0.0);
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            bw.at(i, j) = i == j ? 5800.0 : topo.connCap(i, j);
    core::GlobalOptimizer optimizer;
    for (auto _ : state)
        benchmark::DoNotOptimize(optimizer.optimize(bw));
}
BENCHMARK(BM_GlobalOptimize);

} // namespace

BENCHMARK_MAIN();
