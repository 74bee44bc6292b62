#include "core/bandwidth_analyzer.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/thread_pool.hh"
#include "monitor/features.hh"
#include "scenario/scenario.hh"

namespace wanify {
namespace core {

using net::DcId;
using net::NetworkSim;
using net::Topology;
using net::TopologyBuilder;

BandwidthAnalyzer::BandwidthAnalyzer(AnalyzerConfig config)
    : config_(std::move(config)),
      incremental_(monitor::kFeatureCount)
{
    fatalIf(config_.clusterSizes.empty(),
            "BandwidthAnalyzer: no cluster sizes configured");
    for (std::size_t n : config_.clusterSizes)
        fatalIf(n < 2 || n > 256,
                "BandwidthAnalyzer: cluster sizes must be in [2, 256]");
    fatalIf(config_.meshesPerSize == 0,
            "BandwidthAnalyzer: meshesPerSize must be > 0");
    fatalIf(config_.dynamics != nullptr &&
                config_.dynamicsHorizon <= 0.0,
            "BandwidthAnalyzer: dynamicsHorizon must be > 0");
}

std::vector<std::uint64_t>
BandwidthAnalyzer::meshSeeds(const AnalyzerConfig &config,
                             std::uint64_t seed)
{
    return deriveSeeds(seed,
                       config.clusterSizes.size() *
                           config.meshesPerSize);
}

std::vector<CollectedMesh>
BandwidthAnalyzer::collectMeshes(std::uint64_t seed)
{
    const auto seeds = meshSeeds(config_, seed);
    const std::size_t perSize = config_.meshesPerSize;
    std::vector<CollectedMesh> meshes(seeds.size());

    // Meshes are independent simulations whose seeds are fixed up
    // front, so the campaign fans out on the pool and stays
    // bit-identical to a sequential collection.
    ThreadPool::global().parallelFor(
        seeds.size(), [&](std::size_t k) {
            const std::size_t n = config_.clusterSizes[k / perSize];
            const Topology topo =
                TopologyBuilder::paperTestbed(n, config_.vmType);
            Rng rng(seeds[k]);
            NetworkSim sim(topo, config_.sim, rng.next());
            // Random fluctuation phase so samples cover the network's
            // state space the way a week of collection does.
            sim.advanceBy(rng.uniform(0.0, config_.maxWarmup));

            std::shared_ptr<const scenario::Dynamics> dyn;
            if (config_.dynamics)
                dyn = config_.dynamics(n, k, seeds[k]);
            if (dyn != nullptr) {
                fatalIf(dyn->dcCount() != 0 && dyn->dcCount() != n,
                        "BandwidthAnalyzer: dynamics compiled for a "
                        "different cluster size");
                // Condition the mesh on a random instant of the
                // scenario, held through the gauge; bursts active at
                // that instant load the pairs they target.
                const Seconds t0 =
                    rng.uniform(0.0, config_.dynamicsHorizon);
                dyn->applyAt(sim, t0);
                for (const auto &b : dyn->burstsIn(-1.0, t0)) {
                    if (b.start + b.duration <= t0)
                        continue;
                    sim.startMeasurement(topo.endpointVm(b.src),
                                         topo.endpointVm(b.dst),
                                         b.connections);
                }
            }

            monitor::MeshMeasurer measurer(sim);
            Rng noiseRng = rng.split();
            CollectedMesh mesh;
            mesh.clusterSize = n;
            mesh.snapshotBw =
                measurer.snapshot(config_.measurement, noiseRng);
            mesh.stableBw = measurer.measureSimultaneous(
                config_.measurement.stableDuration,
                config_.measurement.connections);
            meshes[k] = std::move(mesh);
        });
    return meshes;
}

void
BandwidthAnalyzer::appendRows(ml::Dataset &out,
                              const net::Topology &topo,
                              const CollectedMesh &mesh, Rng &rng)
{
    const std::size_t n = mesh.clusterSize;
    fatalIf(topo.dcCount() != n,
            "BandwidthAnalyzer::appendRows: topology/mesh size "
            "mismatch");
    // One scratch row reused across the mesh's pairs; emitted through
    // the same into-buffer feature path the batched predictor uses.
    std::vector<double> row(monitor::kFeatureCount, 0.0);
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            monitor::HostLoad load;
            load.memUtil = rng.uniform(0.15, 0.75);
            load.cpuLoad = rng.uniform(0.1, 0.8);
            // Congestion proxy: how far the snapshot fell below
            // the single-connection capability of the pair.
            const double cap = topo.connCap(i, j);
            const double retrans = std::max(
                0.0, 1.0 - mesh.snapshotBw.at(i, j) /
                               std::max(cap, 1.0));
            monitor::pairFeaturesInto(topo, mesh.snapshotBw, i, j,
                                      load, retrans, row.data());
            out.add(row, mesh.stableBw.at(i, j));
        }
    }
}

ml::Dataset
BandwidthAnalyzer::flatten(const std::vector<CollectedMesh> &meshes,
                           std::uint64_t seed) const
{
    Rng rng(seed ^ 0x5bd1e995UL);
    ml::Dataset data(monitor::kFeatureCount);
    for (const auto &mesh : meshes) {
        const Topology topo = TopologyBuilder::paperTestbed(
            mesh.clusterSize, config_.vmType);
        appendRows(data, topo, mesh, rng);
    }
    return data;
}

std::size_t
BandwidthAnalyzer::absorb(const net::Topology &topo,
                          const std::vector<CollectedMesh> &meshes,
                          std::uint64_t seed)
{
    Rng rng(seed ^ 0xa2c68b19UL);
    const std::size_t before = incremental_.size();
    for (const auto &mesh : meshes)
        appendRows(incremental_, topo, mesh, rng);
    return incremental_.size() - before;
}

ml::Dataset
BandwidthAnalyzer::collect(std::uint64_t seed)
{
    return flatten(collectMeshes(seed), seed);
}

} // namespace core
} // namespace wanify
