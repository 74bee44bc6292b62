/**
 * @file
 * Offline Bandwidth Analyzer (Section 4.1.1): collects training data for
 * the WAN Prediction Model.
 *
 * For each sample the analyzer spins up the configured testbed, lets the
 * fluctuation process reach a random phase, takes a 1-second snapshot
 * mesh measurement, then measures the stable (>= 20 s) runtime BW on the
 * same network trajectory. Each ordered DC pair contributes one training
 * row: Table 3 features -> stable runtime BW. Cluster sizes are cycled
 * through [2, Nmax] so a single model serves any cluster size (Section
 * 3.3.2).
 *
 * Two extensions beyond the paper's offline campaign:
 *
 *  - scenario conditioning: an AnalyzerConfig::dynamics hook applies a
 *    scenario timeline (outages, diurnal troughs, degradations) to each
 *    mesh's simulator before gauging, so the training distribution
 *    covers the non-stationary regimes the drift detector later fires
 *    on instead of only stationary noise;
 *  - incremental mode: meshes gauged mid-run (the Section 3.3.4
 *    retraining path) are flattened against the live cluster's topology
 *    and appended into a growing dataset for warm-start retraining.
 */

#ifndef WANIFY_CORE_BANDWIDTH_ANALYZER_HH
#define WANIFY_CORE_BANDWIDTH_ANALYZER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ml/dataset.hh"
#include "monitor/measurement.hh"
#include "net/network_sim.hh"
#include "net/topology.hh"

namespace wanify {

namespace scenario {
class Dynamics;
} // namespace scenario

namespace core {

/** Analyzer configuration. */
struct AnalyzerConfig
{
    /**
     * Cluster sizes to collect for (paper: [2, Nmax]). Sizes beyond
     * the 8 paper regions use RegionCatalog::scaledMesh metro zones,
     * up to the 256-DC scale the mesh sweep exercises.
     */
    std::vector<std::size_t> clusterSizes = {4, 6, 8};

    /** Mesh measurements per cluster size. */
    std::size_t meshesPerSize = 40;

    /** VM type hosting the probes. */
    net::VmType vmType = net::VmTypeCatalog::t3nano();

    monitor::MeasurementConfig measurement;
    net::NetworkSimConfig sim;

    /** Random warm-up before sampling, so phases differ. */
    Seconds maxWarmup = 120.0;

    /**
     * Optional scenario conditioning: invoked once per mesh with the
     * cluster size, the campaign-wide mesh index, and the mesh's
     * derived seed. The returned dynamics (null = stationary mesh) is
     * applied at a random scenario time in [0, dynamicsHorizon) and
     * held through the snapshot and the stable measurement
     * (epoch-quasistatic, the same convention the drivers use); any
     * bursts active at that instant run as background flows competing
     * with the probes. Must be thread-safe: meshes are collected in
     * parallel (scenario::campaignDynamics() qualifies).
     */
    using DynamicsHook =
        std::function<std::shared_ptr<const scenario::Dynamics>(
            std::size_t clusterSize, std::size_t meshIndex,
            std::uint64_t meshSeed)>;
    DynamicsHook dynamics;

    /** Scenario-time window sampled per conditioned mesh. */
    Seconds dynamicsHorizon = 300.0;
};

/** One collected mesh: features context plus both BW matrices. */
struct CollectedMesh
{
    std::size_t clusterSize = 0;
    Matrix<Mbps> snapshotBw;
    Matrix<Mbps> stableBw;
};

class BandwidthAnalyzer
{
  public:
    explicit BandwidthAnalyzer(AnalyzerConfig config = {});

    /**
     * Collect meshes and flatten them into a per-pair training dataset
     * (features of Table 3 -> stable runtime BW).
     */
    ml::Dataset collect(std::uint64_t seed);

    /** Collect raw meshes (used by accuracy experiments). */
    std::vector<CollectedMesh> collectMeshes(std::uint64_t seed);

    /** Flatten meshes into the per-pair dataset. */
    ml::Dataset flatten(const std::vector<CollectedMesh> &meshes,
                        std::uint64_t seed) const;

    /**
     * Per-mesh seeds: one splitmix64-derived seed per collected mesh
     * across every cluster size, fixed before collection starts —
     * parallel and sequential campaigns gauge identical meshes, and
     * no two meshes (within or across sizes) share a warm-up stream.
     * Exposed so tests can assert non-collision.
     */
    static std::vector<std::uint64_t>
    meshSeeds(const AnalyzerConfig &config, std::uint64_t seed);

    /**
     * Flatten one mesh against an explicit topology, appending its
     * per-pair rows to @p out. Runtime gauges flow through here: the
     * live cluster's topology supplies N/distance/capability, unlike
     * the offline path which rebuilds the paper testbed.
     */
    static void appendRows(ml::Dataset &out,
                           const net::Topology &topo,
                           const CollectedMesh &mesh, Rng &rng);

    // --- incremental mode -------------------------------------------------

    /**
     * Append mid-run meshes (gauged against @p topo) into the
     * analyzer's growing dataset; returns the rows appended. The
     * accumulated dataset is what warm-start retraining trains its
     * extra trees on. Strictly append-only.
     */
    std::size_t absorb(const net::Topology &topo,
                       const std::vector<CollectedMesh> &meshes,
                       std::uint64_t seed);

    /** The growing mid-run dataset (empty until absorb() is called). */
    const ml::Dataset &incremental() const { return incremental_; }

    const AnalyzerConfig &config() const { return config_; }

  private:
    AnalyzerConfig config_;
    ml::Dataset incremental_;
};

} // namespace core
} // namespace wanify

#endif // WANIFY_CORE_BANDWIDTH_ANALYZER_HH
