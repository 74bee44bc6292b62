/**
 * @file
 * iPerf-style bandwidth measurement on top of the network simulator.
 *
 * Reproduces the three measurement regimes the paper contrasts:
 *
 *  - static-independent: one DC pair at a time, in isolation — what
 *    existing GDA systems (Tetrium, Kimchi, Iridium) use;
 *  - static-simultaneous: all DC pairs concurrently — what actually
 *    happens during all-to-all shuffles;
 *  - snapshot: a 1-second simultaneous sample with measurement noise —
 *    WANify's cheap model input (Section 2.2: stable BW needs >= 20 s,
 *    but 1-s snapshots correlate positively with it);
 *  - runtime/stable: a >= 20-second simultaneous average.
 *
 * Measurements probe between the first VM of each DC (the paper deploys
 * one monitoring VM per region). Section 3.3.3's association for
 * multi-VM DCs (core::associateBw) is not applied by any run yet.
 */

#ifndef WANIFY_MONITOR_MEASUREMENT_HH
#define WANIFY_MONITOR_MEASUREMENT_HH

#include <cstdint>

#include "common/matrix.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "net/network_sim.hh"
#include "net/topology.hh"

namespace wanify {
namespace monitor {

/** Parameters shared by the measurement helpers. */
struct MeasurementConfig
{
    /** Duration of a stable measurement (paper: >= 20 s). */
    Seconds stableDuration = 20.0;

    /** Duration of a snapshot (paper: 1 s). */
    Seconds snapshotDuration = 1.0;

    /** Relative white noise added to snapshot readings. */
    double snapshotNoiseSd = 0.05;

    /** Parallel connections per probed pair. */
    int connections = 1;
};

/**
 * Mesh measurement bound to a live simulator.
 *
 * Starts measurement flows between the first VM of every DC pair,
 * advances the sim, and reads the averaged achieved rates. The sim's
 * fluctuation state carries across calls, which is what lets a snapshot
 * and a subsequent stable measurement share a network trajectory when
 * generating training data.
 */
class MeshMeasurer
{
  public:
    explicit MeshMeasurer(net::NetworkSim &sim);

    /**
     * Measure all ordered DC pairs simultaneously for @p duration.
     * Diagonal entries are set to the intra-DC NIC capacity.
     */
    Matrix<Mbps> measureSimultaneous(Seconds duration,
                                     int connections = 1);

    /** 1-second simultaneous sample with multiplicative noise. */
    Matrix<Mbps> snapshot(const MeasurementConfig &cfg, Rng &rng);

  private:
    net::NetworkSim &sim_;
};

/**
 * Static-independent BW matrix: each ordered pair measured alone in a
 * fresh simulator (fluctuation seeded from @p seed), as existing GDA
 * systems do.
 */
Matrix<Mbps> staticIndependentBw(const net::Topology &topo,
                                 const net::NetworkSimConfig &simCfg,
                                 const MeasurementConfig &cfg,
                                 std::uint64_t seed);

/**
 * Static-simultaneous BW matrix: the full mesh measured concurrently in
 * a fresh simulator.
 */
Matrix<Mbps> staticSimultaneousBw(const net::Topology &topo,
                                  const net::NetworkSimConfig &simCfg,
                                  const MeasurementConfig &cfg,
                                  std::uint64_t seed);

} // namespace monitor
} // namespace wanify

#endif // WANIFY_MONITOR_MEASUREMENT_HH
