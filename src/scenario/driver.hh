/**
 * @file
 * Scenario driver: runs non-stationary dynamics against a live
 * NetworkSim, records the bandwidth trace, and feeds the drift
 * detector — the standalone (engine-free) harness behind the
 * `wanify-scenario` CLI and the scenario tests.
 *
 * The driver keeps a full measurement mesh loaded, advances the sim
 * epoch by epoch, applies the dynamics before each epoch, and samples
 * the effective capacity multipliers after it. Drift is gauged on the
 * core::kDriftReferenceBw capacity-ratio scale (same calibration as
 * the GDA engine's drift path): with the paper's 100 Mbps
 * significance threshold a pair drifts exactly when its scripted
 * capacity leaves the +-40% band — deterministic, independent of the
 * OU noise, and zero for `steady`. When the detector trips, the
 * driver "retrains": it re-baselines and resets, mirroring the
 * facade's warm-restart path.
 */

#ifndef WANIFY_SCENARIO_DRIVER_HH
#define WANIFY_SCENARIO_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/drift.hh"
#include "net/topology.hh"
#include "scenario/library.hh"
#include "scenario/trace.hh"

namespace wanify {
namespace scenario {

/** Driver knobs. */
struct DriveConfig
{
    /** Epoch length; 0 = the spec's recommendation. */
    Seconds epoch = 0.0;

    /** Run length; 0 = the spec's recommendation. */
    Seconds horizon = 0.0;

    /** Seed for the sim, the OU processes, and event jitter. */
    std::uint64_t seed = 1;

    /** Keep the stationary OU noise on underneath the scenario. */
    bool fluctuation = true;

    /**
     * Drift detector configuration. windowSize 0 = auto-size to two
     * full meshes of observations (2 n (n-1)) with minObservations
     * one mesh, so one epoch's worth of pairs never evicts another's.
     */
    core::DriftConfig drift = autoDrift();

    static core::DriftConfig
    autoDrift()
    {
        core::DriftConfig cfg;
        cfg.windowSize = 0;
        cfg.minObservations = 0;
        cfg.retrainFraction = 0.2;
        return cfg;
    }
};

/** Per-epoch observations. */
struct EpochStats
{
    Seconds t = 0.0;
    double minCapFactor = 1.0;
    double meanCapFactor = 1.0;
    Mbps minPairRate = 0.0;
    double errorFraction = 0.0;
    bool retrainFired = false;
};

/** One scenario drive's outcome. */
struct DriveResult
{
    std::string name;
    BwTrace trace;
    std::vector<EpochStats> epochs;
    std::size_t retrainTriggers = 0;
    double maxErrorFraction = 0.0;
};

/** Drive arbitrary dynamics over @p topo. @p name labels the result;
 *  @p epoch / @p horizon must be positive. */
DriveResult drive(const Dynamics &dynamics, const net::Topology &topo,
                  const DriveConfig &cfg, const std::string &name,
                  Seconds epoch, Seconds horizon);

/** Compile @p spec with cfg.seed and drive it. */
DriveResult driveScenario(const ScenarioSpec &spec,
                          const net::Topology &topo,
                          const DriveConfig &cfg = {});

/** Replay a recorded trace (fluctuation forced off, epochs taken
 *  from the trace timestamps). */
DriveResult driveReplay(const BwTrace &trace,
                        const net::Topology &topo,
                        DriveConfig cfg = {});

} // namespace scenario
} // namespace wanify

#endif // WANIFY_SCENARIO_DRIVER_HH
