#include "scenario/driver.hh"

#include <algorithm>

#include "common/error.hh"
#include "net/network_sim.hh"

namespace wanify {
namespace scenario {

namespace {

/** Parallel connections of each background mesh flow. */
constexpr int kMeshConnections = 2;

} // namespace

DriveResult
drive(const Dynamics &dynamics, const net::Topology &topo,
      const DriveConfig &cfg, const std::string &name, Seconds epoch,
      Seconds horizon)
{
    const std::size_t n = topo.dcCount();
    fatalIf(epoch <= 0.0, "scenario::drive: epoch must be > 0");
    fatalIf(horizon <= 0.0, "scenario::drive: horizon must be > 0");

    net::NetworkSimConfig simCfg;
    simCfg.fluctuation.enabled = cfg.fluctuation;
    net::NetworkSim sim(topo, simCfg, cfg.seed);

    // Auto-size the drift window so one epoch's mesh of observations
    // never evicts the previous epoch's.
    core::DriftConfig driftCfg = cfg.drift;
    const std::size_t mesh = n * (n - 1);
    if (driftCfg.windowSize == 0)
        driftCfg.windowSize = 2 * mesh;
    if (driftCfg.minObservations == 0)
        driftCfg.minObservations = mesh;
    core::CapacityDriftGauge gauge(driftCfg, n);

    // Full measurement mesh: every ordered pair stays loaded so the
    // trace and the drift signal cover the whole cluster.
    for (net::DcId i = 0; i < n; ++i)
        for (net::DcId j = 0; j < n; ++j)
            if (i != j)
                sim.startMeasurement(topo.endpointVm(i),
                                     topo.endpointVm(j),
                                     kMeshConnections);

    DriveResult result;
    result.name = name;
    result.trace.dcs = n;
    // Bursts and faults scheduled over the horizon become part of the
    // recorded trace, so a replay re-launches the same background
    // flows and injects the same faults. A fault is stored at its
    // resolved start: replay compiles the trace's faults unjittered.
    result.trace.bursts = dynamics.burstsIn(-1.0, horizon);
    if (const fault::FaultPlan *plan = dynamics.faultPlan()) {
        for (const fault::CompiledFault &cf : plan->events()) {
            if (cf.start <= -1.0 || cf.start > horizon)
                continue;
            fault::FaultEvent ev = cf.ev;
            ev.time = cf.start;
            ev.startJitter = 0.0;
            result.trace.faults.push_back(ev);
        }
    }

    // The gauge's baseline starts at 1 everywhere: the "model" is
    // calibrated on the static (nominal) measurement.
    DynamicsCursor cursor(&dynamics, sim);

    for (Seconds t = epoch; t <= horizon + 1.0e-9; t += epoch) {
        // Conditions for the epoch (sim.now(), t] are those of its
        // start; the cursor opens bursts whose scheduled start has
        // been reached — the same semantics the GDA engine uses.
        cursor.advanceTo(sim.now());

        sim.advanceBy(epoch);

        std::vector<double> rttFactors(n * n, 1.0);
        for (net::DcId i = 0; i < n; ++i)
            for (net::DcId j = 0; j < n; ++j)
                if (i != j)
                    rttFactors[i * n + j] =
                        sim.scenarioRttFactor(i, j);
        result.trace.add(sim.now(), capturedMultipliers(sim),
                         std::move(rttFactors));

        EpochStats stats;
        stats.t = sim.now();
        stats.minCapFactor = 1.0;
        double sum = 0.0;
        stats.minPairRate = -1.0;
        for (net::DcId i = 0; i < n; ++i) {
            for (net::DcId j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                const double factor = sim.scenarioCapFactor(i, j);
                stats.minCapFactor =
                    std::min(stats.minCapFactor, factor);
                sum += factor;
                const Mbps rate = sim.pairRate(i, j);
                stats.minPairRate = stats.minPairRate < 0.0
                                        ? rate
                                        : std::min(stats.minPairRate,
                                                   rate);
            }
        }
        gauge.observe(sim);
        stats.meanCapFactor = sum / static_cast<double>(mesh);
        stats.minPairRate = std::max(0.0, stats.minPairRate);
        stats.errorFraction = gauge.errorFraction();
        result.maxErrorFraction =
            std::max(result.maxErrorFraction, stats.errorFraction);

        if (gauge.needsRetraining()) {
            // "Retrain": re-baseline the model on current conditions
            // and clear the window, the facade's warm-restart path.
            stats.retrainFired = true;
            ++result.retrainTriggers;
            gauge.rebase(sim);
        }
        result.epochs.push_back(stats);
    }
    return result;
}

DriveResult
driveScenario(const ScenarioSpec &spec, const net::Topology &topo,
              const DriveConfig &cfg)
{
    const ScenarioTimeline timeline(spec, topo.dcCount(), cfg.seed);
    const Seconds epoch = cfg.epoch > 0.0 ? cfg.epoch : spec.epoch;
    const Seconds horizon =
        cfg.horizon > 0.0 ? cfg.horizon : spec.horizon;
    return drive(timeline, topo, cfg, spec.name, epoch, horizon);
}

DriveResult
driveReplay(const BwTrace &trace, const net::Topology &topo,
            DriveConfig cfg)
{
    fatalIf(trace.empty(), "driveReplay: empty trace");
    const TraceReplay replay(trace);

    // Replay owns the dynamics completely: OU noise stays off and the
    // epoch grid is the trace's own timestamp grid.
    cfg.fluctuation = false;
    const Seconds epoch = trace.times.front();
    fatalIf(epoch <= 0.0, "driveReplay: trace must start after t=0");
    for (std::size_t k = 1; k < trace.times.size(); ++k)
        fatalIf(std::abs((trace.times[k] - trace.times[k - 1]) -
                         epoch) > 1.0e-6,
                "driveReplay: trace is not on a uniform epoch grid");
    const Seconds horizon = trace.times.back();
    return drive(replay, topo, cfg, "replay", epoch, horizon);
}

} // namespace scenario
} // namespace wanify
