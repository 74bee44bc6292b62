#include "monitor/measurement.hh"

#include <algorithm>
#include <vector>

#include "common/error.hh"

namespace wanify {
namespace monitor {

using net::DcId;
using net::NetworkSim;
using net::Topology;
using net::TransferId;

MeshMeasurer::MeshMeasurer(NetworkSim &sim) : sim_(sim) {}

Matrix<Mbps>
MeshMeasurer::measureSimultaneous(Seconds duration, int connections)
{
    if (duration <= 0.0)
        fatal("measureSimultaneous: duration must be > 0");
    const Topology &topo = sim_.topology();
    const std::size_t n = topo.dcCount();

    // Record byte counters before the measurement window.
    Matrix<Bytes> before = Matrix<Bytes>::square(n, 0.0);
    for (DcId i = 0; i < n; ++i)
        for (DcId j = 0; j < n; ++j)
            before.at(i, j) = sim_.pairBytes(i, j);

    std::vector<TransferId> probes;
    probes.reserve(n * n);
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            probes.push_back(sim_.startMeasurement(
                topo.endpointVm(i), topo.endpointVm(j), connections));
        }
    }

    sim_.advanceBy(duration);

    Matrix<Mbps> bw = Matrix<Mbps>::square(n, 0.0);
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j) {
                bw.at(i, j) = topo.vm(topo.endpointVm(i)).type.nicCapMbps;
                continue;
            }
            const Bytes moved = sim_.pairBytes(i, j) - before.at(i, j);
            bw.at(i, j) = units::rateFor(moved, duration);
        }
    }

    for (TransferId id : probes)
        sim_.stopTransfer(id);
    return bw;
}

Matrix<Mbps>
MeshMeasurer::snapshot(const MeasurementConfig &cfg, Rng &rng)
{
    Matrix<Mbps> bw =
        measureSimultaneous(cfg.snapshotDuration, cfg.connections);
    if (cfg.snapshotNoiseSd > 0.0) {
        const std::size_t n = bw.rows();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                const double noise =
                    1.0 + rng.normal(0.0, cfg.snapshotNoiseSd);
                bw.at(i, j) *= std::max(0.05, noise);
            }
        }
    }
    return bw;
}

Matrix<Mbps>
staticIndependentBw(const Topology &topo,
                    const net::NetworkSimConfig &simCfg,
                    const MeasurementConfig &cfg, std::uint64_t seed)
{
    const std::size_t n = topo.dcCount();
    Matrix<Mbps> bw = Matrix<Mbps>::square(n, 0.0);
    std::uint64_t pairSeed = seed;
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j) {
                bw.at(i, j) = topo.vm(topo.endpointVm(i)).type.nicCapMbps;
                continue;
            }
            // Fresh sim per pair: nothing else is active, exactly like
            // running iPerf between two idle probe VMs.
            NetworkSim sim(topo, simCfg, splitmix64(pairSeed));
            const TransferId id = sim.startMeasurement(
                topo.endpointVm(i), topo.endpointVm(j), cfg.connections);
            const Bytes before = sim.pairBytes(i, j);
            sim.advanceBy(cfg.stableDuration);
            const Bytes moved = sim.pairBytes(i, j) - before;
            bw.at(i, j) = units::rateFor(moved, cfg.stableDuration);
            sim.stopTransfer(id);
        }
    }
    return bw;
}

Matrix<Mbps>
staticSimultaneousBw(const Topology &topo,
                     const net::NetworkSimConfig &simCfg,
                     const MeasurementConfig &cfg, std::uint64_t seed)
{
    NetworkSim sim(topo, simCfg, seed);
    MeshMeasurer measurer(sim);
    return measurer.measureSimultaneous(cfg.stableDuration,
                                        cfg.connections);
}

} // namespace monitor
} // namespace wanify
