/**
 * @file
 * Quickstart: train the WAN Prediction Model, predict runtime BWs from
 * a 1-second snapshot, plan heterogeneous connections, and watch the
 * minimum bandwidth of an 8-DC cluster rise.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/bandwidth_analyzer.hh"
#include "core/wanify.hh"
#include "experiments/testbed.hh"
#include "monitor/measurement.hh"

using namespace wanify;

int
main()
{
    // 1. An 8-region geo-distributed testbed (the paper's Fig. 1).
    const auto topo = experiments::monitoringCluster(8);
    const auto simCfg = experiments::defaultSimConfig();

    // 2. Offline: the Bandwidth Analyzer collects snapshot/stable BW
    //    pairs across cluster sizes, and the Random Forest learns to
    //    predict stable runtime BW from 1-second snapshots.
    std::printf("training the WAN prediction model...\n");
    core::AnalyzerConfig analyzerCfg;
    analyzerCfg.clusterSizes = {4, 6, 8};
    analyzerCfg.meshesPerSize = 12;
    analyzerCfg.sim = simCfg;

    core::Wanify wanify;
    wanify.train(analyzerCfg, /*seed=*/2025);
    std::printf("  forest OOB R^2: %.3f\n",
                wanify.predictorSnapshot()->forest().oobR2());

    // 3. Online: snapshot the live network (1 s of measurement
    //    instead of 20+), predict the full runtime BW matrix.
    net::NetworkSim sim(topo, simCfg, /*seed=*/7);
    sim.advanceBy(30.0); // let the WAN fluctuate into a fresh state
    Rng rng(99);
    const auto predicted = wanify.predictRuntimeBw(sim, rng);
    std::printf("predicted runtime BW: min %.0f / max %.0f Mbps\n",
                predicted.offDiagonalMin(),
                predicted.offDiagonalMax());

    // 4. Plan heterogeneous parallel connections (Algorithm 1 +
    //    Eq. 2/3): distant, weak pairs receive more connections.
    const auto plan = wanify.plan(predicted);
    std::printf("connection plan (row = from us-east-1): ");
    for (net::DcId j = 0; j < 8; ++j)
        std::printf("%d ", plan.maxCons.at(0, j));
    std::printf("\n");

    // 5. Deploy: local agents fine-tune connections with AIMD and
    //    throttle BW-rich links every 5 s epoch.
    auto deployment = wanify.deploy(sim, plan, predicted);
    auto &agents = deployment.agents;

    // Load every pair and watch the cluster's minimum BW.
    for (net::DcId i = 0; i < 8; ++i)
        for (net::DcId j = 0; j < 8; ++j)
            if (i != j)
                sim.startTransfer(topo.dc(i).vms.front(),
                                  topo.dc(j).vms.front(),
                                  units::gigabytes(4.0), 1);
    for (auto &agent : agents) {
        agent->applyTargets();
        agent->resetWindow();
    }

    for (int epoch = 0; epoch < 8 && !sim.allTransfersDone();
         ++epoch) {
        sim.runUntilAllComplete(sim.now() + 5.0);
        if (sim.allTransfersDone())
            break;
        for (auto &agent : agents)
            agent->onEpoch();
        const auto rates = sim.pairRateMatrix();
        std::printf("  epoch %d: min pair rate %.0f Mbps\n",
                    epoch + 1, rates.offDiagonalMin());
    }
    std::printf("all transfers done at t=%.0fs\n", sim.now());
    return 0;
}
