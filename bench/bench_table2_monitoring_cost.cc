/**
 * @file
 * Table 2: Accurate prediction saves ~96% in costs.
 *
 * Reproduces the monitoring-cost accounting of Section 2.2 / Eq. 1:
 * annual runtime monitoring (every 30 minutes, t3.nano probes, 20 s
 * stable measurements at ~200 Mbps) versus the prediction-based
 * alternative (one-time 1000-sample training-set collection plus 1 s
 * snapshots). Paper: $703 / $1055 / $1406 runtime for 4/6/8 DCs
 * (total $3164) versus $69 + $56 on the prediction side.
 *
 * The paper does not fully specify the per-row split of the prediction
 * columns; we allocate the 1000 training samples across cluster sizes
 * proportionally to 1/N^2 and split the shared snapshot cost
 * inversely to N (see EXPERIMENTS.md). The headline — the runtime
 * column and the ~95% saving — is reproduced from Eq. 1 directly.
 *
 * The dollar columns price the probe bytes; the prediction side also
 * spends CPU on forest inference, so the bench measures that too and
 * reports it next to the table — backing the paper's "runtime
 * collection must stay cheap" claim with a number.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "common/table.hh"
#include "cost/cost_model.hh"

using namespace wanify;
using namespace wanify::cost;

int
main()
{
    const std::size_t sizes[] = {4, 6, 8};

    // Eq. 1 parameters (Section 2.2): t3.nano, 30-minute cadence,
    // 20-second measurements moving ~200 Mbps.
    MonitoringCostParams base;
    base.occurrencesPerYear = occurrencesPerYear(30.0);
    base.perInstanceSecond = 0.0052 / 3600.0;
    base.duration = 20.0;
    base.perInstanceNetwork = monitoringNetworkCost(200.0, 20.0, 0.02);

    // Training set: 1000 samples of snapshot (1 s) + stable (20 s)
    // measurement, allocated across sizes ~ 1/N^2.
    const double weights[] = {1.0 / 16.0, 1.0 / 36.0, 1.0 / 64.0};
    const double weightSum = weights[0] + weights[1] + weights[2];

    // Production predictions: 1-second snapshots on the largest
    // cluster at the same cadence, shared across rows ~ 1/N.
    const Dollars annualSnapshots =
        base.occurrencesPerYear * 8.0 *
        (base.perInstanceSecond * 1.0 +
         monitoringNetworkCost(200.0, 1.0, 0.02));
    const double invN[] = {1.0 / 4.0, 1.0 / 6.0, 1.0 / 8.0};
    const double invNSum = invN[0] + invN[1] + invN[2];

    Table table("Table 2: Annual BW monitoring cost vs prediction "
                "[paper: 703/1055/1406 vs 35+29/20+16/14+11]");
    table.setHeader({"Number of DCs", "Runtime Monitoring ($)",
                     "Model Training ($)", "Predictions ($)"});

    Dollars totalRuntime = 0.0, totalTraining = 0.0, totalPredict = 0.0;
    for (int row = 0; row < 3; ++row) {
        MonitoringCostParams p = base;
        p.nodes = sizes[row];
        const Dollars runtime = annualMonitoringCost(p);

        const double samples = 1000.0 * weights[row] / weightSum;
        const Dollars perSample =
            static_cast<double>(sizes[row]) *
            (base.perInstanceSecond * 21.0 +
             monitoringNetworkCost(200.0, 21.0, 0.02));
        const Dollars training = samples * perSample;

        const Dollars predictions =
            annualSnapshots * invN[row] / invNSum;

        totalRuntime += runtime;
        totalTraining += training;
        totalPredict += predictions;
        table.addRow({std::to_string(sizes[row]),
                      Table::num(runtime, 0), Table::num(training, 0),
                      Table::num(predictions, 0)});
    }
    table.addRow({"Total", Table::num(totalRuntime, 0),
                  Table::num(totalTraining, 0),
                  Table::num(totalPredict, 0)});
    table.print();

    const double saving =
        1.0 - (totalTraining + totalPredict) / totalRuntime;
    std::printf("prediction saves %.1f%% of monitoring costs "
                "(paper: ~96%%)\n",
                saving * 100.0);

    // Prediction CPU time: the per-cadence compute the prediction
    // side adds on top of its 1-second snapshots. One full 8-DC
    // matrix (56 pairs, 100 trees) through the batched compiled
    // path, best of 5.
    const auto predictor = bench::syntheticPredictor();
    const auto topo = net::TopologyBuilder::paperTestbed(
        8, net::VmTypeCatalog::t3nano());
    const auto snapshot = bench::syntheticSnapshot(topo);
    volatile double sink = 0.0;
    double bestUs = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        sink = predictor.predictMatrix(topo, snapshot)
                   .offDiagonalMean();
        const auto t1 = std::chrono::steady_clock::now();
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0)
                .count();
        if (rep == 0 || us < bestUs)
            bestUs = us;
    }
    (void)sink;
    std::printf("prediction CPU time: %.0f us per 8-DC matrix "
                "(%.1f us per pair, 100 trees) — negligible next to "
                "the 1 s snapshot the probes already pay\n",
                bestUs, bestUs / 56.0);

    // Training CPU time: what the prediction side pays once per
    // campaign (full fit) and per drift retrain (25-tree warm
    // start), on a campaign-sized Table 3 dataset through the
    // presorted exact engine — the compute half of the "one-time
    // training" column above.
    Rng trainRng(20250731);
    ml::Dataset campaign = bench::campaignTable3Data(2400, 20250731);
    const auto t0 = std::chrono::steady_clock::now();
    core::RuntimeBwPredictor trained(
        experiments::sharedForestConfig());
    trained.train(campaign, 20250732);
    const auto t1 = std::chrono::steady_clock::now();
    auto grown = campaign;
    for (int s = 0; s < 336; ++s) {
        const std::size_t i =
            static_cast<std::size_t>(trainRng.uniformInt(0, 2399));
        grown.add(campaign.x(i), campaign.y(i));
    }
    const auto t2 = std::chrono::steady_clock::now();
    trained.retrain(grown, 25, 20250733);
    const auto t3 = std::chrono::steady_clock::now();
    const double fitMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double retrainMs =
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    std::printf("training CPU time: %.0f ms per 2400-row campaign "
                "fit (100 trees), %.0f ms per 25-tree warm-start "
                "retrain — the mid-run re-planning stall\n",
                fitMs, retrainMs);
    return 0;
}
