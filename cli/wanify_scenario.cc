/**
 * @file
 * `wanify-scenario` — drive, record, replay, and verify the built-in
 * WAN scenario library from the command line.
 *
 *   wanify-scenario list
 *   wanify-scenario show <name>
 *   wanify-scenario run <name> [options] [--record FILE]
 *   wanify-scenario replay <trace.csv> [options]
 *   wanify-scenario verify [options]
 *
 * Options:
 *   --dcs N        cluster size, 4..256             (default 8)
 *   --vms N        VMs per DC, 1..64                (default 2)
 *   --seed S       base seed                        (default 1)
 *   --epoch E      epoch seconds (0 = scenario's)   (default 0)
 *   --horizon H    run seconds (0 = scenario's)     (default 0)
 *   --quiet        disable the stationary OU noise
 *   --record FILE  write the bandwidth trace as CSV
 *   --adapt        run the GDA engine (TeraSort + WANify-TC) under
 *                  the scenario with drift-triggered warm-start
 *                  retraining instead of the bare mesh driver
 *   --retrain      with --adapt: publish each warm-start retrained
 *                  model back to the facade, so later runs start
 *                  from it (the online learning loop across runs)
 *   --runs N       engine runs for --adapt (default 1; 2 with
 *                  --retrain so the cross-run improvement shows)
 *
 * Every mesh-driver run is deterministic: the same scenario,
 * cluster, and seed produce a bit-identical trace (printed as
 * `trace-hash`). `verify` drives every library scenario twice and
 * fails if any pair of traces differs — the determinism contract
 * under CTest.
 *
 * Exit status: 0 on success, 1 when verify finds differing traces or
 * the run fails, 2 on a usage error (unknown option, a malformed
 * numeric flag, or a value out of its range; the message names the
 * flag).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/table.hh"
#include "experiments/predictor_factory.hh"
#include "fault/fault.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "sched/locality.hh"
#include "scenario/driver.hh"
#include "storage/hdfs.hh"
#include "workloads/terasort.hh"

#include "numeric_flags.hh"

using namespace wanify;
using cli::parseCount;
using cli::parseReal;

namespace {

struct CliOptions
{
    std::size_t dcs = 8;
    std::size_t vmsPerDc = 2;
    std::uint64_t seed = 1;
    Seconds epoch = 0.0;
    Seconds horizon = 0.0;
    bool fluctuation = true;
    std::string recordPath;
    bool adapt = false;
    bool retrain = false;
    std::size_t runs = 0; // 0 = default for the mode
};

int
usage()
{
    std::printf(
        "usage: wanify-scenario <command> [options]\n"
        "  list                      name every built-in scenario\n"
        "  show <name>               print a scenario's events\n"
        "  run <name> [options]      drive a scenario and report\n"
        "  replay <trace.csv>        re-run a recorded trace\n"
        "  verify                    drive each scenario twice and\n"
        "                            check the traces are identical\n"
        "options: --dcs N --vms N --seed S --epoch E --horizon H\n"
        "         --quiet --record FILE --adapt [--retrain]\n"
        "         --runs N\n");
    return 2;
}

bool
parseOptions(int argc, char **argv, int first, CliOptions &opts)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", what);
                return nullptr;
            }
            return argv[++i];
        };
        const char *v = nullptr;
        if (arg == "--dcs") {
            if ((v = next("--dcs")) == nullptr ||
                !parseCount("--dcs", v, opts.dcs))
                return false;
        } else if (arg == "--vms") {
            if ((v = next("--vms")) == nullptr ||
                !parseCount("--vms", v, opts.vmsPerDc))
                return false;
        } else if (arg == "--seed") {
            if ((v = next("--seed")) == nullptr ||
                !parseCount("--seed", v, opts.seed))
                return false;
        } else if (arg == "--epoch") {
            if ((v = next("--epoch")) == nullptr ||
                !parseReal("--epoch", v, opts.epoch))
                return false;
        } else if (arg == "--horizon") {
            if ((v = next("--horizon")) == nullptr ||
                !parseReal("--horizon", v, opts.horizon))
                return false;
        } else if (arg == "--quiet") {
            opts.fluctuation = false;
        } else if (arg == "--adapt") {
            opts.adapt = true;
        } else if (arg == "--retrain") {
            opts.retrain = true;
        } else if (arg == "--runs") {
            if ((v = next("--runs")) == nullptr ||
                !parseCount("--runs", v, opts.runs))
                return false;
            if (opts.runs < 1 || opts.runs > 1000) {
                std::fprintf(stderr,
                             "--runs must be an integer in "
                             "[1, 1000]\n");
                return false;
            }
        } else if (arg == "--record") {
            if ((v = next("--record")) == nullptr)
                return false;
            opts.recordPath = v;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return false;
        }
    }
    // Library scenarios script DC ids up to 3, hence the floor of 4;
    // the flat mesh paths make big clusters first-class, so the cap
    // is the 256-DC scale the perf sweep exercises rather than the
    // old silent 8-DC testbed bound.
    if (opts.dcs < 4 || opts.dcs > 256) {
        std::fprintf(stderr, "--dcs must be in [4, 256]\n");
        return false;
    }
    // A per-DC VM count far past any testbed only ends in an
    // allocation failure deep inside topology construction.
    if (opts.vmsPerDc < 1 || opts.vmsPerDc > 64) {
        std::fprintf(stderr, "--vms must be in [1, 64]\n");
        return false;
    }
    if (opts.retrain && !opts.adapt) {
        std::fprintf(stderr, "--retrain requires --adapt\n");
        return false;
    }
    if (opts.runs > 0 && !opts.adapt) {
        std::fprintf(stderr, "--runs requires --adapt\n");
        return false;
    }
    if (opts.adapt &&
        (!opts.recordPath.empty() || opts.epoch > 0.0 ||
         opts.horizon > 0.0)) {
        // The engine paces itself by AIMD epochs and job length;
        // these knobs only shape the mesh driver.
        std::fprintf(stderr, "--record/--epoch/--horizon only apply "
                             "to mesh-driver runs (drop --adapt)\n");
        return false;
    }
    return true;
}

scenario::DriveConfig
driveConfig(const CliOptions &opts)
{
    scenario::DriveConfig cfg;
    cfg.epoch = opts.epoch;
    cfg.horizon = opts.horizon;
    cfg.seed = opts.seed;
    cfg.fluctuation = opts.fluctuation;
    return cfg;
}

void
printResult(const scenario::DriveResult &result)
{
    Table table("scenario '" + result.name + "' (" +
                std::to_string(result.epochs.size()) + " epochs)");
    table.setHeader({"t (s)", "min cap x", "mean cap x",
                     "min pair Mbps", "drift err", "retrain"});
    for (const auto &e : result.epochs) {
        table.addRow({Table::num(e.t, 0),
                      Table::num(e.minCapFactor, 2),
                      Table::num(e.meanCapFactor, 2),
                      Table::num(e.minPairRate, 0),
                      Table::pct(e.errorFraction, 0),
                      e.retrainFired ? "*" : ""});
    }
    table.print();
    std::printf("retrains: %zu, peak drift-error fraction: %.0f%%, "
                "trace-hash: %016llx\n",
                result.retrainTriggers,
                100.0 * result.maxErrorFraction,
                static_cast<unsigned long long>(result.trace.hash()));
}

int
cmdList()
{
    Table table("built-in scenarios");
    table.setHeader({"name", "epoch", "horizon", "events",
                     "faults"});
    for (const auto &name : scenario::libraryScenarioNames()) {
        const auto spec = scenario::libraryScenario(name);
        table.addRow({spec.name, Table::num(spec.epoch, 0),
                      Table::num(spec.horizon, 0),
                      std::to_string(spec.events.size()),
                      std::to_string(spec.faults.size())});
    }
    table.print();
    // The chaos set lives outside the bandwidth-dynamics campaign
    // rotation: hard faults (aborts, crashes, blackouts, gauge
    // outages) on top of scripted soft dynamics.
    Table chaos("fault-storm scenarios");
    chaos.setHeader({"name", "epoch", "horizon", "events",
                     "faults"});
    for (const auto &name : scenario::faultScenarioNames()) {
        const auto spec = scenario::libraryScenario(name);
        chaos.addRow({spec.name, Table::num(spec.epoch, 0),
                      Table::num(spec.horizon, 0),
                      std::to_string(spec.events.size()),
                      std::to_string(spec.faults.size())});
    }
    chaos.print();
    return 0;
}

int
cmdShow(const std::string &name)
{
    const auto spec = scenario::libraryScenario(name);
    std::printf("%s: %s\n", spec.name.c_str(),
                spec.description.c_str());
    Table table("events");
    table.setHeader({"kind", "src", "dst", "start", "duration",
                     "magnitude"});
    auto dc = [](int id) {
        return id == scenario::kAnyDc ? std::string("*")
                                      : std::to_string(id);
    };
    for (const auto &ev : spec.events) {
        table.addRow({scenario::eventKindName(ev.kind), dc(ev.src),
                      dc(ev.dst), Table::num(ev.start, 0),
                      ev.duration >= scenario::kForever
                          ? std::string("forever")
                          : Table::num(ev.duration, 0),
                      Table::num(ev.magnitude, 2)});
    }
    table.print();
    if (!spec.faults.empty()) {
        Table ftable("fault events");
        ftable.setHeader({"kind", "src", "dst", "dc", "start",
                          "duration", "jitter"});
        auto fdc = [](int id) {
            return id == fault::kAnyDc ? std::string("*")
                                       : std::to_string(id);
        };
        for (const auto &fv : spec.faults) {
            ftable.addRow({fault::faultKindName(fv.kind),
                           fdc(fv.src), fdc(fv.dst), fdc(fv.dc),
                           Table::num(fv.time, 0),
                           Table::num(fv.duration, 0),
                           Table::num(fv.startJitter, 0)});
        }
        ftable.print();
    }
    return 0;
}

/**
 * `run <name> --adapt [--retrain]`: the online learning loop behind
 * a real query. TeraSort runs through the GDA engine under the
 * scenario with WANify-TC deployed and adaptOnDrift on; each drift
 * trip gauges the live mesh, warm-starts the forest, and re-plans.
 * With --retrain the retrained model is published back to the facade
 * after every warm start, so successive runs start progressively
 * better calibrated — the cross-run half of the loop.
 */
int
cmdRunEngine(const scenario::ScenarioSpec &spec,
             const CliOptions &opts)
{
    const auto topo =
        experiments::workerCluster(opts.dcs, opts.vmsPerDc);
    const std::size_t n = topo.dcCount();
    const scenario::ScenarioTimeline timeline(spec, n, opts.seed);

    // Sized per DC so TeraSort's map compute ends (and its shuffle
    // therefore runs) inside the library scenarios' scripted event
    // windows on the default 2-VM workers, whatever --dcs is.
    const auto job =
        workloads::teraSort(6.0 * static_cast<double>(opts.dcs));
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    const auto input = hdfs.distribution();
    sched::LocalityScheduler locality;

    // Scenario-sized drift window (two full meshes), as the scenario
    // benches use.
    core::WanifyConfig wcfg;
    wcfg.drift.windowSize = 2 * n * (n - 1);
    wcfg.drift.minObservations = n * (n - 1);
    wcfg.drift.retrainFraction = 0.2;
    core::Wanify wanify(wcfg);
    std::printf("training the shared WAN prediction model...\n");
    wanify.setPredictor(experiments::sharedPredictor());

    // Cross-run campaign accumulator (--retrain): every run's gauges
    // join one incremental dataset, so later warm starts train on
    // the union. Safe here because the runs are sequential.
    core::AnalyzerConfig campaignCfg;
    campaignCfg.clusterSizes = {n};
    core::BandwidthAnalyzer campaign(campaignCfg);

    const std::size_t runs =
        opts.runs > 0 ? opts.runs : (opts.retrain ? 2 : 1);
    Table table("scenario '" + spec.name + "': TeraSort + WANify-TC" +
                (opts.retrain ? " (publishing retrained models)"
                              : ""));
    table.setHeader({"Run", "Latency (s)", "Cost ($)",
                     "Min BW (Mbps)", "Retrains", "Pre err",
                     "Post err", "Trees"});
    for (std::size_t r = 0; r < runs; ++r) {
        auto simCfg = experiments::defaultSimConfig();
        simCfg.fluctuation.enabled = opts.fluctuation;
        gda::Engine engine(topo, simCfg, opts.seed + 101 * r);
        gda::RunOptions ropts;
        ropts.schedulerBw = Matrix<Mbps>::square(n, 400.0);
        ropts.wanify = &wanify;
        ropts.dynamics = &timeline;
        ropts.adaptOnDrift = true;
        ropts.publishRetrainedModel = opts.retrain;
        if (opts.retrain)
            ropts.campaign = &campaign;
        const auto res =
            engine.run(job, input, locality, ropts);
        const bool retrained = res.retrainsApplied > 0;
        table.addRow(
            {std::to_string(r + 1), Table::num(res.latency, 0),
             Table::num(res.cost.total(), 2),
             Table::num(res.minObservedBw, 0),
             std::to_string(res.retrainsApplied),
             retrained ? Table::num(res.preRetrainError, 0)
                       : std::string("-"),
             retrained ? Table::num(res.postRetrainError, 0)
                       : std::string("-"),
             std::to_string(
                 wanify.predictorSnapshot()->forest().treeCount())});
    }
    table.print();
    std::printf("pre/post err = mean abs BW prediction error (Mbps) "
                "at each warm-start retrain; 'Trees' is the "
                "facade's published forest after the run%s.\n",
                opts.retrain ? " (grows as models are published)"
                             : " (unchanged without --retrain)");
    return 0;
}

int
cmdRun(const std::string &name, const CliOptions &opts)
{
    const auto spec = scenario::libraryScenario(name);
    if (opts.adapt)
        return cmdRunEngine(spec, opts);
    const auto topo =
        experiments::workerCluster(opts.dcs, opts.vmsPerDc);
    const auto result =
        scenario::driveScenario(spec, topo, driveConfig(opts));
    printResult(result);
    if (!opts.recordPath.empty()) {
        scenario::writeTraceCsv(opts.recordPath, result.trace);
        std::printf("trace written to %s (%zu samples)\n",
                    opts.recordPath.c_str(), result.trace.size());
    }
    return 0;
}

int
cmdReplay(const std::string &path, const CliOptions &opts)
{
    const auto trace = scenario::readTraceCsv(path);
    if (trace.dcs != opts.dcs) {
        std::printf("note: trace was recorded on %zu DCs; using "
                    "that cluster size\n",
                    trace.dcs);
    }
    const auto topo =
        experiments::workerCluster(trace.dcs, opts.vmsPerDc);
    const auto result =
        scenario::driveReplay(trace, topo, driveConfig(opts));
    printResult(result);
    return 0;
}

int
cmdVerify(const CliOptions &opts)
{
    const auto topo =
        experiments::workerCluster(opts.dcs, opts.vmsPerDc);
    bool ok = true;
    for (const auto &name : scenario::libraryScenarioNames()) {
        const auto spec = scenario::libraryScenario(name);
        const auto a =
            scenario::driveScenario(spec, topo, driveConfig(opts));
        const auto b =
            scenario::driveScenario(spec, topo, driveConfig(opts));
        const bool same = a.trace.identical(b.trace);
        ok = ok && same;
        std::printf("%-16s %3zu epochs  retrains %zu  trace-hash "
                    "%016llx  %s\n",
                    name.c_str(), a.epochs.size(),
                    a.retrainTriggers,
                    static_cast<unsigned long long>(a.trace.hash()),
                    same ? "OK" : "MISMATCH");
    }
    std::printf(ok ? "all scenarios deterministic\n"
                   : "determinism violation detected\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "show") {
            if (argc < 3)
                return usage();
            return cmdShow(argv[2]);
        }
        CliOptions opts;
        if (cmd == "run" || cmd == "replay") {
            if (argc < 3)
                return usage();
            if (!parseOptions(argc, argv, 3, opts))
                return 2;
            return cmd == "run" ? cmdRun(argv[2], opts)
                                : cmdReplay(argv[2], opts);
        }
        if (cmd == "verify") {
            if (!parseOptions(argc, argv, 2, opts))
                return 2;
            return cmdVerify(opts);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wanify-scenario: %s\n", e.what());
        return 1;
    }
    return usage();
}
