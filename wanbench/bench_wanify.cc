/**
 * @file
 * The repository's end-to-end benchmark: one workload per process.
 *
 *   bench_wanify --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--spans PATH] [--smoke]
 *
 * Workloads (see README.md for why each was chosen):
 *
 *   tpcds-8dc             Fig. 7: TPC-DS Q82/Q95/Q11/Q78 at 100 GB on 8
 *                         DCs, Tetrium and Kimchi, baseline vs WANify-TC
 *   terasort-dynamics-8dc Fig. 9c/9d: skewed 120 GB TeraSort under five
 *                         scenarios with drift retrains and faults
 *   serve-burst-128       128 mixed queries due at once on one shared
 *                         8-DC mesh (allocator, straggler redispatch)
 *   mesh-cascade-64dc     one spread shuffle over 64 DCs under the
 *                         cascading scenario, event-driven clock
 *
 * A run sets the workload up repeatedly (setup_s is the median), then
 * repeats passes over the workload's fixed list of top-level program
 * calls until --seconds have elapsed. Engine workloads are a closed
 * loop: one caller makes gda::Engine::run calls back to back. The serve
 * workload is open loop in virtual time: arrivals are fixed up front.
 * Untraced runs make at least two passes and print the end-to-end
 * metrics. Traced runs (--trace 1) make every call twice, plainly and
 * then through the timing decorators of trace.hh, and print the
 * per-layer metrics; the paired calls give the tracing overhead. The
 * pool size comes from WANIFY_THREADS, as everywhere in the library.
 *
 * Every metric is printed as "name value unit"; the last line of
 * standard output is one JSON object {correct, attempted, failed,
 * metrics}. Correctness: each result passes the workload's invariant
 * checks, every pass and every traced twin reproduces the first pass's
 * result hash, and the layer accounting closes. A failed check prints
 * correct=false and exits 1.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "core/wanify.hh"
#include "experiments/predictor_factory.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "ml/dataset.hh"
#include "monitor/measurement.hh"
#include "net/network_sim.hh"
#include "scenario/library.hh"
#include "scenario/scenario.hh"
#include "sched/kimchi.hh"
#include "sched/tetrium.hh"
#include "serve/allocator.hh"
#include "serve/service.hh"
#include "serve/workload.hh"
#include "storage/hdfs.hh"
#include "trace.hh"
#include "workloads/terasort.hh"
#include "workloads/tpcds.hh"

namespace {

using namespace wanify;
using wanbench::Clock;
using wanbench::Layer;
using wanbench::secondsSince;
using wanbench::Tracer;

// ----------------------------------------------------------------- results

/** What one query produced, in virtual time. */
struct Outcome
{
    Seconds latency = 0.0;
    Dollars cost = 0.0; ///< 0 where the layer does not bill (serve)
    Mbps minBw = 0.0;   ///< 0 where the layer does not report it
    Bytes wanBytes = 0.0;
    bool failed = false;
};

/** Work counters the program reports about itself. */
struct Counters
{
    std::size_t retrains = 0;
    std::size_t driftTriggers = 0;
    std::size_t faultsInjected = 0;
    std::size_t aborts = 0;
    std::size_t retries = 0;
    std::size_t replans = 0;
    std::size_t gaugeFaults = 0;
    std::size_t modeSwitches = 0;
    Bytes lostBytes = 0.0;
    Seconds backoffSeconds = 0.0;
    std::size_t cappedPairRounds = 0;
    std::size_t redispatches = 0;
    std::size_t peakConcurrent = 0;
    std::size_t timedOut = 0;
    std::size_t faultKills = 0;

    Counters &
    operator+=(const Counters &o)
    {
        retrains += o.retrains;
        driftTriggers += o.driftTriggers;
        faultsInjected += o.faultsInjected;
        aborts += o.aborts;
        retries += o.retries;
        replans += o.replans;
        gaugeFaults += o.gaugeFaults;
        modeSwitches += o.modeSwitches;
        lostBytes += o.lostBytes;
        backoffSeconds += o.backoffSeconds;
        cappedPairRounds += o.cappedPairRounds;
        redispatches += o.redispatches;
        peakConcurrent = std::max(peakConcurrent, o.peakConcurrent);
        timedOut += o.timedOut;
        faultKills += o.faultKills;
        return *this;
    }
};

/** What one top-level program call produced. */
struct CallResult
{
    /** Wall seconds inside the call (Engine::run or Service::drain). */
    double seconds = 0.0;
    std::vector<Outcome> outcomes;
    Counters counters;
    std::vector<std::string> errors;
};

/** One pass: every call of the workload once, plus its traced twin in
 *  traced runs. */
struct Pass
{
    std::vector<double> callSeconds;
    std::vector<double> tracedCallSeconds;
    std::vector<Outcome> outcomes;
    Counters counters;
    std::vector<std::string> errors;
    double wallSeconds = 0.0;
};

/** A named number with its unit: a metric or an info line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
fnv1a(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 1099511628211ULL;
    }
}

void
fnv1a(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fnv1a(h, bits);
}

/** FNV-1a over every outcome: the bit-identity witness of a pass. */
std::uint64_t
resultHash(const std::vector<Outcome> &outcomes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const Outcome &o : outcomes) {
        fnv1a(h, o.latency);
        fnv1a(h, o.cost);
        fnv1a(h, o.minBw);
        fnv1a(h, o.wanBytes);
        fnv1a(h, std::uint64_t{o.failed ? 1u : 0u});
    }
    return h;
}

/** Nearest-rank index (0-based) of percentile @p p in @p n values. */
std::size_t
rankIndex(std::size_t n, double p)
{
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
    return static_cast<std::size_t>(
               std::max(1.0, std::min(rank, static_cast<double>(n)))) -
           1;
}

/** Nearest-rank percentile of @p v (0 < p <= 100); v non-empty. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    return v[rankIndex(v.size(), p)];
}

/** Middle value, or the mean of the two middle values; v non-empty. */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/**
 * Latency percentile where failed queries miss every limit: they
 * rank above every completed query, whatever latency they report.
 */
double
latencyPercentile(const std::vector<Outcome> &outcomes, double p)
{
    std::vector<std::pair<bool, double>> keyed;
    keyed.reserve(outcomes.size());
    for (const Outcome &o : outcomes)
        keyed.emplace_back(o.failed, o.latency);
    std::sort(keyed.begin(), keyed.end());
    return keyed[rankIndex(keyed.size(), p)].second;
}

// ------------------------------------------------------------------ checks

/**
 * Invariants of one engine result. A run that hit a stage guard is a
 * failed operation (@p failed); a malformed result is an error.
 */
std::string
checkEngineRun(const gda::JobSpec &job, const gda::QueryResult &r,
               Seconds stageGuard, bool &failed)
{
    failed = false;
    if (r.stages.size() != job.stages.size())
        return "stage count " + std::to_string(r.stages.size()) +
               " != " + std::to_string(job.stages.size());
    if (!std::isfinite(r.latency) || r.latency <= 0.0)
        return "non-positive latency";
    Seconds prevEnd = 0.0;
    for (const gda::StageResult &s : r.stages) {
        if (!(s.start >= prevEnd && s.transferEnd >= s.start &&
              s.end >= s.transferEnd))
            return "stage '" + s.name + "' times out of order";
        if (s.transferEnd - s.start >= stageGuard)
            failed = true;
        prevEnd = s.end;
    }
    const double costs[] = {r.cost.compute, r.cost.network,
                            r.cost.storage};
    for (double c : costs)
        if (!std::isfinite(c) || c < 0.0)
            return "invalid cost component";
    if (!(r.cost.total() > 0.0))
        return "zero cost";
    if (!std::isfinite(r.minObservedBw) || r.minObservedBw < 0.0)
        return "invalid minimum BW";
    return {};
}

Bytes
wanBytesOf(const gda::QueryResult &r)
{
    Bytes total = 0.0;
    for (std::size_t i = 0; i < r.wanBytesByPair.rows(); ++i)
        for (std::size_t j = 0; j < r.wanBytesByPair.cols(); ++j)
            total += r.wanBytesByPair.at(i, j);
    return total;
}

// --------------------------------------------------------------- workloads

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Top-level program calls in one pass. */
    virtual std::size_t calls() const = 0;

    /** Make call @p i, through the timing decorators if @p tracer. */
    virtual CallResult call(std::size_t i, Tracer *tracer) = 0;

    /** Topology the layer replays run on. */
    virtual const net::Topology &topology() const = 0;

    /** Facade the core replays use (null: the workload has none). */
    virtual const core::Wanify *wanify() const { return nullptr; }

    /** Workload-specific virtual-time summaries of one pass. */
    virtual std::vector<Metric>
    summarize(const std::vector<Outcome> &) const
    {
        return {};
    }
};

/**
 * The offline campaign + forest fit of experiments::sharedPredictor,
 * uncached, so every set-up pays for it the way a fresh process does.
 */
std::shared_ptr<const core::RuntimeBwPredictor>
campaignPredictor()
{
    core::BandwidthAnalyzer analyzer(experiments::sharedAnalyzerConfig());
    const ml::Dataset data = analyzer.collect(20250042);
    auto predictor = std::make_shared<core::RuntimeBwPredictor>(
        experiments::sharedForestConfig());
    predictor->train(data, 20250043);
    return predictor;
}

/**
 * A production-shape forest on synthetic Table 3 rows, cheap to train,
 * for workloads that exercise serving rather than the campaign. This is
 * bench::syntheticPredictor's recipe, copied so that edits to the figure
 * benches' helpers cannot change this benchmark's inputs.
 */
std::shared_ptr<const core::RuntimeBwPredictor>
syntheticPredictor()
{
    constexpr std::uint64_t seed = 20250731;
    Rng rng(seed);
    ml::Dataset data(monitor::kFeatureCount, 1);
    for (std::size_t s = 0; s < 1500; ++s) {
        const double n = 2.0 + rng.uniformInt(0, 6);
        const double snap = rng.uniform(20.0, 2000.0);
        const double mem = rng.uniform(0.1, 0.9);
        const double cpu = rng.uniform(0.1, 0.9);
        const double retrans = rng.uniform(0.0, 0.5);
        const double dist = rng.uniform(100.0, 11000.0);
        const double target = snap * (1.1 - 0.3 * retrans) -
                              0.01 * dist + 40.0 * mem +
                              rng.normal(0.0, 25.0);
        data.add({n, snap, mem, cpu, retrans, dist}, target);
    }
    auto predictor = std::make_shared<core::RuntimeBwPredictor>(
        experiments::sharedForestConfig());
    predictor->train(data, seed ^ 0x9e3779b97f4a7c15ULL);
    return predictor;
}

/** Input shares decaying geometrically with DC index (skew forces
 *  cross-DC placement; a uniform TeraSort stays all-local). */
std::vector<double>
geometricSkew(std::size_t n)
{
    std::vector<double> skew(n, 0.0);
    double sum = 0.0;
    for (std::size_t d = 0; d < n; ++d) {
        skew[d] = std::pow(0.6, static_cast<double>(d));
        sum += skew[d];
    }
    for (double &s : skew)
        s /= sum;
    return skew;
}

/** One gda::Engine::run of an engine workload. */
struct EngineOp
{
    std::size_t job = 0;
    gda::Scheduler *scheduler = nullptr;
    const gda::RunOptions *opts = nullptr;
    std::uint64_t seed = 0;
    int arm = 0; ///< tpcds: 0 baseline, 1 WANify-TC
};

/** A fixed list of engine runs, one query each. */
class EngineWorkload : public Workload
{
  public:
    std::size_t calls() const override { return ops_.size(); }

    CallResult
    call(std::size_t i, Tracer *tracer) override
    {
        const EngineOp &op = ops_[i];
        const gda::JobSpec &job = jobs_[op.job];
        gda::Engine engine(topo_, simCfg_, op.seed);
        gda::Scheduler *scheduler = op.scheduler;
        const gda::RunOptions *opts = op.opts;
        std::optional<wanbench::TimedScheduler> timedScheduler;
        std::optional<wanbench::TimedDynamics> timedDynamics;
        gda::RunOptions tracedOpts;
        if (tracer != nullptr) {
            timedScheduler.emplace(*op.scheduler, *tracer);
            scheduler = &*timedScheduler;
            tracedOpts = *op.opts;
            if (tracedOpts.dynamics != nullptr) {
                timedDynamics.emplace(*tracedOpts.dynamics, *tracer);
                tracedOpts.dynamics = &*timedDynamics;
            }
            opts = &tracedOpts;
            tracer->beginCall("Engine::run");
        }
        const auto t0 = Clock::now();
        const gda::QueryResult r =
            engine.run(job, inputs_[op.job], *scheduler, *opts);
        CallResult out;
        out.seconds = secondsSince(t0);
        if (tracer != nullptr)
            tracer->endCall(r.retrainCpuSeconds);

        Outcome o;
        const std::string error =
            checkEngineRun(job, r, opts->maxStageSeconds, o.failed);
        if (!error.empty())
            out.errors.push_back(job.name + ": " + error);
        o.latency = r.latency;
        o.cost = r.cost.total();
        o.minBw = r.minObservedBw;
        o.wanBytes = wanBytesOf(r);
        const std::string bytes = checkBytes(o.wanBytes);
        if (!bytes.empty())
            out.errors.push_back(job.name + ": " + bytes);
        out.outcomes.push_back(o);

        Counters &c = out.counters;
        c.retrains = r.retrainsApplied;
        c.driftTriggers = r.retrainTriggers;
        c.faultsInjected = r.faultsInjected;
        c.aborts = r.transferAborts;
        c.retries = r.transferRetries;
        c.replans = r.faultReplans;
        c.gaugeFaults = r.gaugeFaults;
        c.modeSwitches = r.predictorModeSwitches;
        c.lostBytes = r.lostBytes;
        c.backoffSeconds = r.backoffSeconds;
        return out;
    }

    const net::Topology &topology() const override { return topo_; }

    /** The paper's other two per-query outcomes. */
    std::vector<Metric>
    summarize(const std::vector<Outcome> &outcomes) const override
    {
        Dollars cost = 0.0;
        std::vector<double> minBw;
        for (const Outcome &o : outcomes) {
            cost += o.cost;
            minBw.push_back(o.minBw);
        }
        return {{"cost_usd_mean",
                 cost / static_cast<double>(outcomes.size()), "usd"},
                {"min_bw_mbps_p50", median(minBw), "Mbps"}};
    }

  protected:
    explicit EngineWorkload(net::Topology topo) : topo_(std::move(topo)) {}

    /** Reference check of a run's billed WAN bytes ("" = passes). */
    virtual std::string
    checkBytes(Bytes) const
    {
        return {};
    }

    net::Topology topo_;
    net::NetworkSimConfig simCfg_ = experiments::defaultSimConfig();
    std::vector<gda::JobSpec> jobs_;
    std::vector<std::vector<Bytes>> inputs_;
    std::vector<EngineOp> ops_;
};

/**
 * Fig. 7: every TPC-DS query x {Tetrium, Kimchi} x {baseline, WANify-TC}
 * x trial seed. Baseline schedules against static-independent BW with
 * plain transfers; WANify-TC schedules against the predicted matrix and
 * deploys the full facade.
 */
class TpcdsWorkload : public EngineWorkload
{
  public:
    TpcdsWorkload(std::uint64_t seed, std::size_t trials)
        : EngineWorkload(experiments::workerCluster(8))
    {
        const auto predictor = campaignPredictor();
        wanify_.setPredictor(predictor);
        arms_[0].schedulerBw = monitor::staticIndependentBw(
            topo_, simCfg_, monitor::MeasurementConfig{}, 7777);
        net::NetworkSim sim(topo_, simCfg_, 31337);
        sim.advanceBy(10.0);
        monitor::MeshMeasurer measurer(sim);
        Rng rng(31337 ^ 0xfeed);
        arms_[1].schedulerBw = predictor->predictMatrix(
            topo_, measurer.snapshot(monitor::MeasurementConfig{}, rng));
        arms_[1].wanify = &wanify_;

        const auto seeds = deriveSeeds(seed, trials);
        gda::Scheduler *schedulers[] = {&tetrium_, &kimchi_};
        for (const auto q : workloads::allQueries()) {
            jobs_.push_back(workloads::tpcDsQuery(q, 100.0));
            storage::HdfsStore hdfs(topo_);
            hdfs.loadSkewed(jobs_.back().inputBytes,
                            experiments::naturalInputFractions(
                                topo_.dcCount()));
            inputs_.push_back(hdfs.distribution());
            for (gda::Scheduler *s : schedulers)
                for (int arm = 0; arm < 2; ++arm)
                    for (const std::uint64_t trial : seeds)
                        ops_.push_back({jobs_.size() - 1, s,
                                        &arms_[arm], trial, arm});
        }
    }

    const core::Wanify *wanify() const override { return &wanify_; }

    std::vector<Metric>
    summarize(const std::vector<Outcome> &outcomes) const override
    {
        double lat[2] = {0, 0}, bw[2] = {0, 0}, cost[2] = {0, 0};
        for (std::size_t k = 0; k < ops_.size(); ++k) {
            const int arm = ops_[k].arm;
            lat[arm] += outcomes[k].latency;
            bw[arm] += outcomes[k].minBw;
            cost[arm] += outcomes[k].cost;
        }
        std::vector<Metric> out = EngineWorkload::summarize(outcomes);
        out.push_back({"wanify_latency_gain", lat[0] / lat[1], "ratio"});
        out.push_back({"wanify_min_bw_lift", bw[1] / bw[0], "ratio"});
        out.push_back({"wanify_cost_gain", cost[0] / cost[1], "ratio"});
        return out;
    }

  private:
    core::Wanify wanify_;
    sched::TetriumScheduler tetrium_;
    sched::KimchiScheduler kimchi_;
    gda::RunOptions arms_[2];
};

/**
 * Fig. 9c/9d: skewed 120 GB TeraSort, WANify-TC + Tetrium with
 * drift-triggered retraining and forecast-aware planning, under the
 * five scenarios that churn the engine's adaptive paths (the last two
 * carry fault storms).
 */
class TerasortWorkload : public EngineWorkload
{
  public:
    TerasortWorkload(std::uint64_t seed, std::size_t trials)
        : EngineWorkload(experiments::workerCluster(8, 2)),
          wanify_(driftConfig(8))
    {
        const std::size_t n = topo_.dcCount();
        wanify_.setPredictor(campaignPredictor());
        // The scheduler believes the 1-VM cluster's static baseline,
        // as in the Fig. 9 benches.
        const auto staticBw = monitor::staticIndependentBw(
            experiments::workerCluster(n), simCfg_,
            monitor::MeasurementConfig{}, 7777);

        jobs_.push_back(workloads::teraSort(120.0));
        storage::HdfsStore hdfs(topo_);
        hdfs.loadSkewed(jobs_.back().inputBytes, geometricSkew(n));
        inputs_.push_back(hdfs.distribution());

        const char *const scenarios[] = {"cascading", "maintenance",
                                         "diurnal", "fault-storm",
                                         "blackout"};
        for (const char *name : scenarios)
            timelines_.push_back(
                std::make_unique<scenario::ScenarioTimeline>(
                    scenario::libraryScenario(name), n, 424242));
        opts_.resize(timelines_.size());
        const auto seeds = deriveSeeds(seed, trials);
        for (std::size_t s = 0; s < timelines_.size(); ++s) {
            gda::RunOptions &o = opts_[s];
            o.schedulerBw = staticBw;
            o.wanify = &wanify_;
            o.dynamics = timelines_[s].get();
            o.adaptOnDrift = true;
            o.forecast.enabled = true;
            o.forecast.horizon = 300.0;
            o.forecast.step = 5.0;
            o.forecast.anchor = core::ForecastConfig::Anchor::Current;
            for (const std::uint64_t trial : seeds)
                ops_.push_back({0, &tetrium_, &o, trial, 0});
        }
    }

    const core::Wanify *wanify() const override { return &wanify_; }

  private:
    /** Fig. 9c's scenario-sized drift window: two full meshes, firing
     *  at a 15% significant-error fraction. */
    static core::WanifyConfig
    driftConfig(std::size_t n)
    {
        core::WanifyConfig cfg;
        cfg.drift.windowSize = 2 * n * (n - 1);
        cfg.drift.minObservations = n * (n - 1);
        cfg.drift.retrainFraction = 0.15;
        return cfg;
    }

    core::Wanify wanify_;
    sched::TetriumScheduler tetrium_;
    std::vector<std::unique_ptr<scenario::ScenarioTimeline>> timelines_;
    std::vector<gda::RunOptions> opts_;
};

/** Spreads every DC's input uniformly over all DCs: the densest
 *  shuffle a placement can produce (n^2 concurrent pairs). */
class SpreadScheduler : public gda::Scheduler
{
  public:
    std::string name() const override { return "spread"; }

    Matrix<Bytes>
    placeStage(const gda::StageContext &ctx) override
    {
        const std::size_t n = ctx.topo->dcCount();
        Matrix<Bytes> a = Matrix<Bytes>::square(n, 0.0);
        for (net::DcId i = 0; i < n; ++i)
            for (net::DcId j = 0; j < n; ++j)
                a.at(i, j) = ctx.inputByDc[i] / static_cast<double>(n);
        return a;
    }
};

/**
 * bench_perf_mesh_scale's drain: one spread shuffle of 1 GB per DC
 * over a 64-DC mesh under the cascading scenario, event-driven clock,
 * no WANify.
 */
class MeshWorkload : public EngineWorkload
{
  public:
    MeshWorkload(std::uint64_t seed, std::size_t dcs)
        : EngineWorkload(experiments::workerCluster(dcs, 1)),
          timeline_(scenario::libraryScenario("cascading"), dcs, 77)
    {
        gda::JobSpec job;
        job.name = "mesh-drain";
        job.stages.push_back({"shuffle", 1.0, 0.0, true});
        job.inputBytes =
            units::gigabytes(1.0) * static_cast<double>(dcs);
        jobs_.push_back(job);
        inputs_.emplace_back(dcs, units::gigabytes(1.0));
        opts_.schedulerBw = Matrix<Mbps>::square(dcs, 400.0);
        opts_.dynamics = &timeline_;
        opts_.clock = gda::ClockMode::EventDriven;
        ops_.push_back({0, &spread_, &opts_, seed, 0});
    }

  private:
    /** Spread placement keeps 1/n of each DC's input local, so the
     *  billed WAN bytes are exactly the input times (n - 1) / n. */
    std::string
    checkBytes(Bytes wan) const override
    {
        const double n = static_cast<double>(topo_.dcCount());
        const Bytes expected = jobs_[0].inputBytes * (n - 1.0) / n;
        if (std::abs(wan - expected) > 1.0e-6 * expected)
            return "billed WAN bytes " + std::to_string(wan) +
                   " != spread placement's " + std::to_string(expected);
        return {};
    }

    scenario::ScenarioTimeline timeline_;
    SpreadScheduler spread_;
    gda::RunOptions opts_;
};

/**
 * A burst of mixed queries, all due at t = 0, on one resident
 * serve::Service over a shared 8-DC mesh with one slot per query: every
 * query is admitted at once and the allocator divides the mesh among
 * all of them.
 *
 * The query list is always mixedWorkload's seed-2025 mix (the committed
 * BENCH_serve trajectory's): its heavy-query count is binomial in the
 * seed and would swing the drain's cost by a third from seed to seed.
 * The run seed drives the service itself: network noise and the
 * per-query seeds derived from it.
 */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload(std::uint64_t seed, std::size_t queries)
        : topo_(experiments::workerCluster(8)), seed_(seed)
    {
        wanify_.setPredictor(syntheticPredictor());
        cfg_.maxConcurrent = queries;
        serve::WorkloadConfig wl;
        wl.queries = queries;
        wl.arrivalWindow = 0.0;
        specs_ = serve::mixedWorkload(wl, topo_.dcCount(), 2025);
    }

    std::size_t calls() const override { return 1; }

    CallResult
    call(std::size_t, Tracer *tracer) override
    {
        serve::Service service(topo_, cfg_,
                               experiments::defaultSimConfig(),
                               &wanify_, seed_);
        for (const serve::QuerySpec &q : specs_)
            service.submit(q);
        if (tracer != nullptr)
            tracer->beginCall("Service::drain");
        const auto t0 = Clock::now();
        const serve::ServiceReport rep = service.drain();
        CallResult out;
        out.seconds = secondsSince(t0);
        if (tracer != nullptr)
            tracer->endCall(0.0);

        if (rep.queries.size() != specs_.size())
            out.errors.push_back("report lost queries");
        if (rep.completed + rep.timedOut + rep.failedQueries !=
            rep.queries.size())
            out.errors.push_back("completed + timed out + failed != "
                                 "submitted");
        if (rep.peakConcurrent > cfg_.maxConcurrent)
            out.errors.push_back("admission exceeded the slot cap");
        for (std::size_t i = 0; i < rep.queries.size(); ++i) {
            const serve::QueryOutcome &q = rep.queries[i];
            Outcome o;
            o.failed = q.timedOut || q.killedByFault;
            o.latency = q.finished - q.arrival;
            o.wanBytes = q.wanBytes;
            if (!(q.admitted >= q.arrival && q.finished >= q.admitted) ||
                std::abs(q.latency - (q.finished - q.admitted)) >
                    1.0e-9 * std::max(1.0, q.latency))
                out.errors.push_back(q.name + ": times out of order");
            if (!o.failed && i < specs_.size() &&
                q.stages != specs_[i].job.stages.size())
                out.errors.push_back(q.name + ": unfinished stages");
            if (!std::isfinite(q.wanBytes) || q.wanBytes < 0.0)
                out.errors.push_back(q.name + ": invalid WAN bytes");
            out.outcomes.push_back(o);
        }
        Counters &c = out.counters;
        c.cappedPairRounds = rep.cappedPairRounds;
        c.redispatches = rep.redispatches;
        c.peakConcurrent = rep.peakConcurrent;
        c.timedOut = rep.timedOut;
        c.faultKills = rep.faultKills;
        return out;
    }

    const net::Topology &topology() const override { return topo_; }
    const core::Wanify *wanify() const override { return &wanify_; }

    std::vector<Metric>
    summarize(const std::vector<Outcome> &outcomes) const override
    {
        // Completed queries over the span from the first arrival to
        // the last finish of any query, timed-out ones included (the
        // service's own throughputPerHour leaves them out of the span).
        Seconds first = 0.0, last = 0.0;
        std::size_t completed = 0;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            const Seconds arrival = specs_[i].arrival;
            first = i == 0 ? arrival : std::min(first, arrival);
            last = std::max(last, arrival + outcomes[i].latency);
            completed += outcomes[i].failed ? 0 : 1;
        }
        const double span = last - first;
        return {{"throughput_qph",
                 span > 0.0 ? 3600.0 * static_cast<double>(completed) /
                                  span
                            : 0.0,
                 "q/sim_h"}};
    }

  private:
    net::Topology topo_;
    std::uint64_t seed_;
    core::Wanify wanify_;
    serve::ServiceConfig cfg_;
    std::vector<serve::QuerySpec> specs_;
};

/** A workload's name, default seed and set-up; @p smoke shrinks the
 *  shape for quick checks. */
struct WorkloadSpec
{
    const char *name;
    std::uint64_t defaultSeed;
    std::unique_ptr<Workload> (*make)(std::uint64_t seed, bool smoke);
};

const WorkloadSpec kWorkloads[] = {
    {"tpcds-8dc", 1000,
     [](std::uint64_t seed, bool smoke) -> std::unique_ptr<Workload> {
         return std::make_unique<TpcdsWorkload>(seed, smoke ? 2 : 20);
     }},
    {"terasort-dynamics-8dc", 1000,
     [](std::uint64_t seed, bool smoke) -> std::unique_ptr<Workload> {
         return std::make_unique<TerasortWorkload>(seed, smoke ? 2 : 20);
     }},
    {"serve-burst-128", 2025,
     [](std::uint64_t seed, bool smoke) -> std::unique_ptr<Workload> {
         return std::make_unique<ServeWorkload>(seed, smoke ? 24 : 128);
     }},
    {"mesh-cascade-64dc", 1234,
     [](std::uint64_t seed, bool smoke) -> std::unique_ptr<Workload> {
         return std::make_unique<MeshWorkload>(seed, smoke ? 16 : 64);
     }},
};

/** Every call once, each followed by its traced twin if @p tracer. */
Pass
runPass(Workload &w, Tracer *tracer)
{
    Pass pass;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < w.calls(); ++i) {
        CallResult plain = w.call(i, nullptr);
        if (tracer != nullptr) {
            const CallResult traced = w.call(i, tracer);
            if (resultHash(traced.outcomes) != resultHash(plain.outcomes))
                pass.errors.push_back("call " + std::to_string(i) +
                                      ": traced result differs");
            pass.errors.insert(pass.errors.end(), traced.errors.begin(),
                               traced.errors.end());
            pass.tracedCallSeconds.push_back(traced.seconds);
        }
        pass.callSeconds.push_back(plain.seconds);
        pass.outcomes.insert(pass.outcomes.end(), plain.outcomes.begin(),
                             plain.outcomes.end());
        pass.counters += plain.counters;
        pass.errors.insert(pass.errors.end(), plain.errors.begin(),
                           plain.errors.end());
    }
    pass.wallSeconds = secondsSince(t0);
    return pass;
}

// ----------------------------------------------------------------- replays

/** Median wall microseconds of @p reps calls of @p fn (after one
 *  warm-up call). */
template <typename Fn>
double
medianMicros(std::size_t reps, Fn &&fn)
{
    fn(0);
    std::vector<double> us;
    for (std::size_t r = 1; r <= reps; ++r) {
        const auto t0 = Clock::now();
        fn(r);
        us.push_back(secondsSince(t0) * 1.0e6);
    }
    return median(us);
}

/**
 * Layer replays on the workload's topology: the layers the top-level
 * call hides (prediction, planning, the flow solver, the allocator),
 * timed through their public entry points with the workload's shape.
 */
std::vector<Metric>
layerReplays(const Workload &w)
{
    const net::Topology &topo = w.topology();
    const std::size_t n = topo.dcCount();
    core::Wanify fallback;
    const core::Wanify *wanify = w.wanify();
    if (wanify == nullptr) {
        fallback.setPredictor(syntheticPredictor());
        wanify = &fallback;
    }

    net::NetworkSim predictSim(topo, experiments::defaultSimConfig(),
                               4242);
    predictSim.advanceBy(10.0);
    core::BwMatrix predicted;
    const double predictUs = medianMicros(5, [&](std::size_t r) {
        Rng rng(r);
        predicted = wanify->predictRuntimeBw(predictSim, rng);
    });
    const double planUs = medianMicros(
        20, [&](std::size_t) { (void)wanify->plan(predicted); });

    // One measurement flow per ordered pair (56 at 8 DCs, 4,032 at
    // 64); each round changes one factor and re-solves the mesh.
    net::NetworkSim mesh(topo, experiments::defaultSimConfig(), 4242);
    for (net::DcId i = 0; i < n; ++i)
        for (net::DcId j = 0; j < n; ++j)
            if (i != j)
                mesh.startMeasurement(topo.dc(i).vms.front(),
                                      topo.dc(j).vms.front(), 1);
    mesh.advanceBy(0.0);
    const double resolveUs = medianMicros(20, [&](std::size_t r) {
        mesh.setScenarioCapFactor(0, 1, r % 2 == 0 ? 0.8 : 1.0);
        mesh.advanceBy(0.0);
    });

    // 256 elastic flow groups, each shuffling out of one DC to all
    // others: the serve burst's contention shape on this mesh.
    std::vector<serve::QueryDemand> demands;
    for (net::FlowGroupId g = 1; g <= 256; ++g) {
        serve::QueryDemand d;
        d.group = g;
        const net::DcId src = static_cast<net::DcId>(g % n);
        for (net::DcId dst = 0; dst < n; ++dst)
            if (dst != src)
                d.pairs.push_back({topo.pairIndex(src, dst), 0.0});
        demands.push_back(std::move(d));
    }
    serve::BandwidthAllocator allocator(serve::AllocPolicy::MaxMinFair);
    net::NetworkSim shared(topo, experiments::defaultSimConfig(), 4242);
    const double allocUs = medianMicros(10, [&](std::size_t) {
        (void)allocator.allocate(shared, demands);
    });

    return {{"core.predict_us", predictUs, "us"},
            {"core.plan_us", planUs, "us"},
            {"net.resolve_us", resolveUs, "us"},
            {"serve.alloc_round_us", allocUs, "us"}};
}

// ------------------------------------------------------------------ output

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Per-layer metrics, per pass: one traced twin of every call. */
std::vector<Metric>
layerMetrics(const Tracer &t, std::size_t passes, const Pass &pass,
             double overhead, const std::vector<Metric> &replays)
{
    const double per = 1.0 / static_cast<double>(passes);
    const double call = t.callSeconds();
    auto share = [&](double seconds) {
        return call > 0.0 ? seconds / call : 0.0;
    };
    auto calls = [&](Layer l) {
        return static_cast<double>(t.layer(l).calls) * per;
    };
    auto count = [](std::size_t v) { return static_cast<double>(v); };
    const Counters &c = pass.counters;
    Seconds virtualSeconds = 0.0;
    Bytes wan = 0.0;
    for (const Outcome &o : pass.outcomes) {
        virtualSeconds += o.latency;
        wan += o.wanBytes;
    }
    std::vector<Metric> m = {
        {"exec.calls", count(t.calls()) * per, "count"},
        {"exec.call_ms", call * per * 1.0e3, "ms"},
        {"exec.self_ms", t.selfSeconds() * per * 1.0e3, "ms"},
        {"exec.self_share", share(t.selfSeconds()), "fraction"},
        {"sched.place_calls", calls(Layer::Place), "count"},
        {"sched.place_share", share(t.layer(Layer::Place).seconds),
         "fraction"},
        {"sched.search_iters", count(t.searchIterations) * per, "count"},
        {"scenario.apply_calls", calls(Layer::Apply), "count"},
        {"scenario.apply_share", share(t.layer(Layer::Apply).seconds),
         "fraction"},
        {"scenario.changepoint_calls", calls(Layer::ChangePoint),
         "count"},
        {"scenario.changepoint_share",
         share(t.layer(Layer::ChangePoint).seconds), "fraction"},
        {"scenario.capfactor_calls", calls(Layer::CapFactor), "count"},
        {"scenario.capfactor_share",
         share(t.layer(Layer::CapFactor).seconds), "fraction"},
        {"core.retrains", count(c.retrains), "count"},
        {"core.retrain_share", share(t.retrainSeconds()), "fraction"},
        {"core.drift_triggers", count(c.driftTriggers), "count"},
        {"fault.injected", count(c.faultsInjected), "count"},
        {"fault.aborts", count(c.aborts), "count"},
        {"fault.retries", count(c.retries), "count"},
        {"fault.replans", count(c.replans), "count"},
        {"fault.lost_gb", units::toGigabytes(c.lostBytes), "GB"},
        {"fault.backoff_share",
         virtualSeconds > 0.0 ? c.backoffSeconds / virtualSeconds : 0.0,
         "fraction"},
        {"fault.gauge_faults", count(c.gaugeFaults), "count"},
        {"fault.mode_switches", count(c.modeSwitches), "count"},
        {"net.wan_gb", units::toGigabytes(wan), "GB"},
        {"serve.capped_pair_rounds", count(c.cappedPairRounds), "count"},
        {"serve.redispatches", count(c.redispatches), "count"},
        {"serve.peak_concurrent", count(c.peakConcurrent), "count"},
        {"serve.timed_out", count(c.timedOut), "count"},
        {"serve.fault_kills", count(c.faultKills), "count"},
        {"trace.overhead", overhead, "ratio"},
    };
    m.insert(m.end(), replays.begin(), replays.end());
    return m;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 25.0;
    bool trace = false;
    std::string spansPath;
    bool smoke = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
            a.seedGiven = true;
            if (*value == '\0' || *end != '\0')
                return false;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, &end);
            if (*value == '\0' || *end != '\0' ||
                !(a.seconds > 0.0 && a.seconds <= 3600.0))
                return false;
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0)
                return false;
            a.trace = value[0] == '1';
        } else if (flag == "--spans") {
            a.spansPath = value;
        } else {
            return false;
        }
    }
    return !a.workload.empty();
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--spans PATH] [--smoke]\nworkloads:",
                 argv0);
    for (const WorkloadSpec &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto processStart = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage(argv[0]);
        return 2;
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (args.workload == w.name)
            spec = &w;
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        usage(argv[0]);
        return 2;
    }
    const std::uint64_t seed =
        args.seedGiven ? args.seed : spec->defaultSeed;

    // --- set-up, timed in batches before the first pass and after
    // every pass (each batch 0.2 s or 10 repetitions, at least one), so
    // the median spans the run: a shared machine's speed shifts for
    // seconds at a time, and a millisecond set-up would otherwise
    // report whichever state it landed in. The first repetition also
    // pays for process-level lazy initialisation, as a fresh process
    // does. Each batch rebuilds the workload the next pass runs on, so
    // the result-hash check also covers set-up. Traced and smoke runs
    // report no set-up time and set up once.
    std::vector<double> setupSeconds;
    std::unique_ptr<Workload> workload;
    const bool timeSetup = !args.trace && !args.smoke;
    auto setUp = [&] {
        double batch = 0.0;
        for (int reps = 0;
             reps == 0 || (timeSetup && reps < 10 && batch < 0.2); ++reps) {
            workload.reset();
            const auto t0 = Clock::now();
            workload = spec->make(seed, args.smoke);
            setupSeconds.push_back(secondsSince(t0));
            batch += setupSeconds.back();
        }
    };
    setUp();

    // --- measurement: passes until --seconds; at least two untraced
    // passes (the second checks the first), or one paired traced pass.
    Tracer tracer(!args.spansPath.empty());
    std::vector<Pass> passes;
    std::vector<double> walls, calls, overheads;
    const std::size_t minPasses = args.trace ? 1 : 2;
    const auto measureStart = Clock::now();
    for (;;) {
        passes.push_back(
            runPass(*workload, args.trace ? &tracer : nullptr));
        const Pass &p = passes.back();
        walls.push_back(p.wallSeconds);
        calls.insert(calls.end(), p.callSeconds.begin(),
                     p.callSeconds.end());
        for (std::size_t i = 0; i < p.tracedCallSeconds.size(); ++i)
            overheads.push_back(p.tracedCallSeconds[i] / p.callSeconds[i]);
        if (timeSetup)
            setUp();
        if (passes.size() >= minPasses &&
            secondsSince(measureStart) + median(walls) > args.seconds)
            break;
    }

    // --- correctness
    std::vector<std::string> errors;
    const std::vector<Outcome> &outcomes = passes.front().outcomes;
    const std::uint64_t hash = resultHash(outcomes);
    std::size_t attempted = 0, failed = 0;
    for (std::size_t k = 0; k < passes.size(); ++k) {
        for (const std::string &e : passes[k].errors)
            errors.push_back("pass " + std::to_string(k) + ": " + e);
        if (resultHash(passes[k].outcomes) != hash)
            errors.push_back("pass " + std::to_string(k) +
                             " diverged from pass 0 (result hash)");
        attempted += passes[k].outcomes.size();
        for (const Outcome &o : passes[k].outcomes)
            failed += o.failed ? 1 : 0;
    }

    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int nproc =
        sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus)
                                                      : 0;
    std::printf("info workload %s\n", args.workload.c_str());
    std::printf("info seed %llu\n", static_cast<unsigned long long>(seed));
    std::printf("info nproc %d\n", nproc);
    std::printf("info pool_threads %zu\n",
                ThreadPool::global().threadCount());
    std::printf("info passes %zu\n", passes.size());
    std::printf("info pass_wall_s");
    for (double w : walls)
        std::printf(" %.4f", w);
    std::printf("\n");
    std::printf("info setup_reps %zu\n", setupSeconds.size());
    std::printf("info calls_timed %zu\n", calls.size());
    std::printf("info queries_per_pass %zu\n", outcomes.size());
    std::printf("info result_hash %016llx\n",
                static_cast<unsigned long long>(hash));
    for (const Metric &i : workload->summarize(outcomes))
        std::printf("info %s %.17g %s\n", i.name.c_str(), i.value,
                    i.unit.c_str());

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", median(setupSeconds), "s"},
            {"wall_s", median(walls), "s"},
            {"run_wall_p50_ms", median(calls) * 1.0e3, "ms"},
            {"run_wall_p90_ms", percentile(calls, 90.0) * 1.0e3, "ms"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"latency_p50_s", latencyPercentile(outcomes, 50.0), "sim_s"},
            {"latency_p90_s", latencyPercentile(outcomes, 90.0), "sim_s"},
        };
    } else {
        // Self time is the call minus its children, so the layers sum
        // to the call by construction; the accounting closes only if
        // no call's children exceed it.
        if (tracer.minSelfSeconds() < 0.0)
            errors.push_back("layer accounting does not close: a call's "
                             "children exceed it");
        if (tracer.badPlacements > 0)
            errors.push_back(std::to_string(tracer.badPlacements) +
                             " placements did not conserve stage input");
        metrics = layerMetrics(tracer, passes.size(), passes.front(),
                               median(overheads), layerReplays(*workload));
        if (!args.spansPath.empty() &&
            !tracer.writeChromeTrace(args.spansPath, processStart))
            errors.push_back("cannot write " + args.spansPath);
    }

    for (const std::string &e : errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    for (const Metric &m : metrics)
        std::printf("%s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                errors.empty() ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return errors.empty() ? 0 : 1;
}
