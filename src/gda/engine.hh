/**
 * @file
 * GDA execution engine: runs a job stage by stage against the WAN
 * simulator.
 *
 * Per stage: the scheduler picks an assignment (where each DC's resident
 * input is processed), the engine opens one WAN transfer per
 * off-diagonal assignment cell, drives the network simulator — waking
 * WANify's local agents every AIMD epoch when WANify is deployed — and
 * finally advances through the compute phase whose duration depends on
 * each DC's aggregate compute rate. Job completion time is gated by the
 * slowest DC, which is gated by the weakest WAN link: exactly the
 * coupling the paper exploits. The per-stage state and mechanics live
 * in gda::QueryExecution, shared with serve::Service; the engine adds
 * WANify deployment, drift retraining, and per-transfer recovery.
 * Engine keeps only what outlives a run (topology, simulator config,
 * seed, run counter): each run() builds a private run object in
 * engine.cc that holds the run's simulator, RNG streams, event clock,
 * retry queue, WANify deployment and the result being built.
 *
 * The engine reports latency, the cost breakdown (compute incl. burst
 * surcharge, network egress, storage) and the minimum per-pair average
 * shuffle BW — the paper's three headline metrics.
 */

#ifndef WANIFY_GDA_ENGINE_HH
#define WANIFY_GDA_ENGINE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/forecast.hh"
#include "core/wanify.hh"
#include "cost/cost_model.hh"
#include "fault/fault.hh"
#include "gda/job.hh"
#include "gda/query_execution.hh"
#include "gda/scheduler.hh"
#include "net/network_sim.hh"

namespace wanify {

namespace scenario {
class Dynamics;
} // namespace scenario

namespace gda {

/** Per-stage outcome. */
struct StageResult
{
    std::string name;
    Seconds start = 0.0;
    Seconds transferEnd = 0.0;
    Seconds end = 0.0;
    Bytes wanBytes = 0.0;

    /** Min average pair BW among pairs moving >= 1 MB (0 if none). */
    Mbps minPairBw = 0.0;
};

/** Whole-query outcome. */
struct QueryResult
{
    Seconds latency = 0.0;
    cost::CostBreakdown cost;

    /** Min observed shuffle BW across stages (the paper's "minimum
     *  BW of the cluster"; 0 if the job moved no WAN data). */
    Mbps minObservedBw = 0.0;

    // --- drift telemetry (Section 3.3.4; WANify runs only) -----------

    /** Peak significant-error fraction the drift detector saw. */
    double driftErrorFraction = 0.0;

    /** Predicted-vs-monitored comparisons recorded. */
    std::size_t driftObservations = 0;

    /** Times the detector raised the retrain flag during the run. */
    std::size_t retrainTriggers = 0;

    // --- online learning telemetry (adaptOnDrift runs only) ----------

    /** Warm-start retrains actually performed during the run. */
    std::size_t retrainsApplied = 0;

    /**
     * Mean absolute BW prediction error (Mbps, off-diagonal pairs)
     * of the *stale* model against the stable BW gauged when each
     * retrain fired, averaged over this run's retrains. 0 when no
     * retrain happened.
     */
    double preRetrainError = 0.0;

    /**
     * Same error for the *retrained* model, measured against a fresh
     * gauge taken after the warm start — out-of-sample with respect
     * to the rows the new trees just trained on, so a drop means the
     * model genuinely learned the regime rather than re-anchoring.
     */
    double postRetrainError = 0.0;

    /**
     * Wall-clock seconds each warm-start retrain spent inside
     * Wanify::retrain (model copy + extra-tree growth + publish), in
     * firing order. This is real compute stall, not simulated time:
     * the query is stalled waiting to re-plan while the trees grow,
     * so it bounds how often WANify can afford to adapt.
     */
    std::vector<double> retrainLatencies;

    /** Sum of retrainLatencies (0 when no retrain fired). */
    double retrainCpuSeconds = 0.0;

    // --- fault & recovery telemetry (runs with a FaultPlan only) -----

    /** Fault events that fired inside this run's horizon. */
    std::size_t faultsInjected = 0;

    /** In-flight transfers killed by TransferAbort / DcBlackout. */
    std::size_t transferAborts = 0;

    /** Aborted transfers re-sent after backoff. */
    std::size_t transferRetries = 0;

    /** Residual re-placements after a transfer exhausted its retry
     *  budget (the replan-of-undelivered-bytes path). */
    std::size_t faultReplans = 0;

    /** Bytes that were in flight when an abort struck and had to be
     *  re-sent via retry or replan (the delivered prefix of each
     *  aborted transfer stays where it landed). */
    Bytes lostBytes = 0.0;

    /** Total simulated seconds spent waiting out retry backoffs. */
    Seconds backoffSeconds = 0.0;

    /** Gauge attempts lost to ProbeLoss / GaugeTimeout windows. */
    std::size_t gaugeFaults = 0;

    /** Degradation-ladder transitions (down or up) this run. */
    std::size_t predictorModeSwitches = 0;

    /** Worst rung reached: 0 model, 1 trend, 2 static. */
    int worstPredictorMode = 0;

    /** Replans served by GaugeTrend extrapolation (trend rung). */
    std::size_t trendPlans = 0;

    /** Replans served by the static a-priori matrix (static rung). */
    std::size_t staticPlans = 0;

    /** AgentCrash faults that took an AIMD agent down. */
    std::size_t agentCrashes = 0;

    /** DcBlackout faults that fired. */
    std::size_t blackouts = 0;

    std::vector<StageResult> stages;
    Matrix<Bytes> wanBytesByPair;
};

/**
 * Dynamics clock selector. The engine has one clock: epoch ticks, the
 * stage guard, fault edges, retry deadlines, and the dynamics'
 * discrete change points (Dynamics::changePointsIn) are scheduled on a
 * gda::EventClock and popped in deterministic (time, kind, seq) order,
 * so conditions change at their true times and flash crowds can open
 * mid-compute. The enum and RunOptions::clock remain only so callers
 * that select the event clock explicitly keep compiling; the engine
 * does not read them.
 */
enum class ClockMode
{
    EventDriven,
};

/** Per-run options — the experiment variables. */
struct RunOptions
{
    /** BW matrix the *scheduler* believes (the Table 4 variable). */
    Matrix<Mbps> schedulerBw;

    /**
     * Deploy WANify (plan + local agents, which throttle when its
     * feature set says so).
     * Null = plain data transfer with staticConnections.
     */
    const core::Wanify *wanify = nullptr;

    /**
     * Predicted BW matrix for WANify planning; empty = let WANify
     * snapshot-and-predict on the live sim. Fig. 8(b) injects errors
     * here.
     */
    std::optional<Matrix<Mbps>> predictedBwOverride;

    /** Static connection counts when WANify is absent (empty = 1). */
    Matrix<int> staticConnections;

    /** Skew weights forwarded to WANify's global optimizer. */
    std::vector<double> skewWeights;

    /**
     * Non-stationary WAN dynamics (scenario timeline or trace
     * replay) advanced every AIMD epoch. Scenario time zero is
     * simulator start: WANify's initial measurement snapshot (~1 s)
     * runs *inside* scenario time, so prediction sees the scenario's
     * opening conditions and the job starts shortly after t = 0.
     * Null = stationary OU noise only.
     */
    const scenario::Dynamics *dynamics = nullptr;

    /**
     * Forecast-aware planning (opt-in: off keeps snapshot planning,
     * and therefore every existing bench and golden, bit-identical).
     * When enabled, each placement carries a BwForecast — built from
     * `dynamics`' pure capacity factors when a scenario/trace is
     * attached (simulation mode), else from the per-pair trend of
     * this run's predicted/gauged matrices (deployed mode) — and the
     * fraction-search schedulers warm-start each stage from the plan
     * they previously found for it. With adaptOnDrift, each retrain
     * then stops the stage's unfinished transfers and re-places their
     * undelivered bytes under the retrained belief.
     */
    core::ForecastConfig forecast;

    /**
     * When the drift detector trips mid-run (WANify deployed, no
     * predictedBwOverride), run the full retraining path of Section
     * 3.3.4: gauge snapshot + stable BW on the live network, convert
     * the gauge into training rows, warm-start retrain the run's
     * pinned model, then re-predict, re-plan, and redeploy the
     * agents. Off by default so the paper's static-conditions benches
     * keep their exact semantics; scenario runs turn it on.
     */
    bool adaptOnDrift = false;

    /**
     * Publish each warm-start retrained model back to the shared
     * Wanify facade (atomic swap) so *later* runs start from it. Off
     * by default: publishing makes a run's starting model depend on
     * which earlier trials already finished, which would break the
     * bit-identical sequential-vs-parallel contract of
     * experiments::runTrials. Enable for deliberately sequential
     * online-learning campaigns (the CLI's --retrain mode does).
     */
    bool publishRetrainedModel = false;

    /**
     * Optional cross-run campaign accumulator: when set, every
     * runtime gauge is absorbed into this analyzer's incremental
     * dataset and warm starts train on the accumulated union — so a
     * sequential campaign's later runs learn from every earlier
     * run's gauges, not only their own. Mutable shared state: only
     * valid for sequential campaigns (pair it with
     * publishRetrainedModel; never share across parallel trials).
     * Null = each run keeps a private dataset.
     */
    core::BandwidthAnalyzer *campaign = nullptr;

    /**
     * Hard-fault schedule. Null = consume the dynamics source's
     * faultPlan() (itself null for fault-free sources); an explicit
     * plan, even an empty one, overrides it. A run without faults
     * holds an empty plan, which injects nothing and leaves results
     * bit-identical to a build without fault handling.
     */
    const fault::FaultPlan *faults = nullptr;

    /** Backoff schedule for aborted transfers. */
    fault::RetryPolicy retry;

    /** Degradation-ladder thresholds for gauge failures. */
    fault::PredictorHealthConfig predictorHealth;

    /** Safety cap per stage. */
    Seconds maxStageSeconds = 6.0 * 3600.0;

    /** Unread: the engine always runs the event clock (see
     *  ClockMode). */
    ClockMode clock = ClockMode::EventDriven;
};

class Engine
{
  public:
    Engine(net::Topology topo, net::NetworkSimConfig simCfg = {},
           std::uint64_t seed = 1);

    /**
     * Execute @p job whose input is distributed as @p inputByDc, using
     * @p scheduler for placement under @p opts.
     */
    QueryResult run(const JobSpec &job,
                    const std::vector<Bytes> &inputByDc,
                    Scheduler &scheduler, const RunOptions &opts);

    const net::Topology &topology() const { return topo_; }

  private:
    net::Topology topo_;
    net::NetworkSimConfig simCfg_;
    std::uint64_t seed_;
    std::uint64_t runCounter_ = 0;
};

} // namespace gda
} // namespace wanify

#endif // WANIFY_GDA_ENGINE_HH
