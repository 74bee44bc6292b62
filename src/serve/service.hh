/**
 * @file
 * Resident multi-query WAN-sharing service.
 *
 * The one-shot engine (gda::Engine) gives each query a private
 * simulator and whole links. The service inverts that: one shared
 * NetworkSim mesh, a query queue with admission control, and an online
 * cross-query BandwidthAllocator dividing each contended pair's
 * capacity among the active queries — the deployment shape a WANify
 * control plane actually runs in, where analytics queries arrive
 * continuously and the WAN is the shared resource.
 *
 * Each admitted query runs the engine's per-stage mechanics (a
 * gda::QueryExecution: placement, shuffle transfers, compute phase)
 * against the shared mesh, tagging every transfer with the query's
 * flow group so the allocator's share caps and weights apply. Planning
 * consumes the shared WANify predictor: each query pins a predictor
 * snapshot at admission (exactly the engine's pinning discipline), and
 * the service can republish a warm-start retrained model every K
 * completions so later admissions plan from fresher trees. Per-query
 * WANify agents and tc throttles are deliberately absent: per-pair
 * throttles are a single-tenant mechanism, and the allocator's
 * per-(group, pair) share caps are their multi-tenant replacement.
 *
 * The loop is virtual-time and epoch-quantized: admission, planning,
 * allocation, straggler checks, and retrains happen on epoch
 * boundaries (or earlier, when every in-flight transfer completes),
 * while the data plane — transfer completions, stage compute ends —
 * is resolved at exact event times by the flow-level simulator.
 * Planning for concurrently admitted queries fans out on the global
 * ThreadPool, but work is assigned by index and transfers start
 * sequentially in query order, so a fixed seed reproduces the
 * aggregate report bit-identically at any WANIFY_THREADS setting.
 */

#ifndef WANIFY_SERVE_SERVICE_HH
#define WANIFY_SERVE_SERVICE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/forecast.hh"
#include "core/wanify.hh"
#include "gda/engine.hh"
#include "gda/job.hh"
#include "gda/query_execution.hh"
#include "gda/scheduler.hh"
#include "ml/dataset.hh"
#include "net/network_sim.hh"
#include "scenario/scenario.hh"
#include "serve/allocator.hh"

namespace wanify {
namespace serve {

/** Placement policy used for every query's stages. */
enum class SchedulerKind
{
    Locality,
    Tetrium,
    Kimchi,
};

/** Service tunables. */
struct ServiceConfig
{
    AllocPolicy policy = AllocPolicy::MaxMinFair;
    SchedulerKind scheduler = SchedulerKind::Tetrium;

    /** Admission control: queries running at once; others queue. */
    std::size_t maxConcurrent = 64;

    /** Control-plane quantum (admission / allocation / stragglers). */
    Seconds epoch = 1.0;

    /** Per-query guard; exceeding it aborts the query (timedOut). */
    Seconds maxQuerySeconds = 4.0 * 3600.0;

    // --- straggler re-dispatch -------------------------------------------

    /**
     * Re-dispatch a transfer still unfinished after stragglerFactor
     * times its planned duration: stop it and restart the remaining
     * bytes with doubled connections. 0 disables.
     */
    double stragglerFactor = 4.0;

    /** Connection cap for re-dispatched transfers. */
    int maxRedispatchConnections = 8;

    /**
     * Re-dispatches allowed per transfer (each doubles connections up
     * to maxRedispatchConnections). The default preserves the
     * historical once-per-transfer behavior; 0 disables re-dispatch
     * even with a positive stragglerFactor.
     */
    std::size_t maxRedispatches = 1;

    // --- fault injection & recovery --------------------------------------

    /**
     * Hard-fault schedule applied to the shared mesh. Unlike the
     * engine's per-transfer retry/backoff, the service recovers at
     * query granularity: a query whose in-flight transfer a fault
     * kills has its run torn down and re-admitted after
     * requeueBackoff. Must be compiled for the service's cluster size
     * and outlive the service. Null (or empty) = fault-free.
     */
    const fault::FaultPlan *faults = nullptr;

    /** Re-admissions granted per fault-killed query before it is
     *  reported failed. */
    std::size_t maxRequeues = 2;

    /** Delay before a fault-killed query re-enters admission. */
    Seconds requeueBackoff = 30.0;

    /**
     * While any DC blackout is active, the admission slot cap shrinks
     * to ceil(maxConcurrent * this), floored at one slot: admitting a
     * full cohort into a degraded mesh only manufactures stragglers
     * and fault kills.
     */
    double blackoutAdmissionFactor = 0.5;

    // --- non-stationary dynamics + forecast-aware planning ---------------

    /**
     * Optional WAN dynamics (scenario timeline or trace replay)
     * applied to the shared mesh at every control-plane step, with
     * its background bursts opened on the mesh as group-0 tenants.
     * Must be compiled for the service's cluster size and outlive
     * the service. Null = stationary mesh.
     */
    const scenario::Dynamics *dynamics = nullptr;

    /**
     * Forecast-aware planning: with enabled set and dynamics
     * attached, every planning round builds a per-query BwForecast
     * (the query's believed matrix scaled by the dynamics' future
     * capacity factors, Current anchor) so placement and straggler
     * budgets integrate across upcoming scenario events, and each
     * query's fraction search warm-starts from its previous plan.
     */
    core::ForecastConfig forecast;

    /**
     * Forecast-aware admission: hold admissions while the mesh-mean
     * forecast capacity is below admissionTrough times the best
     * mesh-mean within the horizon — the upcoming recovery makes
     * "right now" the worst moment to start a query. Each hold is
     * capped at maxAdmissionHold and followed by an equally long
     * cool-off before another hold may begin, so admission delay
     * stays bounded. Needs forecast.enabled and dynamics.
     */
    bool forecastAdmission = false;
    double admissionTrough = 0.6;
    Seconds maxAdmissionHold = 120.0;

    // --- online model refresh --------------------------------------------

    /**
     * Every this many completed queries, gauge the live mesh, warm-
     * start retrain the published predictor on the gauged rows, and
     * publish the result (Wanify::retrain's atomic swap) so later
     * admissions pin the fresher model. The gauge runs real
     * measurement flows on the shared mesh — adapting costs the
     * tenants bandwidth, as it would in production. 0 disables.
     */
    std::size_t retrainEveryCompleted = 0;
};

/** One query submitted to the service. */
struct QuerySpec
{
    std::string name;
    gda::JobSpec job;
    std::vector<Bytes> inputByDc;

    /** Virtual arrival time (service time zero = first drain()). */
    Seconds arrival = 0.0;

    /** Priority weight for AllocPolicy::WeightedPriority (> 0). */
    double weight = 1.0;
};

/** Per-query outcome, reported in submission order. */
struct QueryOutcome
{
    std::string name;
    Seconds arrival = 0.0;
    Seconds admitted = 0.0;
    Seconds finished = 0.0;

    /** Admission delay imposed by the concurrency cap. */
    Seconds queueWait = 0.0;

    /** finished - admitted (execution only, queue wait excluded). */
    Seconds latency = 0.0;

    /** Planned WAN bytes plus straggler re-sends. */
    Bytes wanBytes = 0.0;

    /** Worst WAN share the query ever planned a stage with. */
    double minPlanningShare = 1.0;

    std::size_t stages = 0;
    std::size_t redispatches = 0;
    bool timedOut = false;

    /** Times a fault kill sent the query back to admission. */
    std::size_t requeues = 0;

    /** Fault-killed after exhausting maxRequeues (reported failed,
     *  not completed). */
    bool killedByFault = false;
};

/** Aggregate outcome of one drain(). */
struct ServiceReport
{
    std::vector<QueryOutcome> queries;

    std::size_t completed = 0;
    std::size_t timedOut = 0;

    /** Highest concurrent admission level reached. */
    std::size_t peakConcurrent = 0;

    /** Queries that waited in the admission queue. */
    std::size_t queuedAdmissions = 0;

    /** First admission to last finish. */
    Seconds makespan = 0.0;

    /** Completed queries per hour of makespan. */
    double throughputPerHour = 0.0;

    /**
     * Jain fairness index over per-query attained WAN throughput
     * (wanBytes / latency), completed WAN-active queries only:
     * (sum x)^2 / (N * sum x^2), 1 = perfectly even.
     */
    double jainFairness = 0.0;

    std::size_t redispatches = 0;
    std::size_t retrainsPublished = 0;

    /** Queries whose admission a forecast hold deferred. */
    std::size_t forecastHeldAdmissions = 0;

    /** Query runs torn down by fault kills (incl. re-admitted ones). */
    std::size_t faultKills = 0;

    /** Queries re-admitted after a fault kill at least once. */
    std::size_t requeuedQueries = 0;

    /** Queries that exhausted maxRequeues and were reported failed. */
    std::size_t failedQueries = 0;

    /** Sum over allocation rounds of pairs that got share caps. */
    std::size_t cappedPairRounds = 0;

    /**
     * FNV-1a hash over every query's (index, latency, wanBytes,
     * redispatches, stages, timedOut) — the bit-identity witness a
     * fixed seed must reproduce across runs and thread counts.
     */
    std::uint64_t resultHash = 0;
};

class Service
{
  public:
    /**
     * @param wanify Shared facade whose published predictor feeds
     *               planning (null = schedulers believe the raw
     *               effective path capacities). Must outlive the
     *               service; may be shared with other components.
     */
    Service(net::Topology topo, ServiceConfig cfg = {},
            net::NetworkSimConfig simCfg = {},
            const core::Wanify *wanify = nullptr,
            std::uint64_t seed = 1);

    /** Enqueue a query; valid until drain() starts. */
    void submit(QuerySpec spec);

    /** Run the service loop until every submitted query finishes. */
    ServiceReport drain();

    const net::Topology &topology() const { return topo_; }

  private:
    enum class Phase { Queued, Planning, Shuffling, Computing, Done };

    struct QueryState
    {
        std::size_t index = 0;
        QuerySpec spec;
        net::FlowGroupId group = 0;
        Phase phase = Phase::Queued;
        std::shared_ptr<const core::RuntimeBwPredictor> model;
        std::unique_ptr<gda::Scheduler> scheduler;

        /** Stage state and transfers, created at first admission. It
         *  points into spec.job, which no longer moves once draining
         *  (submit() is closed by then). */
        std::optional<gda::QueryExecution> exec;

        /** Outputs of the parallel planning pass. */
        Matrix<Mbps> believedBw;
        Matrix<Bytes> placed;
        Matrix<int> connections;

        /** Per-query prediction buffers, reused every planning
         *  round (each parallel planning worker owns its query's
         *  scratch, so the fan-out stays race-free). */
        core::PredictScratch predictScratch;

        double share = 1.0;

        /** Per-query forecast of the current planning round. */
        core::BwForecast forecast;

        /** Admission deferred by a forecast hold (counted once). */
        bool heldByForecast = false;

        Seconds stageEnd = 0.0;

        QueryOutcome outcome;
    };

    /** A fault-killed query waiting out its re-admission backoff. */
    struct PendingRequeue
    {
        std::size_t idx = 0;
        Seconds due = 0.0;
    };

    void applyFaults();
    void dropInactive();
    std::size_t effectiveSlotCap() const;
    void killQueryRun(QueryState &q, Seconds at);
    void admitQuery(QueryState &q, Seconds now, bool readmission);
    bool admissionHeld();
    double meshMeanFactor(Seconds t) const;
    void admitDueQueries();
    void transitionComputedQueries();
    void planAndLaunch();
    void runAllocationRound();
    void routeCompletions();
    void enterComputePhase(QueryState &q);
    void checkStragglersAndGuards();
    void maybeRetrain();
    void finishQuery(QueryState &q, Seconds at, bool timedOut);
    ServiceReport buildReport() const;

    net::Topology topo_;
    ServiceConfig cfg_;
    const core::Wanify *wanify_;
    net::NetworkSim sim_;

    /** Scenario conditions and bursts on the shared mesh; bursts are
     *  other tenants' flows (group 0), competing with every query
     *  through the allocator-managed mesh. */
    scenario::DynamicsCursor dynamics_;
    Rng rng_;
    BandwidthAllocator allocator_;

    std::vector<QueryState> queries_;   ///< submission order
    std::vector<std::size_t> arrivalOrder_;
    std::size_t nextArrival_ = 0;
    std::vector<std::size_t> active_;   ///< admitted, not Done; sorted
    bool draining_ = false;

    ml::Dataset gaugedRows_;
    std::size_t completedSinceRetrain_ = 0;
    std::size_t retrainsPublished_ = 0;
    std::size_t cappedPairRounds_ = 0;
    std::size_t peakConcurrent_ = 0;
    std::size_t queuedAdmissions_ = 0;

    Seconds admissionResumeAt_ = 0.0;
    Seconds holdCooloffUntil_ = 0.0;
    std::size_t forecastHeldAdmissions_ = 0;

    /** Fault-killed queries awaiting re-admission, in due order
     *  (backoff is constant, so appends keep it sorted). */
    std::vector<PendingRequeue> requeue_;
    Seconds faultCursor_ = -1.0;
    std::size_t faultKills_ = 0;
};

} // namespace serve
} // namespace wanify

#endif // WANIFY_SERVE_SERVICE_HH
