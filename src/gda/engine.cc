#include "gda/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "gda/event_clock.hh"
#include "monitor/features.hh"
#include "scenario/forecast.hh"
#include "scenario/scenario.hh"

namespace wanify {
namespace gda {

using net::DcId;
using net::NetworkSim;
using net::TransferId;

namespace {

constexpr Bytes kMinAccountedBytes = 1024.0 * 1024.0; // 1 MB

/** Mean absolute gap between two BW matrices over off-diagonal
 *  pairs — the pre/post-retrain prediction-error metric. */
double
meanAbsOffDiag(const Matrix<Mbps> &a, const Matrix<Mbps> &b)
{
    const std::size_t n = a.rows();
    double sum = 0.0;
    std::size_t pairs = 0;
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            sum += std::abs(a.at(i, j) - b.at(i, j));
            ++pairs;
        }
    }
    return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

/** Lower the running minimum @p min to @p bw; 0 means none for both. */
void
foldMin(Mbps &min, Mbps bw)
{
    if (bw > 0.0)
        min = min == 0.0 ? bw : std::min(min, bw);
}

/** An aborted (or blackout-deferred) transfer waiting out backoff.
 *  Its bytes live here, not in the stage assignment, until it flies:
 *  a retry the stage guard drops never reaches the compute phase. */
struct RetryItem
{
    DcId src, dst;
    Bytes bytes;
    std::size_t attempt = 0;
    Seconds due = 0.0;
};

/**
 * A control-plane measurement window as it opened: the per-pair byte
 * counters (negated), the active bursts' progress, and the pending job
 * transfers' progress in pending() order. Closing it bills the window's
 * *extra* bytes (growth minus job minus bursts) as control-plane bytes,
 * never to the query. The window starts and stops no job transfer, so
 * both ends list the same pending() transfers in the same order.
 */
struct ControlProbe
{
    Matrix<Bytes> probe;
    Matrix<Bytes> burstBefore;
    std::vector<Bytes> jobMoved;
};

/**
 * One Engine::run, phase by phase. deploy() predicts, plans and deploys
 * WANify (Section 4.1). Per stage, shuffle() places the stage and pops
 * the event clock until its transfers are done: fault edges fire the
 * recovery machinery, and each AIMD epoch's onEpochTick() wakes the
 * agents and checks the drift gauge, whose trip runs
 * retrainAndRedeploy() (Section 3.3.4); compute() then runs the compute
 * phase. bill() prices the query. The members are the run's state.
 */
class QueryRun
{
  public:
    QueryRun(const net::Topology &topo, const net::NetworkSimConfig &simCfg,
             std::uint64_t runSeed, const JobSpec &job,
             const std::vector<Bytes> &inputByDc, Scheduler &scheduler,
             const RunOptions &opts)
        : topo_(topo), job_(job), scheduler_(scheduler), opts_(opts),
          runSeed_(runSeed), sim_(topo, simCfg, runSeed),
          exec_(topo, job, inputByDc)
    {}

    QueryRun(const QueryRun &) = delete; // dynamics_ refers to sim_

    QueryResult
    run()
    {
        // Scenario time zero is job start: install initial conditions
        // before WANify snapshots the network, so prediction and
        // planning see the scenario's opening state.
        dynamics_.advanceTo(sim_.now());
        deploy();
        drift_.rebase(sim_);
        for (DcId i = 0; i < n_; ++i)
            for (DcId j = 0; j < n_; ++j)
                bytesAtStart_.at(i, j) = sim_.pairBytes(i, j);
        jobStart_ = sim_.now();
        // Forecast-aware planning: the gauge trend backs deployed-mode
        // forecasts when no dynamics timetable exists.
        if (opts_.wanify != nullptr && !predicted_.empty())
            trend_.record(sim_.now(), predicted_);

        for (; !exec_.done(); exec_.nextStage()) {
            stage_ = StageResult{};
            stage_.name = exec_.stageSpec().name;
            stage_.start = sim_.now();
            shuffle();
            compute();
            result_.stages.push_back(stage_);
        }
        bill();
        return std::move(result_);
    }

  private:
    // --- WANify deployment (Section 4.1) ---------------------------------
    void
    deploy()
    {
        if (opts_.wanify == nullptr)
            return;
        // The run pins one predictor snapshot up front: retrains by
        // concurrent trials may swap the facade's published model at
        // any time, but this run's predictions (and its own warm
        // starts) evolve only from the pinned lineage, keeping every
        // trial deterministic in its seed alone.
        model_ = opts_.wanify->predictorSnapshot();
        if (opts_.predictedBwOverride.has_value()) {
            predicted_ = *opts_.predictedBwOverride;
        } else {
            if (model_ == nullptr || !model_->trained())
                fatal("Engine::run: WANify predictor not trained");
            predicted_ = opts_.wanify->predictRuntimeBw(sim_, rng_,
                                                        *model_);
        }
        plan_ = opts_.wanify->plan(predicted_, opts_.skewWeights);
        deployment_ = opts_.wanify->deploy(sim_, plan_, predicted_);
        epoch_ = opts_.wanify->config().aimd.epoch;
    }

    int
    connectionsFor(DcId i, DcId j) const
    {
        if (!deployment_.agents.empty())
            return 1; // agents overwrite via applyTargets()
        if (opts_.wanify != nullptr &&
            opts_.wanify->config().features.globalOptimization) {
            // Global-only ablation: fixed at the plan's maximum.
            return plan_.maxCons.at(i, j);
        }
        if (!opts_.staticConnections.empty())
            return std::max(1, opts_.staticConnections.at(i, j));
        return 1;
    }

    void
    notePredictorMode()
    {
        ++result_.predictorModeSwitches;
        result_.worstPredictorMode = std::max(
            result_.worstPredictorMode, static_cast<int>(health_.mode()));
    }

    core::BwForecast
    buildForecast() const
    {
        if (!opts_.forecast.enabled)
            return {};
        if (opts_.dynamics != nullptr)
            return scenario::forecastFromDynamics(
                *opts_.dynamics, opts_.schedulerBw, sim_.now(),
                opts_.forecast);
        if (trend_.ready())
            return trend_.forecast(sim_.now(), opts_.forecast.horizon,
                                   opts_.forecast.step);
        return {};
    }

    /** Wake the clock at the dynamics' change points in [t0, t1]. */
    void
    scheduleChangePoints(Seconds t0, Seconds t1)
    {
        if (opts_.dynamics == nullptr)
            return;
        std::vector<scenario::ChangePoint> edges;
        opts_.dynamics->changePointsIn(t0, t1, edges);
        for (const scenario::ChangePoint &cp : edges)
            clock_.push(cp.time, cp.kind == scenario::ChangeKind::Factor
                                     ? ClockEventKind::DynamicsChange
                                     : ClockEventKind::BurstEdge);
    }

    // --- fault recovery machinery ----------------------------------------
    // A fault-free run holds an empty plan: these find no work, and
    // shuffle() schedules no fault edges.
    void
    queueRetry(const RetryItem &item)
    {
        result_.backoffSeconds += item.due - sim_.now();
        retries_.push_back(item);
        clock_.push(item.due, ClockEventKind::RetryDue);
    }

    /** Start (or blackout-defer) one shuffle transfer whose bytes are
     *  already counted in the assignment. A pair that is dark right
     *  now holds its bytes back in the retry queue (and out of the
     *  assignment) until the blackout clears. */
    bool
    startShuffleTransfer(DcId i, DcId j, Bytes bytes,
                         std::size_t attempt = 0)
    {
        if (faults_.pairBlackedOutAt(i, j, sim_.now())) {
            exec_.assignment().at(i, j) -= bytes;
            queueRetry({i, j, bytes, attempt,
                        faults_.blackoutClearTime(i, j, sim_.now())});
            return false;
        }
        exec_.start(sim_, i, j, bytes, connectionsFor(i, j), 0, attempt);
        return true;
    }

    /** A transfer that exhausted its retry budget re-places its
     *  undelivered bytes as a fresh residual placement with the dead
     *  pair's believed bandwidth floored, so the fraction search
     *  routes around it (the replan-of-undelivered-bytes path,
     *  alternate-path flavor). No warm-start memory: the penalized
     *  belief has a different shape than the stage's original plan. */
    void
    replanResidual(DcId src, DcId dst, Bytes bytes)
    {
        ++result_.faultReplans;
        std::vector<Bytes> residual(n_, 0.0);
        residual[src] = bytes;
        Matrix<Mbps> penalized = opts_.schedulerBw;
        penalized.at(src, dst) = core::BwForecast::kMinFeasibleMbps;
        StageContext rctx = exec_.context(residual, penalized);
        rctx.memory = nullptr;
        exec_.launch(
            exec_.place(scheduler_, rctx, buildForecast(), sim_.now()),
            [this](DcId i, DcId j, Bytes b) { startShuffleTransfer(i, j, b); });
    }

    /** Kill one in-flight transfer — its delivered part stays where it
     *  landed — and either queue a backed-off retry of the remainder
     *  or fall through to the residual replan. */
    void
    abortTransfer(TransferId id)
    {
        const auto lost = exec_.stop(sim_, id, 1.0);
        if (!lost)
            return; // effectively delivered; completion handling owns it
        ++result_.transferAborts;
        result_.lostBytes += lost->bytes;
        if (lost->attempt + 1 < opts_.retry.maxAttempts) {
            const Seconds due = faults_.blackoutClearTime(
                lost->src, lost->dst,
                sim_.now() + opts_.retry.backoff(
                                 lost->attempt, splitmix64(retryRngState_)));
            queueRetry({lost->src, lost->dst, lost->bytes,
                        lost->attempt + 1, due});
        } else {
            replanResidual(lost->src, lost->dst, lost->bytes);
        }
    }

    /** Launch every queued retry whose backoff has expired. A retry
     *  that finds its pair dark again nets back out of the assignment
     *  and re-queues with a later due time, so the index scan below
     *  never revisits it this pass. */
    void
    startDueRetries()
    {
        for (std::size_t k = 0; k < retries_.size();) {
            if (retries_[k].due > sim_.now() + 1.0e-9) {
                ++k;
                continue;
            }
            const RetryItem item = retries_[k];
            retries_.erase(retries_.begin() +
                           static_cast<std::ptrdiff_t>(k));
            exec_.assignment().at(item.src, item.dst) += item.bytes;
            if (startShuffleTransfer(item.src, item.dst, item.bytes,
                                     item.attempt) &&
                item.attempt > 0)
                ++result_.transferRetries;
        }
    }

    /** Re-arm the agents whose DC's agent is up (only DC @p only's
     *  when given): install their targets and start a fresh AIMD
     *  window. */
    void
    rearmAgents(std::optional<DcId> only = std::nullopt)
    {
        for (auto &agent : deployment_.agents) {
            const DcId dc = agent->sourceDc();
            if (agentCrashed_[dc] || (only && dc != *only))
                continue;
            agent->applyTargets();
            agent->resetWindow();
        }
    }

    /** A dead agent's throttles dissolve: its outgoing pairs fall back
     *  to unthrottled contention until it restarts. */
    void
    dropThrottles(DcId dc)
    {
        for (DcId j = 0; j < n_; ++j)
            if (dc != j)
                sim_.setTcLimit(dc, j, 0.0);
    }

    void
    crashAgentAt(DcId dc)
    {
        ++result_.agentCrashes;
        if (agentCrashed_[dc])
            return;
        agentCrashed_[dc] = 1;
        dropThrottles(dc);
    }

    void
    restartCrashedAgents(Seconds t)
    {
        for (DcId dc = 0; dc < n_; ++dc) {
            if (!agentCrashed_[dc] ||
                faults_.agentCrashedAt(static_cast<int>(dc), t))
                continue;
            agentCrashed_[dc] = 0;
            rearmAgents(dc);
        }
    }

    /** Plan and deploy fresh agents for @p belief. A crashed DC's
     *  fresh agent runs no epoch: rearmAgents() and onEpochTick() skip
     *  it, so its row (cleared at the crash) stays unthrottled until
     *  restartCrashedAgents() re-arms it. */
    void
    redeploy(const Matrix<Mbps> &belief)
    {
        plan_ = opts_.wanify->plan(belief, opts_.skewWeights);
        deployment_ = opts_.wanify->deploy(sim_, plan_, belief);
        rearmAgents();
        predicted_ = belief;
    }

    /** Fire every fault whose start lies in (faultCursor_, t], then
     *  restart agents whose crash windows have closed. ProbeLoss /
     *  GaugeTimeout have no edge action — retrainAndRedeploy() queries
     *  their windows at gauge time. */
    void
    applyFaultsUpTo(Seconds t)
    {
        std::vector<std::size_t> started;
        faults_.startsIn(faultCursor_, t, started);
        for (std::size_t fi : started) {
            const fault::FaultEvent &ev = faults_.events()[fi].ev;
            ++result_.faultsInjected;
            if (ev.kind == fault::FaultKind::DcBlackout)
                ++result_.blackouts;
            if (ev.kind == fault::FaultKind::AgentCrash)
                crashAgentAt(static_cast<DcId>(ev.dc));
            for (const TransferId id : exec_.killedBy(ev))
                abortTransfer(id);
        }
        faultCursor_ = std::max(faultCursor_, t);
        restartCrashedAgents(t);
    }

    // --- drift retraining (Section 3.3.4) ---------------------------------
    /** Bytes each pending job transfer has moved so far, in pending()
     *  order; a finished one's come from its completion record, which
     *  the next clock pop routes. */
    std::vector<Bytes>
    jobBytesMoved() const
    {
        std::vector<Bytes> moved;
        for (const auto &[id, t] : exec_.pending()) {
            Bytes bytes = sim_.status(id).bytesMoved;
            for (const net::CompletionRecord &rec : sim_.completions())
                if (rec.id == id)
                    bytes = rec.moved;
            moved.push_back(bytes);
        }
        return moved;
    }

    ControlProbe
    openProbe() const
    {
        ControlProbe p{Matrix<Bytes>::square(n_, 0.0),
                       dynamics_.activeBurstMoved(), jobBytesMoved()};
        for (DcId i = 0; i < n_; ++i)
            for (DcId j = 0; j < n_; ++j)
                p.probe.at(i, j) = -sim_.pairBytes(i, j);
        return p;
    }

    void
    closeProbe(ControlProbe &p)
    {
        // Bursts settle their own bill via burstBytes when they stop;
        // here only their in-window progress is netted out.
        const Matrix<Bytes> burstAfter = dynamics_.activeBurstMoved();
        for (DcId i = 0; i < n_; ++i)
            for (DcId j = 0; j < n_; ++j)
                p.probe.at(i, j) += sim_.pairBytes(i, j) -
                                    (burstAfter.at(i, j) -
                                     p.burstBefore.at(i, j));
        const std::vector<Bytes> jobAfter = jobBytesMoved();
        std::size_t k = 0;
        for (const auto &[id, t] : exec_.pending()) {
            p.probe.at(t.src, t.dst) -= jobAfter[k] - p.jobMoved[k];
            ++k;
        }
        for (DcId i = 0; i < n_; ++i)
            for (DcId j = 0; j < n_; ++j)
                controlBytes_.at(i, j) += std::max(0.0, p.probe.at(i, j));
    }

    /**
     * The online learning loop, run when the drift gauge fires under
     * adaptOnDrift: gauge the live network (snapshot + one epoch of
     * stable mesh BW — this costs measurement time, as in the paper),
     * convert the gauge into training rows, warm-start retrain the
     * pinned model, then re-predict from a second out-of-sample gauge,
     * re-plan, and redeploy fresh agents. The old agents' tc limits
     * stay installed throughout: both gauges measure the throttled
     * mesh, and the fresh agents keep no record of those caps, so one
     * they do not re-mark as BW-rich is never released (a ROADMAP open
     * item). A ControlProbe brackets the whole window so the probes
     * bill to WANify's control plane, not the query.
     */
    void
    retrainAndRedeploy()
    {
        fault::FaultKind gaugeKind = fault::FaultKind::ProbeLoss;
        if (faults_.gaugeFaultAt(sim_.now(), &gaugeKind)) {
            replanOnGaugeFault(gaugeKind);
            return;
        }
        ControlProbe probe = openProbe();

        // Gauge A: the stale model's error under current conditions,
        // and the training rows.
        const auto gaugeA = opts_.wanify->gaugeRuntime(sim_, rng_, *model_);
        preErrSum_ += meanAbsOffDiag(gaugeA.predicted, gaugeA.stable);
        const core::CollectedMesh mesh = gaugeA.mesh();
        std::uint64_t retrainState =
            runSeed_ ^ (0x9e3779b97f4a7c15ULL * (result_.retrainsApplied + 1));
        const std::uint64_t retrainSeed = splitmix64(retrainState);
        const ml::Dataset *trainingRows = &gaugedRows_;
        if (opts_.campaign != nullptr) {
            // Cross-run campaign: the gauge joins the shared
            // incremental dataset and the warm start learns from every
            // run's gauges.
            opts_.campaign->absorb(topo_, {mesh}, retrainSeed);
            trainingRows = &opts_.campaign->incremental();
        } else {
            core::BandwidthAnalyzer::appendRows(gaugedRows_, topo_, mesh, rng_);
        }

        // Warm-start retrain the pinned lineage; publishing (opt-in)
        // atomically swaps the facade's model for future runs. The
        // wall time is real control-plane stall (the query waits to
        // re-plan), reported per retrain so benches can show what
        // adapting costs.
        const auto retrainT0 = std::chrono::steady_clock::now();
        model_ = opts_.wanify->retrain(*trainingRows, retrainSeed, model_,
                                       opts_.publishRetrainedModel);
        const double retrainSecs = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - retrainT0).count();
        result_.retrainLatencies.push_back(retrainSecs);
        result_.retrainCpuSeconds += retrainSecs;

        // Gauge B: fresh snapshot + stable mesh, out-of-sample for the
        // new trees — the post-retrain error, and the matrix the
        // redeployment plans from.
        const auto gaugeB = opts_.wanify->gaugeRuntime(sim_, rng_, *model_);
        postErrSum_ += meanAbsOffDiag(gaugeB.predicted, gaugeB.stable);
        ++result_.retrainsApplied;
        redeploy(gaugeB.predicted);
        // The probe settles its control-plane bill before any
        // re-planned transfer starts; a transfer opened inside the
        // window would otherwise be misread as probe traffic.
        closeProbe(probe);
        trend_.record(sim_.now(), predicted_);
        // A gauge landed: the predictor proved itself, so the
        // degradation ladder steps one rung back up (a fault-free run
        // never left the Model rung).
        if (health_.recordSuccess())
            notePredictorMode();

        // Incremental re-plan: stop what is still in flight, re-place
        // only the undelivered bytes under the retrained belief
        // (warm-started from this stage's previous plan), and restart.
        // Delivered bytes stay where they landed; the effective
        // assignment matrix is updated so the compute phase and the
        // next stage's input see the true landing spots.
        if (!opts_.forecast.enabled)
            return;
        const std::vector<Bytes> residual = exec_.stopInFlight(sim_);
        if (std::any_of(residual.begin(), residual.end(),
                        [](Bytes b) { return b > 0.0; }))
            exec_.launch(
                exec_.place(scheduler_,
                            exec_.context(residual, opts_.schedulerBw),
                            buildForecast(), sim_.now()),
                [this](DcId i, DcId j, Bytes b) {
                    startShuffleTransfer(i, j, b);
                });
    }

    /**
     * The gauge never lands: no training rows, no fresh prediction. A
     * hung probe (GaugeTimeout) still costs the measurement epoch; a
     * fast error (ProbeLoss) does not. Step the health ladder down and
     * re-plan from the best belief the ladder still allows — trend
     * extrapolation, then the static a-priori matrix.
     */
    void
    replanOnGaugeFault(fault::FaultKind kind)
    {
        ++result_.gaugeFaults;
        if (kind == fault::FaultKind::GaugeTimeout)
            sim_.runUntilAllComplete(sim_.now() + epoch_);
        if (health_.recordFailure())
            notePredictorMode();
        Matrix<Mbps> belief;
        if (health_.mode() == fault::PredictorMode::Trend &&
            trend_.size() > 0) {
            belief = trend_.extrapolateAt(sim_.now());
            ++result_.trendPlans;
        } else {
            belief = opts_.schedulerBw;
            ++result_.staticPlans;
        }
        // Sanitize: the ladder exists precisely because bad data shows
        // up on this path.
        for (DcId i = 0; i < n_; ++i)
            for (DcId j = 0; j < n_; ++j)
                if (!std::isfinite(belief.at(i, j)) || belief.at(i, j) < 0.0)
                    belief.at(i, j) = opts_.schedulerBw.at(i, j);
        redeploy(belief);
        // Do not trend_.record(): feeding extrapolations back into the
        // trend would let the ladder hallucinate.
    }

    // --- stage phases ------------------------------------------------------
    /** Bill finished or stopped transfer @p t to the stage. Min pair
     *  BW is the paper's "minimum BW of the cluster": the slowest
     *  pair's average achieved rate over its active period. */
    void
    accountTransfer(const ShuffleTransfer &t)
    {
        const Seconds active = std::max(1.0e-6, t.done - shuffleStart_);
        stage_.wanBytes += t.bytes;
        if (t.bytes >= kMinAccountedBytes)
            foldMin(stage_.minPairBw, units::rateFor(t.bytes, active));
    }

    /** A finished transfer is accounted as its completion is routed. */
    void
    routeCompletions()
    {
        for (const net::CompletionRecord &rec : sim_.drainCompletions())
            if (const auto t = exec_.complete(rec))
                accountTransfer(*t);
    }

    /** Place the stage, start its transfers, and pop the event clock
     *  until they (and every queued retry) are done or the stage guard
     *  cuts them. */
    void
    shuffle()
    {
        retries_.clear();
        clock_.clear();
        // Faults due before the shuffle opens (e.g. a crash during the
        // previous compute phase's tail) take effect now, so placement
        // and the blackout check see the true fault state.
        applyFaultsUpTo(sim_.now());
        exec_.beginShuffle(
            exec_.place(scheduler_,
                        exec_.context(exec_.stageInput(), opts_.schedulerBw),
                        buildForecast(), sim_.now()),
            sim_.now(),
            [this](DcId i, DcId j, Bytes b) { startShuffleTransfer(i, j, b); });
        rearmAgents();

        shuffleStart_ = sim_.now();
        const Seconds guardEnd = shuffleStart_ + opts_.maxStageSeconds;
        clock_.push(guardEnd, ClockEventKind::StageGuard);
        clock_.push(shuffleStart_ + epoch_, ClockEventKind::EpochTick);
        scheduleChangePoints(shuffleStart_, guardEnd);
        // Fault starts and window-clear instants are first-class
        // events: recovery must not wait for the epoch grid.
        std::vector<Seconds> faultEdges;
        faults_.edgesIn(shuffleStart_, guardEnd, faultEdges);
        for (const Seconds t : faultEdges)
            clock_.push(t, ClockEventKind::FaultEdge);

        while (!sim_.allTransfersDone() || !retries_.empty()) {
            if (clock_.empty())
                panic("engine: event clock ran dry before the guard");
            const ClockEvent ev = clock_.pop();
            // Stale events (a retrain consumed simulated time past
            // them) make this a no-op; the handler below then applies
            // dynamics at now() rather than rewinding to ev.time.
            sim_.runUntilAllComplete(ev.time);
            routeCompletions();
            if (sim_.allTransfersDone() && retries_.empty())
                break;
            if (sim_.allTransfersDone() && ev.time > sim_.now()) {
                // Nothing in flight but retries are waiting out their
                // backoff: runUntilAllComplete returns without moving
                // an idle sim, so idle-wait explicitly.
                sim_.advanceBy(ev.time - sim_.now());
            }
            if (ev.kind == ClockEventKind::StageGuard) {
                logging::warn("stage '" + stage_.name +
                              "' hit the per-stage guard");
                // Abort stragglers so they cannot leak into later
                // stages; they are billed as if finishing now. Queued
                // retries die with the stage — their bytes already
                // left the assignment.
                exec_.abandon(sim_);
                retries_.clear();
                break;
            }
            if (ev.kind == ClockEventKind::EpochTick) {
                onEpochTick(ev.time);
                continue;
            }
            // A dynamics edge, fault edge, or retry deadline at its
            // true instant: install the new conditions (and open/close
            // bursts) mid-epoch, then fire the faults and launch the
            // due retries. When a dynamics edge coincides with a tick,
            // the tick pops first (kind order) and this is an
            // idempotent no-op.
            dynamics_.advanceTo(sim_.now());
            if (ev.kind == ClockEventKind::FaultEdge)
                applyFaultsUpTo(sim_.now());
            if (ev.kind == ClockEventKind::FaultEdge ||
                ev.kind == ClockEventKind::RetryDue)
                startDueRetries();
        }
        // The last transfers may have finished inside a retrain
        // window, after the last pop.
        routeCompletions();
        // Transfers stopped mid-stage (the delivered part of an abort
        // or an incremental re-plan, or a guard cut whole) are real
        // WAN traffic of this stage.
        for (const ShuffleTransfer &t : exec_.retired())
            accountTransfer(t);
        stage_.transferEnd = sim_.now();
        foldMin(result_.minObservedBw, stage_.minPairBw);
    }

    /** The AIMD epoch tick due at @p tick: fire due faults, wake the
     *  live agents, check the drift gauge, and schedule the next tick
     *  one epoch on (from the retrain's end when one ran). */
    void
    onEpochTick(Seconds tick)
    {
        applyFaultsUpTo(sim_.now());
        for (auto &agent : deployment_.agents)
            if (!agentCrashed_[agent->sourceDc()])
                agent->onEpoch();
        dynamics_.advanceTo(sim_.now());

        // Out-of-date model detection (Section 3.3.4): the shared
        // capacity-factor gauge (core/drift.hh) stands in for the
        // paper's re-measurement on the monitoring plane. It is quiet
        // under stationary noise and WANify's own throttling, and fires
        // when the scenario moves capacity away from the calibration.
        if (opts_.wanify != nullptr) {
            drift_.observe(sim_);
            result_.driftObservations += drift_.meshSize();
            result_.driftErrorFraction = std::max(
                result_.driftErrorFraction, drift_.errorFraction());
            if (drift_.needsRetraining()) {
                ++result_.retrainTriggers;
                if (opts_.adaptOnDrift &&
                    !opts_.predictedBwOverride.has_value() &&
                    model_ != nullptr && model_->trained()) {
                    retrainAndRedeploy();
                    tick = sim_.now();
                }
                // With or without the adaptive path, the model now counts
                // as recalibrated on current conditions.
                drift_.rebase(sim_);
            }
        }
        // A retrain may have consumed time past queued retry
        // deadlines; launch the stale ones now.
        startDueRetries();
        clock_.push(tick + epoch_, ClockEventKind::EpochTick);
    }

    /** Step through the stage's compute phase. */
    void
    compute()
    {
        const Seconds stageEnd = exec_.computeEnd(sim_.now());
        // Step through the window's burst edges so flash crowds open
        // and close at their true instants even though the job itself
        // moves no bytes here. Factor edges only matter mid-compute
        // while burst flows are live; with an idle mesh they are
        // batched to the phase end, which saves advanceBy splits on
        // burst-free windows.
        clock_.clear();
        scheduleChangePoints(sim_.now(), stageEnd);
        while (!clock_.empty()) {
            const ClockEvent ev = clock_.pop();
            if (ev.kind == ClockEventKind::DynamicsChange &&
                sim_.activeTransferCount() == 0)
                continue;
            if (ev.time > sim_.now())
                sim_.advanceBy(ev.time - sim_.now());
            dynamics_.advanceTo(sim_.now());
        }
        if (stageEnd > sim_.now())
            sim_.advanceBy(stageEnd - sim_.now());
        // Keep the scenario clock current through the compute phase so
        // the next stage's shuffle starts under the right conditions.
        dynamics_.advanceTo(sim_.now());
        // Crashes and recoveries during the compute phase land here;
        // transfer-killing faults are no-ops (everything delivered).
        applyFaultsUpTo(sim_.now());
        stage_.end = sim_.now();
    }

    /** Close the run and price the query: latency, the WAN bytes it
     *  moved per pair, and the cost they add up to. */
    void
    bill()
    {
        dynamics_.finish();

        result_.latency = sim_.now() - jobStart_;
        result_.wanBytesByPair = Matrix<Bytes>::square(n_, 0.0);
        for (DcId i = 0; i < n_; ++i) {
            for (DcId j = 0; j < n_; ++j) {
                if (i == j)
                    continue;
                // Flash-crowd bursts are other tenants' data and the
                // retrain probes are WANify's control plane: neither
                // is billed to the query.
                result_.wanBytesByPair.at(i, j) = std::max(
                    0.0, sim_.pairBytes(i, j) - bytesAtStart_.at(i, j) -
                             dynamics_.burstBytes().at(i, j) -
                             controlBytes_.at(i, j));
            }
        }
        const cost::CostModel costModel(topo_);
        result_.cost = costModel.queryCost(
            result_.latency, result_.wanBytesByPair,
            units::toGigabytes(job_.inputBytes));
        if (result_.retrainsApplied > 0) {
            result_.preRetrainError =
                preErrSum_ / static_cast<double>(result_.retrainsApplied);
            result_.postRetrainError =
                postErrSum_ / static_cast<double>(result_.retrainsApplied);
        }
    }

    const net::Topology &topo_;
    const JobSpec &job_;
    Scheduler &scheduler_;
    const RunOptions &opts_;
    const std::size_t n_ = topo_.dcCount();
    const std::uint64_t runSeed_;
    NetworkSim sim_;
    Rng rng_{runSeed_ ^ 0xc0ffee};
    scenario::DynamicsCursor dynamics_{opts_.dynamics, sim_};
    const fault::FaultPlan &faults_ =
        resolveFaultPlan(opts_.faults, opts_.dynamics, n_, "Engine::run");
    QueryExecution exec_;
    /** One clock for the whole run: its seq counter keeps running
     *  across clear(), which fixes the pop order of equal events. */
    EventClock clock_;
    std::vector<RetryItem> retries_;

    core::GlobalPlan plan_;
    core::Wanify::Deployment deployment_;
    Matrix<Mbps> predicted_;
    Seconds epoch_ = 1.0;
    std::shared_ptr<const core::RuntimeBwPredictor> model_;
    core::CapacityDriftGauge drift_{opts_.wanify != nullptr
                                        ? opts_.wanify->config().drift
                                        : core::DriftConfig{},
                                    n_};
    core::GaugeTrend trend_;
    fault::PredictorHealth health_{opts_.predictorHealth};
    std::vector<char> agentCrashed_ = std::vector<char>(n_, 0);
    Seconds faultCursor_ = -1.0;
    std::uint64_t retryRngState_ = runSeed_ ^ 0xfa177e7ULL;

    /** Training rows gauged at runtime accumulate across this run's
     *  retrains (Section 3.3.4: "the additionally collected samples");
     *  each warm start trains its extra trees on the union so far. */
    ml::Dataset gaugedRows_{monitor::kFeatureCount};
    double preErrSum_ = 0.0, postErrSum_ = 0.0;

    QueryResult result_;
    Seconds jobStart_ = 0.0;
    Matrix<Bytes> bytesAtStart_ = Matrix<Bytes>::square(n_, 0.0);
    /** WANify's own mid-run re-measurement probes are control-plane
     *  traffic: collected here and excluded from the query's bill,
     *  like the initial snapshot (measured before bytesAtStart_) and
     *  flash-crowd bursts. */
    Matrix<Bytes> controlBytes_ = Matrix<Bytes>::square(n_, 0.0);
    StageResult stage_;
    Seconds shuffleStart_ = 0.0;
};

} // namespace

Engine::Engine(net::Topology topo, net::NetworkSimConfig simCfg,
               std::uint64_t seed)
    : topo_(std::move(topo)), simCfg_(simCfg), seed_(seed)
{}

QueryResult
Engine::run(const JobSpec &job, const std::vector<Bytes> &inputByDc,
            Scheduler &scheduler, const RunOptions &opts)
{
    const std::size_t n = topo_.dcCount();
    if (job.stages.empty())
        fatal("Engine::run: job has no stages");
    if (inputByDc.size() != n)
        fatal("Engine::run: input distribution size mismatch");
    for (const Bytes bytes : inputByDc)
        if (!std::isfinite(bytes) || bytes < 0.0)
            fatal("Engine::run: input bytes must be finite and "
                  "non-negative");
    if (opts.schedulerBw.rows() != n || opts.schedulerBw.cols() != n)
        fatal("Engine::run: scheduler BW matrix shape mismatch");

    const std::uint64_t runSeed = seed_ + 0x9e37 * (++runCounter_);
    return QueryRun(topo_, simCfg_, runSeed, job, inputByDc, scheduler, opts)
        .run();
}

} // namespace gda
} // namespace wanify
