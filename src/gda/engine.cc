#include "gda/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

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
 * Brackets a control-plane measurement window. Construction records
 * the per-pair byte counters, the job transfers' progress, and the
 * active bursts' progress; destruction bills the window's *extra*
 * bytes (probe traffic = growth minus job minus bursts) to
 * controlBytes, never to the query. RAII keeps the two halves of the
 * accounting paired however the gauging code between them evolves.
 */
class ControlProbe
{
  public:
    ControlProbe(NetworkSim &sim, const scenario::DynamicsCursor &dynamics,
                 const QueryExecution::Transfers &pending,
                 Matrix<Bytes> &controlBytes)
        : sim_(sim),
          dynamics_(dynamics),
          pending_(pending),
          controlBytes_(controlBytes),
          n_(controlBytes.rows()),
          probe_(Matrix<Bytes>::square(n_, 0.0)),
          burstBefore_(dynamics.activeBurstMoved())
    {
        for (DcId i = 0; i < n_; ++i)
            for (DcId j = 0; j < n_; ++j)
                probe_.at(i, j) = -sim_.pairBytes(i, j);
        for (const auto &[id, t] : pending_)
            jobMoved_[id] = sim_.status(id).bytesMoved;
    }

    ~ControlProbe()
    {
        // Bursts settle their own bill via burstBytes when they
        // stop; here only their in-window progress is netted out.
        const Matrix<Bytes> burstAfter = dynamics_.activeBurstMoved();
        for (DcId i = 0; i < n_; ++i)
            for (DcId j = 0; j < n_; ++j)
                probe_.at(i, j) += sim_.pairBytes(i, j) -
                                   (burstAfter.at(i, j) -
                                    burstBefore_.at(i, j));
        for (const auto &[id, t] : pending_)
            probe_.at(t.src, t.dst) -=
                sim_.status(id).bytesMoved - jobMoved_[id];
        for (DcId i = 0; i < n_; ++i)
            for (DcId j = 0; j < n_; ++j)
                controlBytes_.at(i, j) +=
                    std::max(0.0, probe_.at(i, j));
    }

    ControlProbe(const ControlProbe &) = delete;
    ControlProbe &operator=(const ControlProbe &) = delete;

  private:
    NetworkSim &sim_;
    const scenario::DynamicsCursor &dynamics_;
    const QueryExecution::Transfers &pending_;
    Matrix<Bytes> &controlBytes_;
    std::size_t n_;
    Matrix<Bytes> probe_;
    Matrix<Bytes> burstBefore_;
    std::map<TransferId, Bytes> jobMoved_;
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
    fatalIf(job.stages.empty(), "Engine::run: job has no stages");
    fatalIf(inputByDc.size() != n,
            "Engine::run: input distribution size mismatch");
    fatalIf(opts.schedulerBw.rows() != n ||
                opts.schedulerBw.cols() != n,
            "Engine::run: scheduler BW matrix shape mismatch");

    std::uint64_t runSeed = seed_ + 0x9e37 * (++runCounter_);
    NetworkSim sim(topo_, simCfg_, runSeed);
    Rng rng(runSeed ^ 0xc0ffee);

    // Scenario time zero is job start: install initial conditions
    // before WANify snapshots the network, so prediction and planning
    // see the scenario's opening state.
    scenario::DynamicsCursor dynamics(opts.dynamics, sim);
    dynamics.advanceTo(sim.now());

    // --- WANify deployment (Section 4.1) ---------------------------------
    core::GlobalPlan plan;
    core::Wanify::Deployment deployment;
    auto &agents = deployment.agents;
    Matrix<Mbps> predicted;
    Seconds epoch = 1.0;
    // The run pins one predictor snapshot up front: retrains by
    // concurrent trials may swap the facade's published model at any
    // time, but this run's predictions (and its own warm starts)
    // evolve only from the pinned lineage, keeping every trial
    // deterministic in its seed alone.
    std::shared_ptr<const core::RuntimeBwPredictor> model;
    if (opts.wanify != nullptr) {
        model = opts.wanify->predictorSnapshot();
        if (opts.predictedBwOverride.has_value()) {
            predicted = *opts.predictedBwOverride;
        } else {
            fatalIf(model == nullptr || !model->trained(),
                    "Engine::run: WANify predictor not trained");
            predicted = opts.wanify->predictRuntimeBw(sim, rng,
                                                      *model);
        }
        plan = opts.wanify->plan(predicted, opts.skewWeights,
                                 opts.rvec);
        deployment = opts.wanify->deploy(sim, plan, predicted);
        epoch = opts.wanify->config().aimd.epoch;
    }

    // Out-of-date model detection (Section 3.3.4): the paper
    // intermittently compares predicted BWs against observed runtime
    // values on the monitoring plane. The simulator's stand-in for
    // that re-measurement is the shared capacity-factor gauge
    // (core/drift.hh): quiet under stationary noise and WANify's own
    // throttling, firing when the scenario moves real capacity away
    // from what the model was calibrated on.
    core::CapacityDriftGauge drift(
        opts.wanify != nullptr ? opts.wanify->config().drift
                               : core::DriftConfig{},
        n);
    drift.rebase(sim);

    auto connectionsFor = [&](DcId i, DcId j) -> int {
        if (!agents.empty())
            return 1; // agents overwrite via applyTargets()
        if (opts.wanify != nullptr &&
            opts.wanify->config().features.globalOptimization) {
            // Global-only ablation: fixed at the plan's maximum.
            return plan.maxCons.at(i, j);
        }
        if (!opts.staticConnections.empty())
            return std::max(1, opts.staticConnections.at(i, j));
        return 1;
    };

    QueryResult result;
    result.wanBytesByPair = Matrix<Bytes>::square(n, 0.0);
    Matrix<Bytes> bytesAtStart = Matrix<Bytes>::square(n, 0.0);
    for (DcId i = 0; i < n; ++i)
        for (DcId j = 0; j < n; ++j)
            bytesAtStart.at(i, j) = sim.pairBytes(i, j);

    // WANify's own mid-run re-measurement probes (retrain path) are
    // control-plane traffic: collected here and excluded from the
    // query's bill, consistent with the initial snapshot (measured
    // before bytesAtStart) and with flash-crowd bursts.
    Matrix<Bytes> controlBytes = Matrix<Bytes>::square(n, 0.0);

    // Training rows gauged at runtime accumulate across this run's
    // retrains (Section 3.3.4: "the additionally collected samples");
    // each warm start trains its extra trees on the union so far.
    ml::Dataset gaugedRows(monitor::kFeatureCount, 1);
    double preErrSum = 0.0, postErrSum = 0.0;

    const Seconds jobStart = sim.now();

    // --- fault injection & recovery state ----------------------------
    // Null `faults` keeps every code path below structurally identical
    // to a fault-free build: the lambdas exist but are never invoked
    // with work to do, and the stage loop schedules no extra events.
    const fault::FaultPlan *faults =
        resolveFaultPlan(opts.faults, opts.dynamics, n, "Engine::run");
    fault::PredictorHealth health(opts.predictorHealth);
    std::vector<char> agentCrashed(n, 0);
    Seconds faultCursor = -1.0;
    std::uint64_t retryRngState = runSeed ^ 0xfa177e7ULL;
    auto notePredictorMode = [&]() {
        ++result.predictorModeSwitches;
        result.worstPredictorMode =
            std::max(result.worstPredictorMode,
                     static_cast<int>(health.mode()));
    };

    // The query's stage state (input, assignment, in-flight and retired
    // transfers, warm-start plan memory) and the stage loop's clock,
    // hoisted to run scope so the recovery lambdas and the retrain path
    // share one view of the in-flight stage. The EventClock's seq
    // counter keeps running across clear(), so hoisting it preserves
    // the pre-fault pop order bit for bit.
    QueryExecution exec(topo_, job, inputByDc);
    EventClock clock;
    std::vector<RetryItem> retries;

    // Forecast-aware planning: the gauge trend backs deployed-mode
    // forecasts when no dynamics timetable exists.
    core::GaugeTrend trend;
    if (opts.wanify != nullptr && !predicted.empty())
        trend.record(sim.now(), predicted);
    auto buildForecast = [&]() -> core::BwForecast {
        if (!opts.forecast.enabled)
            return {};
        if (opts.dynamics != nullptr)
            return scenario::forecastFromDynamics(
                *opts.dynamics, opts.schedulerBw, sim.now(),
                opts.forecast);
        if (trend.ready())
            return trend.forecast(sim.now(), opts.forecast.horizon,
                                  opts.forecast.step);
        return {};
    };

    // Wake the clock at the dynamics' change points in [t0, t1].
    auto scheduleChangePoints = [&](Seconds t0, Seconds t1) {
        if (opts.dynamics == nullptr)
            return;
        std::vector<scenario::ChangePoint> edges;
        opts.dynamics->changePointsIn(t0, t1, edges);
        for (const scenario::ChangePoint &cp : edges)
            clock.push(cp.time, cp.kind == scenario::ChangeKind::Factor
                                    ? ClockEventKind::DynamicsChange
                                    : ClockEventKind::BurstEdge);
    };

    // --- fault recovery machinery ------------------------------------
    auto queueRetry = [&](const RetryItem &item) {
        result.backoffSeconds += item.due - sim.now();
        retries.push_back(item);
        clock.push(item.due, ClockEventKind::RetryDue);
    };

    // Start (or blackout-defer) one shuffle transfer whose bytes are
    // already counted in the assignment. A pair that is dark right now
    // holds its bytes back in the retry queue (and out of the
    // assignment) until the blackout clears.
    auto startShuffleTransfer = [&](DcId i, DcId j, Bytes bytes,
                                    std::size_t attempt = 0) -> bool {
        if (faults != nullptr &&
            faults->pairBlackedOutAt(i, j, sim.now())) {
            exec.assignment().at(i, j) -= bytes;
            queueRetry({i, j, bytes, attempt,
                        faults->blackoutClearTime(i, j, sim.now())});
            return false;
        }
        exec.start(sim, i, j, bytes, connectionsFor(i, j), 0, attempt);
        return true;
    };

    // A transfer that exhausted its retry budget re-places its
    // undelivered bytes as a fresh residual placement with the dead
    // pair's believed bandwidth floored, so the fraction search routes
    // around it (the replan-of-undelivered-bytes path, alternate-path
    // flavor). No warm-start memory: the penalized belief has a
    // different shape than the stage's original plan.
    auto replanResidual = [&](DcId src, DcId dst, Bytes bytes) {
        ++result.faultReplans;
        std::vector<Bytes> residual(n, 0.0);
        residual[src] = bytes;
        Matrix<Mbps> penalized = opts.schedulerBw;
        penalized.at(src, dst) = core::BwForecast::kMinFeasibleMbps;
        StageContext rctx = exec.context(residual, penalized);
        rctx.memory = nullptr;
        exec.launch(exec.place(scheduler, rctx, buildForecast(),
                               sim.now()),
                    startShuffleTransfer);
    };

    // Kill one in-flight transfer — its delivered part stays where it
    // landed — and either queue a backed-off retry of the remainder or
    // fall through to the residual replan.
    auto abortTransfer = [&](TransferId id) {
        const auto lost = exec.stop(sim, id, 1.0);
        if (!lost)
            return; // effectively delivered; completion handling owns it
        ++result.transferAborts;
        result.lostBytes += lost->bytes;
        if (lost->attempt + 1 < opts.retry.maxAttempts) {
            Seconds due = sim.now() +
                          opts.retry.backoff(lost->attempt,
                                             splitmix64(retryRngState));
            if (faults != nullptr)
                due = std::max(due, faults->blackoutClearTime(
                                        lost->src, lost->dst, due));
            queueRetry({lost->src, lost->dst, lost->bytes,
                        lost->attempt + 1, due});
        } else {
            replanResidual(lost->src, lost->dst, lost->bytes);
        }
    };

    // Launch every queued retry whose backoff has expired. A retry
    // that finds its pair dark again nets back out of the assignment
    // and re-queues with a later due time, so the index scan below
    // never revisits it this pass.
    auto startDueRetries = [&]() {
        for (std::size_t k = 0; k < retries.size();) {
            if (retries[k].due > sim.now() + 1.0e-9) {
                ++k;
                continue;
            }
            const RetryItem item = retries[k];
            retries.erase(retries.begin() +
                          static_cast<std::ptrdiff_t>(k));
            exec.assignment().at(item.src, item.dst) += item.bytes;
            if (startShuffleTransfer(item.src, item.dst, item.bytes,
                                     item.attempt) &&
                item.attempt > 0)
                ++result.transferRetries;
        }
    };

    // Re-arm the agents whose DC's agent is up (only DC @p only's when
    // given): install their targets and start a fresh AIMD window.
    auto rearmAgents = [&](std::optional<DcId> only = std::nullopt) {
        for (auto &agent : agents) {
            const DcId dc = agent->sourceDc();
            if (agentCrashed[dc] || (only && dc != *only))
                continue;
            agent->applyTargets();
            agent->resetWindow();
        }
    };
    // A dead agent's throttles dissolve: its outgoing pairs fall back
    // to unthrottled contention until it restarts.
    auto dropThrottles = [&](DcId dc) {
        for (DcId j = 0; j < n; ++j)
            if (dc != j)
                sim.setTcLimit(dc, j, 0.0);
    };
    auto crashAgentAt = [&](DcId dc) {
        ++result.agentCrashes;
        if (agentCrashed[dc])
            return;
        agentCrashed[dc] = 1;
        dropThrottles(dc);
    };
    auto restartCrashedAgents = [&](Seconds t) {
        for (DcId dc = 0; dc < n; ++dc) {
            if (!agentCrashed[dc] || faults->agentCrashedAt(
                                         static_cast<int>(dc), t))
                continue;
            agentCrashed[dc] = 0;
            rearmAgents(dc);
        }
    };
    // Plan and deploy fresh agents for @p belief. Crashed agents must
    // not re-throttle, so the redeploy (which installs fresh static
    // throttles for every DC) re-clears theirs.
    auto redeploy = [&](const Matrix<Mbps> &belief) {
        plan = opts.wanify->plan(belief, opts.skewWeights, opts.rvec);
        deployment = opts.wanify->deploy(sim, plan, belief);
        rearmAgents();
        for (DcId dc = 0; dc < n; ++dc)
            if (agentCrashed[dc])
                dropThrottles(dc);
        predicted = belief;
    };

    // Fire every fault whose start lies in (faultCursor, t], then
    // restart agents whose crash windows have closed. ProbeLoss /
    // GaugeTimeout have no edge action — the retrain path queries
    // their windows at gauge time.
    auto applyFaultsUpTo = [&](Seconds t) {
        if (faults == nullptr)
            return;
        std::vector<std::size_t> started;
        faults->startsIn(faultCursor, t, started);
        for (std::size_t fi : started) {
            const fault::FaultEvent &ev = faults->events()[fi].ev;
            ++result.faultsInjected;
            if (ev.kind == fault::FaultKind::DcBlackout)
                ++result.blackouts;
            if (ev.kind == fault::FaultKind::AgentCrash)
                crashAgentAt(static_cast<DcId>(ev.dc));
            for (const TransferId id : exec.killedBy(ev))
                abortTransfer(id);
        }
        faultCursor = std::max(faultCursor, t);
        restartCrashedAgents(t);
    };

    // The online learning loop (Section 3.3.4), invoked when the
    // drift gauge fires under adaptOnDrift: clear the stale
    // throttles, gauge the live network (snapshot + one epoch of
    // stable mesh BW — this costs measurement time, as in the
    // paper), convert the gauge into training rows, warm-start
    // retrain the pinned model, then re-predict from a second
    // out-of-sample gauge, re-plan, and redeploy fresh agents. The
    // ControlProbe brackets the whole window so the probes bill to
    // WANify's control plane, not the query.
    auto retrainAndRedeploy =
        [&](Seconds &nextEpoch) {
            fault::FaultKind gaugeKind = fault::FaultKind::ProbeLoss;
            if (faults != nullptr &&
                faults->gaugeFaultAt(sim.now(), &gaugeKind)) {
                // The gauge never lands: no training rows, no fresh
                // prediction. A hung probe (GaugeTimeout) still costs
                // the measurement epoch; a fast error (ProbeLoss)
                // does not. Step the health ladder down and re-plan
                // from the best belief the ladder still allows —
                // trend extrapolation, then the static a-priori
                // matrix.
                ++result.gaugeFaults;
                if (gaugeKind == fault::FaultKind::GaugeTimeout)
                    sim.runUntilAllComplete(sim.now() + epoch);
                if (health.recordFailure())
                    notePredictorMode();
                Matrix<Mbps> belief;
                if (health.mode() == fault::PredictorMode::Trend &&
                    trend.size() > 0) {
                    belief = trend.extrapolateAt(sim.now());
                    ++result.trendPlans;
                } else {
                    belief = opts.schedulerBw;
                    ++result.staticPlans;
                }
                // Sanitize: the ladder exists precisely because bad
                // data shows up on this path.
                for (DcId i = 0; i < n; ++i)
                    for (DcId j = 0; j < n; ++j)
                        if (!std::isfinite(belief.at(i, j)) ||
                            belief.at(i, j) < 0.0)
                            belief.at(i, j) =
                                opts.schedulerBw.at(i, j);
                deployment.clear(sim);
                redeploy(belief);
                // Do not trend.record(): feeding extrapolations back
                // into the trend would let the ladder hallucinate.
                nextEpoch = sim.now();
                return;
            }
            // Scoped so the probe settles its control-plane bill
            // before any re-planned transfer starts; a transfer
            // opened inside the window would otherwise be misread
            // as probe traffic.
            {
            deployment.clear(sim);
            const ControlProbe probe(sim, dynamics, exec.pending(),
                                     controlBytes);

            // Gauge A: the stale model's error under current
            // conditions, and the training rows.
            const auto gaugeA =
                opts.wanify->gaugeRuntime(sim, rng, *model);
            preErrSum +=
                meanAbsOffDiag(gaugeA.predicted, gaugeA.stable);
            const core::CollectedMesh mesh = gaugeA.mesh();
            std::uint64_t retrainState =
                runSeed ^ (0x9e3779b97f4a7c15ULL *
                           (result.retrainsApplied + 1));
            const std::uint64_t retrainSeed =
                splitmix64(retrainState);
            const ml::Dataset *trainingRows;
            if (opts.campaign != nullptr) {
                // Cross-run campaign: the gauge joins the shared
                // incremental dataset and the warm start learns from
                // every run's gauges.
                opts.campaign->absorb(topo_, {mesh}, retrainSeed);
                trainingRows = &opts.campaign->incremental();
            } else {
                core::BandwidthAnalyzer::appendRows(gaugedRows,
                                                    topo_, mesh,
                                                    rng);
                trainingRows = &gaugedRows;
            }

            // Warm-start retrain the pinned lineage; publishing
            // (opt-in) atomically swaps the facade's model for
            // future runs. The wall time is real control-plane
            // stall (the query waits to re-plan), reported per
            // retrain so benches can show what adapting costs.
            const auto retrainT0 =
                std::chrono::steady_clock::now();
            model = opts.wanify->retrain(
                *trainingRows, retrainSeed, model,
                opts.publishRetrainedModel);
            const double retrainSecs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - retrainT0)
                    .count();
            result.retrainLatencies.push_back(retrainSecs);
            result.retrainCpuSeconds += retrainSecs;

            // Gauge B: fresh snapshot + stable mesh, out-of-sample
            // for the new trees — the post-retrain error, and the
            // matrix the redeployment plans from.
            const auto gaugeB =
                opts.wanify->gaugeRuntime(sim, rng, *model);
            postErrSum +=
                meanAbsOffDiag(gaugeB.predicted, gaugeB.stable);
            ++result.retrainsApplied;
            redeploy(gaugeB.predicted);
            }
            trend.record(sim.now(), predicted);
            // A gauge landed: the predictor proved itself, so the
            // degradation ladder steps one rung back up.
            if (faults != nullptr && health.recordSuccess())
                notePredictorMode();

            // Incremental re-plan: stop what is still in flight,
            // re-place only the undelivered bytes under the
            // retrained belief (warm-started from this stage's
            // previous plan), and restart. Delivered bytes stay
            // where they landed; the effective assignment matrix is
            // updated so the compute phase and the next stage's
            // input see the true landing spots.
            if (opts.forecast.enabled) {
                const std::vector<Bytes> residual =
                    exec.stopInFlight(sim);
                if (std::any_of(residual.begin(), residual.end(),
                                [](Bytes b) { return b > 0.0; }))
                    exec.launch(
                        exec.place(scheduler,
                                   exec.context(residual,
                                                opts.schedulerBw),
                                   buildForecast(), sim.now()),
                        startShuffleTransfer);
            }
            nextEpoch = sim.now();
        };

    for (; !exec.done(); exec.nextStage()) {
        const StageSpec &spec = exec.stageSpec();
        StageResult stageResult;
        stageResult.name = spec.name;
        stageResult.start = sim.now();

        retries.clear();
        clock.clear();
        // Faults due before the shuffle opens (e.g. a crash during the
        // previous compute phase's tail) take effect now, so placement
        // and the blackout check below see the true fault state.
        applyFaultsUpTo(sim.now());

        // --- shuffle phase ------------------------------------------------
        exec.beginShuffle(
            exec.place(scheduler,
                       exec.context(exec.stageInput(), opts.schedulerBw),
                       buildForecast(), sim.now()),
            sim.now(), startShuffleTransfer);
        rearmAgents();

        const Seconds shuffleStart = sim.now();
        const Seconds guardEnd = shuffleStart + opts.maxStageSeconds;

        clock.push(guardEnd, ClockEventKind::StageGuard);
        clock.push(shuffleStart + epoch, ClockEventKind::EpochTick);
        scheduleChangePoints(shuffleStart, guardEnd);
        if (faults != nullptr) {
            // Fault starts and window-clear instants are first-class
            // events: recovery must not wait for the epoch grid.
            std::vector<Seconds> faultEdges;
            faults->edgesIn(shuffleStart, guardEnd, faultEdges);
            for (const Seconds t : faultEdges)
                clock.push(t, ClockEventKind::FaultEdge);
        }

        while (!sim.allTransfersDone() || !retries.empty()) {
            panicIf(clock.empty(),
                    "engine: event clock ran dry before the guard");
            const ClockEvent ev = clock.pop();
            // Stale events (a retrain consumed simulated time past
            // them) make this a no-op; the handler below then applies
            // dynamics at now() rather than rewinding to ev.time.
            sim.runUntilAllComplete(ev.time);
            if (sim.allTransfersDone() && retries.empty())
                break;
            if (faults != nullptr && sim.allTransfersDone() &&
                ev.time > sim.now()) {
                // Nothing in flight but retries are waiting out their
                // backoff: runUntilAllComplete returns without moving
                // an idle sim, so idle-wait explicitly.
                sim.advanceBy(ev.time - sim.now());
            }
            if (ev.kind == ClockEventKind::StageGuard) {
                logging::warn("stage '" + spec.name +
                              "' hit the per-stage guard");
                // Abort stragglers so they cannot leak into later
                // stages; they are billed as if finishing now.
                // Queued retries die with the stage — their bytes
                // already left the assignment.
                for (const auto &[id, t] : exec.pending())
                    sim.stopTransfer(id);
                retries.clear();
                break;
            }
            if (ev.kind != ClockEventKind::EpochTick) {
                // A dynamics edge, fault edge, or retry deadline at its
                // true instant: install the new conditions (and
                // open/close bursts) mid-epoch, then fire the faults
                // and launch the due retries. When a dynamics edge
                // coincides with a tick, the tick pops first (kind
                // order) and this is an idempotent no-op.
                dynamics.advanceTo(sim.now());
                if (ev.kind == ClockEventKind::FaultEdge)
                    applyFaultsUpTo(sim.now());
                if (ev.kind == ClockEventKind::FaultEdge ||
                    ev.kind == ClockEventKind::RetryDue)
                    startDueRetries();
                continue;
            }
            Seconds tickBase = ev.time;
            applyFaultsUpTo(sim.now());
            for (auto &agent : agents) {
                if (faults != nullptr &&
                    agentCrashed[agent->sourceDc()])
                    continue;
                agent->onEpoch();
            }
            dynamics.advanceTo(sim.now());

            if (opts.wanify != nullptr) {
                drift.observe(sim);
                result.driftObservations += drift.meshSize();
                result.driftErrorFraction =
                    std::max(result.driftErrorFraction,
                             drift.errorFraction());
                if (drift.needsRetraining()) {
                    ++result.retrainTriggers;
                    if (opts.adaptOnDrift &&
                        !opts.predictedBwOverride.has_value() &&
                        model != nullptr && model->trained()) {
                        retrainAndRedeploy(tickBase);
                    }
                    // With or without the adaptive path, the model
                    // is considered recalibrated on current
                    // conditions from here.
                    drift.rebase(sim);
                }
            }
            if (faults != nullptr) {
                // A retrain may have consumed time past queued retry
                // deadlines; launch the stale ones now.
                startDueRetries();
            }
            clock.push(tickBase + epoch, ClockEventKind::EpochTick);
        }

        // Collect completion times per transfer.
        for (const auto &rec : sim.drainCompletions()) {
            auto it = exec.pending().find(rec.id);
            if (it != exec.pending().end())
                it->second.done = rec.time;
        }

        // Min pair BW: the paper's "minimum BW of the cluster" — the
        // slowest pair's average achieved rate over its active period.
        Mbps minPairBw = 0.0;
        auto accountTransfer = [&](const ShuffleTransfer &t) {
            const Seconds done = t.done > 0.0 ? t.done : sim.now();
            exec.landed(t.dst, done);
            stageResult.wanBytes += t.bytes;
            if (t.bytes >= kMinAccountedBytes) {
                const Seconds duration =
                    std::max(1.0e-6, done - shuffleStart);
                const Mbps avg = units::rateFor(t.bytes, duration);
                minPairBw = minPairBw == 0.0
                                ? avg
                                : std::min(minPairBw, avg);
            }
        };
        for (const auto &[id, t] : exec.pending())
            accountTransfer(t);
        // Transfers retired mid-stage by an incremental re-plan:
        // their delivered portion is real WAN traffic of this stage.
        for (const ShuffleTransfer &t : exec.retired())
            accountTransfer(t);
        stageResult.minPairBw = minPairBw;
        stageResult.transferEnd = sim.now();
        if (minPairBw > 0.0) {
            result.minObservedBw =
                result.minObservedBw == 0.0
                    ? minPairBw
                    : std::min(result.minObservedBw, minPairBw);
        }

        // --- compute phase ------------------------------------------------
        const Seconds stageEnd = exec.computeEnd(sim.now());
        // Step through the window's burst edges so flash crowds open
        // and close at their true instants even though the job itself
        // moves no bytes here. Factor edges only matter mid-compute
        // while burst flows are live; with an idle mesh they are
        // batched to the phase end, which saves advanceBy splits on
        // burst-free windows.
        clock.clear();
        scheduleChangePoints(sim.now(), stageEnd);
        while (!clock.empty()) {
            const ClockEvent ev = clock.pop();
            if (ev.kind == ClockEventKind::DynamicsChange &&
                sim.activeTransferCount() == 0)
                continue;
            if (ev.time > sim.now())
                sim.advanceBy(ev.time - sim.now());
            dynamics.advanceTo(sim.now());
        }
        if (stageEnd > sim.now())
            sim.advanceBy(stageEnd - sim.now());
        // Keep the scenario clock current through the compute phase
        // so the next stage's shuffle starts under the right
        // conditions.
        dynamics.advanceTo(sim.now());
        // Crashes and recoveries during the compute phase land here;
        // transfer-killing faults are no-ops (everything delivered).
        applyFaultsUpTo(sim.now());
        stageResult.end = sim.now();

        result.stages.push_back(stageResult);
    }

    if (opts.wanify != nullptr)
        deployment.clear(sim);
    dynamics.finish();

    result.latency = sim.now() - jobStart;
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            // Flash-crowd bursts are other tenants' data and the
            // retrain probes are WANify's control plane: neither is
            // billed to the query.
            result.wanBytesByPair.at(i, j) = std::max(
                0.0, sim.pairBytes(i, j) - bytesAtStart.at(i, j) -
                         dynamics.burstBytes().at(i, j) -
                         controlBytes.at(i, j));
        }
    }

    const cost::CostModel costModel(topo_);
    result.cost = costModel.queryCost(
        result.latency, result.wanBytesByPair,
        units::toGigabytes(job.inputBytes));

    if (result.retrainsApplied > 0) {
        result.preRetrainError =
            preErrSum / static_cast<double>(result.retrainsApplied);
        result.postRetrainError =
            postErrSum / static_cast<double>(result.retrainsApplied);
    }
    return result;
}

} // namespace gda
} // namespace wanify
