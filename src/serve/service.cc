#include "serve/service.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "monitor/features.hh"
#include "sched/kimchi.hh"
#include "sched/locality.hh"
#include "sched/tetrium.hh"
#include "scenario/forecast.hh"

namespace wanify {
namespace serve {

using net::DcId;
using net::TransferId;

namespace {

constexpr Seconds kTimeEps = 1.0e-9;

/** Connection cap for re-dispatched transfers. */
constexpr int kMaxRedispatchConnections = 8;

/** Forecast admission holds while the mesh mean is below this share
 *  of the best forecast one (ServiceConfig::forecastAdmission). */
constexpr double kAdmissionTrough = 0.6;

std::unique_ptr<gda::Scheduler>
makeScheduler(SchedulerKind kind)
{
    switch (kind) {
    case SchedulerKind::Locality:
        return std::make_unique<sched::LocalityScheduler>();
    case SchedulerKind::Tetrium:
        return std::make_unique<sched::TetriumScheduler>();
    case SchedulerKind::Kimchi:
        return std::make_unique<sched::KimchiScheduler>();
    }
    panicIf(true, "Service: unknown scheduler kind");
    return nullptr;
}

/** FNV-1a over raw bytes — the report's bit-identity witness. */
void
fnv1a(std::uint64_t &h, const void *data, std::size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
}

void
fnv1aU64(std::uint64_t &h, std::uint64_t v)
{
    fnv1a(h, &v, sizeof(v));
}

void
fnv1aDouble(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    fnv1aU64(h, bits);
}

} // namespace

Service::Service(net::Topology topo, ServiceConfig cfg,
                 net::NetworkSimConfig simCfg,
                 const core::Wanify *wanify, std::uint64_t seed)
    : topo_(std::move(topo)),
      cfg_(cfg),
      wanify_(wanify),
      sim_(topo_, simCfg, seed),
      dynamics_(cfg.dynamics, sim_),
      faults_(gda::resolveFaultPlan(cfg.faults, cfg.dynamics,
                                    topo_.dcCount(), "Service")),
      rng_(seed ^ 0x5e17ce),
      allocator_(cfg.policy),
      gaugedRows_(monitor::kFeatureCount)
{
    fatalIf(cfg_.maxConcurrent == 0,
            "Service: maxConcurrent must be positive");
    fatalIf(!(cfg_.epoch > 0.0), "Service: epoch must be positive");
}

std::size_t
Service::effectiveSlotCap() const
{
    if (!faults_.anyBlackoutAt(sim_.now()))
        return cfg_.maxConcurrent;
    const double scaled =
        std::ceil(static_cast<double>(cfg_.maxConcurrent) *
                  cfg_.blackoutAdmissionFactor);
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::max(0.0, scaled)));
}

void
Service::killQueryRun(QueryState &q, Seconds at)
{
    q.exec->abandon(sim_);
    allocator_.release(sim_, q.group);
    ++report_.faultKills;
    if (q.outcome.requeues < cfg_.maxRequeues) {
        // Tear the run down and send the query back through
        // admission; re-execution starts from stage zero (delivered
        // stage outputs of a killed run are not trusted).
        ++q.outcome.requeues;
        q.phase = Phase::Queued;
        requeue_.push_back({q.index, at + cfg_.requeueBackoff});
    } else {
        q.outcome.killedByFault = true;
        finishQuery(q, at, false);
    }
}

void
Service::applyFaults()
{
    const Seconds now = sim_.now();
    std::vector<std::size_t> started;
    faults_.startsIn(faultCursor_, now, started);
    faultCursor_ = std::max(faultCursor_, now);
    if (started.empty())
        return;

    // Only transfer-killing faults pick victims. Gauge faults gate
    // maybeRetrain at its own boundary; there is no per-query AIMD
    // agent to crash on a shared mesh.
    std::vector<std::size_t> victims;
    for (const std::size_t fi : started) {
        const fault::FaultEvent &ev = faults_.events()[fi].ev;
        for (const std::size_t idx : active_) {
            const QueryState &q = queries_[idx];
            if (q.phase == Phase::Shuffling &&
                !q.exec->killedBy(ev).empty())
                victims.push_back(idx);
        }
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()),
                  victims.end());
    for (const std::size_t idx : victims)
        killQueryRun(queries_[idx], now);
    dropInactive();
}

void
Service::dropInactive()
{
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [&](std::size_t idx) {
                                     const Phase p =
                                         queries_[idx].phase;
                                     return p == Phase::Done ||
                                            p == Phase::Queued;
                                 }),
                  active_.end());
}

double
Service::meshMeanFactor(Seconds t) const
{
    const std::size_t n = topo_.dcCount();
    double sum = 0.0;
    std::size_t pairs = 0;
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            sum += cfg_.dynamics->capFactorAt(i, j, t);
            ++pairs;
        }
    }
    return pairs == 0 ? 1.0 : sum / static_cast<double>(pairs);
}

bool
Service::admissionHeld()
{
    if (!cfg_.forecastAdmission || !cfg_.forecast.enabled ||
        cfg_.dynamics == nullptr)
        return false;
    const Seconds now = sim_.now();
    if (now < admissionResumeAt_)
        return true; // inside a standing hold
    if (now < holdCooloffUntil_)
        return false; // a hold just expired; admit regardless

    // Compare the mesh-mean capacity factor now against the best
    // within the horizon: admitting into a trough that the forecast
    // says will lift shortly only buys queue-for-bandwidth churn.
    const double nowMean = meshMeanFactor(now);
    double best = nowMean;
    std::vector<std::pair<Seconds, double>> ahead; // (t, mesh mean)
    for (Seconds t = now + cfg_.forecast.step;
         t <= now + cfg_.forecast.horizon + kTimeEps;
         t += cfg_.forecast.step) {
        ahead.emplace_back(t, meshMeanFactor(t));
        best = std::max(best, ahead.back().second);
    }
    if (nowMean >= kAdmissionTrough * best)
        return false;

    // Hold until the first forecast sample out of the trough,
    // bounded by maxAdmissionHold; cool off as long afterwards so
    // repeated troughs cannot defer admission without bound.
    Seconds resume = now + cfg_.maxAdmissionHold;
    for (const auto &[t, mean] : ahead) {
        if (mean >= kAdmissionTrough * best) {
            resume = std::min(resume, t);
            break;
        }
    }
    admissionResumeAt_ = resume;
    holdCooloffUntil_ = resume + cfg_.maxAdmissionHold;
    return true;
}

void
Service::submit(QuerySpec spec)
{
    fatalIf(draining_, "Service: submit after drain started");
    fatalIf(spec.job.stages.empty(),
            "Service: query has no stages");
    fatalIf(spec.inputByDc.size() != topo_.dcCount(),
            "Service: input distribution size mismatch");
    for (const Bytes bytes : spec.inputByDc)
        if (!std::isfinite(bytes) || bytes < 0.0)
            fatal("Service: input bytes must be finite and non-negative");
    fatalIf(!(spec.weight > 0.0) || !std::isfinite(spec.weight),
            "Service: query weight must be positive");
    fatalIf(!(spec.arrival >= 0.0) || !std::isfinite(spec.arrival),
            "Service: arrival must be finite and non-negative");

    QueryState q;
    q.index = queries_.size();
    q.group = static_cast<net::FlowGroupId>(q.index + 1);
    q.outcome.name = spec.name;
    q.outcome.arrival = spec.arrival;
    q.spec = std::move(spec);
    queries_.push_back(std::move(q));
}

void
Service::admitQuery(QueryState &q, Seconds now, bool readmission)
{
    q.phase = Phase::Planning;
    if (q.exec)
        q.exec->restart(q.spec.inputByDc);
    else
        q.exec.emplace(topo_, q.spec.job, q.spec.inputByDc);
    q.scheduler = makeScheduler(cfg_.scheduler);
    // Pin the published predictor now: a service-level retrain
    // may swap the facade's model at any completion boundary, but
    // this query's planning evolves only from the pinned snapshot
    // (the engine's per-run discipline, ported to admission).
    if (wanify_ != nullptr)
        q.model = wanify_->predictorSnapshot();
    q.outcome.admitted = now;
    if (!readmission) {
        q.outcome.queueWait = now - q.spec.arrival;
        if (q.outcome.queueWait > kTimeEps)
            ++report_.queuedAdmissions;
    }

    active_.push_back(q.index);
    report_.peakConcurrent =
        std::max(report_.peakConcurrent, active_.size());
}

void
Service::admitDueQueries()
{
    const Seconds now = sim_.now();
    const bool held = admissionHeld();
    const std::size_t cap = effectiveSlotCap();

    // Fault-requeued queries re-enter first once their backoff
    // expires — they have already waited since their kill.
    while (!held && !requeue_.empty() && active_.size() < cap &&
           requeue_.front().due <= now + kTimeEps) {
        QueryState &q = queries_[requeue_.front().idx];
        requeue_.erase(requeue_.begin());
        admitQuery(q, now, /*readmission=*/true);
    }

    while (nextArrival_ < arrivalOrder_.size() &&
           active_.size() < cap) {
        QueryState &q = queries_[arrivalOrder_[nextArrival_]];
        if (q.spec.arrival > now + kTimeEps)
            break;
        if (held) {
            // Due but deferred: the forecast says the mesh is in a
            // trough that lifts within the horizon.
            if (!q.heldByForecast) {
                q.heldByForecast = true;
                ++report_.forecastHeldAdmissions;
            }
            break;
        }
        ++nextArrival_;
        admitQuery(q, now, /*readmission=*/false);
    }
}

void
Service::transitionComputedQueries()
{
    const Seconds now = sim_.now();
    for (const std::size_t idx : active_) {
        QueryState &q = queries_[idx];
        if (q.phase != Phase::Computing ||
            q.stageEnd > now + kTimeEps)
            continue;
        q.exec->nextStage();
        if (q.exec->done())
            finishQuery(q, q.stageEnd, false);
        else
            q.phase = Phase::Planning;
    }
    dropInactive();
}

void
Service::planAndLaunch()
{
    std::vector<std::size_t> planning;
    for (const std::size_t idx : active_)
        if (queries_[idx].phase == Phase::Planning)
            planning.push_back(idx);
    if (planning.empty())
        return;

    const std::size_t n = topo_.dcCount();

    // One shared capacity snapshot per round, taken on the control
    // thread: the cheap stand-in for the measurement plane's 1-second
    // snapshot, read once so the parallel planners never touch the
    // simulator.
    Matrix<Mbps> snapshot = Matrix<Mbps>::square(n, 0.0);
    for (DcId i = 0; i < n; ++i)
        for (DcId j = 0; j < n; ++j)
            snapshot.at(i, j) =
                i == j ? 0.0 : sim_.effectivePathCap(i, j);

    // A-priori share estimate for planning: the fraction of a
    // contended link this query would win against the *observed* mesh
    // occupancy — the queries shuffling right now plus this round's
    // co-planning cohort. Compute-phase neighbors don't dilute the
    // estimate, so a query planning its next stage while most peers
    // crunch locally sees a realistic share and stays
    // network-differentiable (a mass admission still seeds
    // conservatively: the whole cohort is in the denominator). The
    // allocator's water-fill then enforces the real shares from the
    // transfers actually started.
    double occupiedWeight = 0.0;
    for (const std::size_t idx : active_) {
        const QueryState &o = queries_[idx];
        const double w = cfg_.policy == AllocPolicy::WeightedPriority
                             ? o.spec.weight
                             : 1.0;
        if (o.phase == Phase::Shuffling && !o.exec->pending().empty())
            occupiedWeight += w;
        else if (o.phase == Phase::Planning)
            occupiedWeight += w; // co-planning cohort, incl. self
    }
    const Seconds planNow = sim_.now();

    // Placement, prediction, and connection planning are pure in the
    // query's own state, so the fan-out is deterministic: work is
    // assigned by index and each worker writes only its query.
    ThreadPool::global().parallelFor(
        planning.size(), [&](std::size_t k) {
            QueryState &q = queries_[planning[k]];
            const double w =
                cfg_.policy == AllocPolicy::WeightedPriority
                    ? q.spec.weight
                    : 1.0;
            q.share = std::min(1.0, w / std::max(w, occupiedWeight));
            q.outcome.minPlanningShare =
                std::min(q.outcome.minPlanningShare, q.share);

            if (q.model != nullptr && q.model->trained())
                q.believedBw = q.model->predictMatrix(
                    topo_, snapshot, q.predictScratch);
            else
                q.believedBw = snapshot;

            gda::StageContext ctx =
                q.exec->context(q.exec->stageInput(), q.believedBw);
            ctx.wanShare = q.share;
            if (cfg_.forecast.enabled && cfg_.dynamics != nullptr) {
                // Plan against where the mesh is going, not only
                // where it is: believed bandwidth scaled by the
                // dynamics' future factors relative to now.
                q.forecast = scenario::forecastFromDynamics(
                    *cfg_.dynamics, q.believedBw, planNow,
                    cfg_.forecast);
            }
            q.placed =
                q.exec->place(*q.scheduler, ctx, q.forecast, planNow);

            // Heterogeneous parallelism from the global optimizer
            // (the engine's global-only shape — per-query local
            // agents have no place on a shared mesh).
            if (wanify_ != nullptr && q.model != nullptr &&
                q.model->trained())
                q.connections =
                    wanify_->plan(q.believedBw).maxCons;
            else
                q.connections = Matrix<int>::square(n, 1);
        });

    // Transfers start sequentially, in query order, on the control
    // thread — the shared simulator is single-writer.
    const Seconds now = sim_.now();
    for (const std::size_t idx : planning) {
        QueryState &q = queries_[idx];
        auto start = [&](DcId i, DcId j, Bytes bytes) {
            gda::ShuffleTransfer &t =
                q.exec->start(sim_, i, j, bytes,
                              std::max(1, q.connections.at(i, j)),
                              q.group);
            // Straggler budgets share the planner's rate model.
            t.expected = gda::plannedTransferTime(
                q.believedBw,
                cfg_.forecast.enabled ? &q.forecast : nullptr, i, j,
                bytes, q.share, now);
            q.outcome.wanBytes += bytes;
        };
        q.exec->beginShuffle(std::move(q.placed), now, start);
        if (q.exec->pending().empty())
            enterComputePhase(q);
        else
            q.phase = Phase::Shuffling;
    }
}

void
Service::runAllocationRound()
{
    // The demand list and each demand's pair list are reused round to
    // round, so a round in steady state allocates nothing.
    std::size_t count = 0;
    for (const std::size_t idx : active_) {
        QueryState &q = queries_[idx];
        if (q.phase != Phase::Shuffling || q.exec->pending().empty())
            continue;
        if (count == demands_.size())
            demands_.emplace_back();
        QueryDemand &d = demands_[count++];
        d.group = q.group;
        d.weight = q.spec.weight;
        d.pairs.clear();
        // Elastic demand: a shuffle takes any rate granted.
        for (const std::size_t pair : q.exec->pendingPairs())
            d.pairs.push_back({pair, 0.0});
    }
    demands_.resize(count);
    // Admission follows arrival order, not submission order, so the
    // demand list needs the allocator's canonical group order before
    // the round runs.
    std::sort(demands_.begin(), demands_.end(),
              [](const QueryDemand &a, const QueryDemand &b) {
                  return a.group < b.group;
              });
    const Allocation &alloc = allocator_.allocate(sim_, demands_);
    report_.cappedPairRounds += alloc.cappedPairs;
    for (std::size_t k = 0; k < demands_.size(); ++k) {
        QueryState &q =
            queries_[static_cast<std::size_t>(demands_[k].group) - 1];
        q.outcome.minPlanningShare =
            std::min(q.outcome.minPlanningShare, alloc.planningShare[k]);
    }
}

void
Service::routeCompletions()
{
    for (const net::CompletionRecord &rec : sim_.drainCompletions()) {
        // submit() tags query k's transfers with group k + 1; group 0
        // carries no query's transfers.
        if (rec.group == 0)
            continue;
        QueryState &q = queries_[static_cast<std::size_t>(rec.group) - 1];
        if (q.exec->complete(rec) && q.phase == Phase::Shuffling &&
            q.exec->pending().empty())
            enterComputePhase(q);
    }
}

void
Service::enterComputePhase(QueryState &q)
{
    q.stageEnd = q.exec->computeEnd(sim_.now());
    q.phase = Phase::Computing;
    // The query's WAN appetite is gone; free its share for the rest.
    allocator_.release(sim_, q.group);
}

void
Service::checkStragglersAndGuards()
{
    const Seconds now = sim_.now();
    for (const std::size_t idx : active_) {
        QueryState &q = queries_[idx];
        if (now - q.outcome.admitted > cfg_.maxQuerySeconds) {
            logging::warn("service: query '" + q.spec.name +
                          "' hit the per-query guard");
            q.exec->abandon(sim_);
            finishQuery(q, now, true);
            continue;
        }

        if (cfg_.stragglerFactor <= 0.0 ||
            q.phase != Phase::Shuffling)
            continue;
        const auto &pending = q.exec->pending();

        // Re-dispatch transfers that overshot their plan: stop the
        // flow and restart the remainder with doubled connections —
        // the classic speculative-retry answer to a path that turned
        // out far slower than the predictor believed. Each transfer
        // gets maxRedispatches attempts (historically exactly one).
        std::vector<std::pair<TransferId, int>> retry;
        for (const auto &[id, t] : pending) {
            const Seconds budget =
                cfg_.stragglerFactor *
                std::max(cfg_.epoch, t.expected);
            if (t.redispatches <
                    static_cast<int>(cfg_.maxRedispatches) &&
                now - t.started > budget)
                retry.push_back(
                    {id, std::min(kMaxRedispatchConnections,
                                  std::max(1, t.connections * 2))});
        }
        for (const auto &[id, connections] : retry) {
            const auto restarted =
                q.exec->redispatch(sim_, id, connections, q.group);
            if (!restarted)
                continue;
            ++q.outcome.redispatches;
            q.outcome.wanBytes += restarted->bytes;
        }
        if (q.phase == Phase::Shuffling && pending.empty())
            enterComputePhase(q);
    }
    dropInactive();
}

void
Service::maybeRetrain()
{
    if (cfg_.retrainEveryCompleted == 0 || wanify_ == nullptr ||
        completedSinceRetrain_ < cfg_.retrainEveryCompleted)
        return;
    // Inside a ProbeLoss/GaugeTimeout window the gauge would never
    // land: keep the stale model and try again next boundary.
    if (faults_.gaugeFaultAt(sim_.now()))
        return;
    const auto published = wanify_->predictorSnapshot();
    if (published == nullptr || !published->trained())
        return;
    completedSinceRetrain_ = 0;

    // Gauge the live mesh (snapshot + one epoch of stable BW): real
    // measurement flows on the shared simulator, so adapting costs
    // the tenants bandwidth exactly as it would in production.
    const auto gauge = wanify_->gaugeRuntime(sim_, rng_, *published);
    core::BandwidthAnalyzer::appendRows(gaugedRows_, topo_, gauge.mesh(),
                                        rng_);

    std::uint64_t state = 0x5e12feedULL ^ (report_.retrainsPublished + 1);
    wanify_->retrain(gaugedRows_, splitmix64(state), published,
                     /*publish=*/true);
    ++report_.retrainsPublished;
}

void
Service::finishQuery(QueryState &q, Seconds at, bool timedOut)
{
    q.phase = Phase::Done;
    q.outcome.finished = at;
    q.outcome.latency = at - q.outcome.admitted;
    q.outcome.stages = q.exec->stage();
    q.outcome.timedOut = timedOut;
    allocator_.release(sim_, q.group);
    ++completedSinceRetrain_;
}

ServiceReport
Service::buildReport() const
{
    ServiceReport report = report_;

    Seconds firstAdmitted = 0.0, lastFinished = 0.0;
    double xSum = 0.0, x2Sum = 0.0;
    std::size_t wanActive = 0;
    std::uint64_t hash = 1469598103934665603ULL; // FNV offset basis

    for (const QueryState &q : queries_) {
        report.queries.push_back(q.outcome);
        if (q.outcome.requeues > 0)
            ++report.requeuedQueries;
        if (q.outcome.timedOut) {
            ++report.timedOut;
        } else if (q.outcome.killedByFault) {
            ++report.failedQueries;
        } else {
            ++report.completed;
            if (report.completed == 1 ||
                q.outcome.admitted < firstAdmitted)
                firstAdmitted = q.outcome.admitted;
            lastFinished =
                std::max(lastFinished, q.outcome.finished);
            if (q.outcome.wanBytes > 0.0 &&
                q.outcome.latency > 0.0) {
                const double x =
                    q.outcome.wanBytes / q.outcome.latency;
                xSum += x;
                x2Sum += x * x;
                ++wanActive;
            }
        }
        report.redispatches += q.outcome.redispatches;

        fnv1aU64(hash, q.index);
        fnv1aDouble(hash, q.outcome.latency);
        fnv1aDouble(hash, q.outcome.wanBytes);
        fnv1aU64(hash, q.outcome.redispatches);
        fnv1aU64(hash, q.outcome.stages);
        fnv1aU64(hash, q.outcome.timedOut ? 1 : 0);
        fnv1aU64(hash, q.outcome.requeues);
        fnv1aU64(hash, q.outcome.killedByFault ? 1 : 0);
    }

    if (report.completed > 0) {
        report.makespan = lastFinished - firstAdmitted;
        if (report.makespan > 0.0)
            report.throughputPerHour =
                static_cast<double>(report.completed) * 3600.0 /
                report.makespan;
    }
    if (wanActive > 0 && x2Sum > 0.0)
        report.jainFairness =
            (xSum * xSum) /
            (static_cast<double>(wanActive) * x2Sum);
    report.resultHash = hash;
    return report;
}

ServiceReport
Service::drain()
{
    fatalIf(draining_, "Service: drain is single-shot");
    draining_ = true;

    arrivalOrder_.resize(queries_.size());
    for (std::size_t i = 0; i < queries_.size(); ++i)
        arrivalOrder_[i] = i;
    std::sort(arrivalOrder_.begin(), arrivalOrder_.end(),
              [&](std::size_t a, std::size_t b) {
                  if (queries_[a].spec.arrival !=
                      queries_[b].spec.arrival)
                      return queries_[a].spec.arrival <
                             queries_[b].spec.arrival;
                  return a < b; // FIFO among simultaneous arrivals
              });

    while (!active_.empty() || nextArrival_ < arrivalOrder_.size() ||
           !requeue_.empty()) {
        dynamics_.advanceTo(sim_.now());
        applyFaults();
        admitDueQueries();

        if (active_.empty()) {
            // Fully idle: fast-forward to the next arrival or the
            // earliest requeue due time — or to the end of a forecast
            // admission hold, whichever is later (a hold always
            // resumes strictly in the future, so this cannot stall).
            Seconds at = std::numeric_limits<Seconds>::infinity();
            if (nextArrival_ < arrivalOrder_.size())
                at = queries_[arrivalOrder_[nextArrival_]].spec.arrival;
            if (!requeue_.empty())
                at = std::min(at, requeue_.front().due);
            // Nothing active, queued, or due: a fault kill can
            // terminally finish the last query between the loop
            // check and here, so this is completion, not a stall.
            if (std::isinf(at))
                break;
            if (admissionResumeAt_ > sim_.now())
                at = std::max(at, admissionResumeAt_);
            if (at > sim_.now())
                sim_.advanceBy(at - sim_.now());
            continue;
        }

        transitionComputedQueries();
        planAndLaunch();
        runAllocationRound();

        // Advance to the next control-plane event: the epoch
        // boundary, the earliest compute end, or the next arrival
        // (when a slot is free to take it). Transfer completions
        // inside the window are located exactly by the simulator.
        const Seconds now = sim_.now();
        Seconds target = now + cfg_.epoch;
        for (const std::size_t idx : active_) {
            const QueryState &q = queries_[idx];
            if (q.phase == Phase::Computing)
                target = std::min(target,
                                  std::max(now + kTimeEps,
                                           q.stageEnd));
        }
        if (active_.size() < cfg_.maxConcurrent &&
            nextArrival_ < arrivalOrder_.size()) {
            Seconds at =
                queries_[arrivalOrder_[nextArrival_]].spec.arrival;
            if (admissionResumeAt_ > now)
                at = std::max(at, admissionResumeAt_);
            target =
                std::min(target, std::max(now + kTimeEps, at));
        }
        if (active_.size() < cfg_.maxConcurrent &&
            !requeue_.empty())
            target = std::min(target,
                              std::max(now + kTimeEps,
                                       requeue_.front().due));
        if (target <= now + kTimeEps)
            target = now + cfg_.epoch;

        if (sim_.activeTransferCount() > 0)
            sim_.runUntilAllComplete(target);
        else
            sim_.advanceBy(target - now);

        routeCompletions();
        checkStragglersAndGuards();
        transitionComputedQueries();
        maybeRetrain();
    }

    dynamics_.finish();
    return buildReport();
}

} // namespace serve
} // namespace wanify
