/**
 * @file
 * First-class fault injection and recovery policy.
 *
 * The scenario engine's capacity factors model *soft* failures — a
 * pair slows down, the job limps through. The runtime setting the
 * paper targets also has *hard* failures: an in-flight transfer dies
 * and its undelivered bytes are lost, a gauge probe times out, an
 * AIMD agent crashes and its pairs fall back to unthrottled
 * contention, a whole DC blacks out. A FaultPlan compiles a list of
 * seeded FaultEvents into a pure function of time that the GDA engine
 * and the serve layer consume through gda::EventClock as first-class
 * timestamped events, keeping every run bit-reproducible.
 *
 * Recovery policy lives here too: RetryPolicy is the capped
 * exponential backoff schedule (deterministic splitmix64 jitter) for
 * aborted transfers, and PredictorHealth is the graceful degradation
 * ladder (healthy model → GaugeTrend extrapolation → static a-priori
 * bandwidth) that prediction steps down when gauges fail and back up
 * on recovery.
 */

#ifndef WANIFY_FAULT_FAULT_HH
#define WANIFY_FAULT_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "net/topology.hh"

namespace wanify {
namespace fault {

/** Wildcard value for a fault's src/dst DC selector. */
constexpr int kAnyDc = -1;

/** What a timed fault does to the system. */
enum class FaultKind
{
    /**
     * Kill every matching in-flight shuffle transfer at `time`;
     * undelivered bytes are lost and must be retried or re-placed.
     * src/dst select the ordered pair (kAnyDc = wildcard).
     */
    TransferAbort,

    /**
     * A drift gauge observation window returns no data: the retrain
     * pipeline sees a failed gauge inside [time, time + duration) and
     * the predictor health ladder records a failure.
     */
    ProbeLoss,

    /**
     * A predict-time gauge times out inside [time, time + duration):
     * like ProbeLoss, but the engine also pays one epoch of wait for
     * the timeout before degrading.
     */
    GaugeTimeout,

    /**
     * DC `dc`'s AIMD agent crashes at `time` and restarts after
     * `duration`; while down its pairs run unthrottled (tc limits
     * cleared, no per-epoch adjustment).
     */
    AgentCrash,

    /**
     * Hard outage of DC `dc` inside [time, time + duration): every
     * in-flight transfer touching the DC is aborted at the start
     * edge, and no transfer to or from it may start until the
     * blackout clears. Unlike the scenario library's soft Outage
     * (a capacity factor), bytes in flight are lost.
     */
    DcBlackout,
};

const char *faultKindName(FaultKind kind);

/** One timed fault of a scenario. */
struct FaultEvent
{
    FaultKind kind = FaultKind::TransferAbort;

    /** Ordered-pair selector for TransferAbort (kAnyDc = wildcard). */
    int src = kAnyDc;
    int dst = kAnyDc;

    /** Target DC for AgentCrash / DcBlackout. */
    int dc = 0;

    /** Fault start (seconds of scenario time). */
    Seconds time = 0.0;

    /** Window length for windowed kinds (crash downtime, blackout,
     *  gauge-outage window). Instant kinds (TransferAbort) ignore it. */
    Seconds duration = 0.0;

    /**
     * Deterministic start jitter: the compiled fault fires at
     * time + U[0, startJitter), drawn from the fault's
     * splitmix64-derived seed. Zero = exact start.
     */
    Seconds startJitter = 0.0;

    /**
     * Does this fault kill an in-flight transfer from DC @p from to
     * DC @p to? TransferAbort matches its src/dst selector, DcBlackout
     * either endpoint; the other kinds kill nothing.
     */
    bool killsTransfer(net::DcId from, net::DcId to) const;
};

/**
 * Check @p ev against a @p dcCount-DC cluster: finite non-negative
 * time, duration and startJitter, selectors in range, and a positive
 * duration for windowed DC faults. fatal() naming the first bad field.
 */
void validate(const FaultEvent &ev, std::size_t dcCount);

/** A FaultEvent with its jitter resolved against the plan seed. */
struct CompiledFault
{
    FaultEvent ev;
    Seconds start = 0.0;
    Seconds end = 0.0;
};

/**
 * A list of FaultEvents compiled against a cluster size and a seed
 * into a pure function of time. Immutable and safe to share across
 * concurrently running trials; two plans built from the same events,
 * size, and seed are bit-identical. Jitter seeds derive from
 * seed ^ 0xfa017 so adding faults to a scenario never perturbs the
 * scenario's own event-jitter stream.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    FaultPlan(std::vector<FaultEvent> events, std::size_t dcCount,
              std::uint64_t seed);

    bool empty() const { return faults_.empty(); }
    std::size_t dcCount() const { return dcCount_; }
    const std::vector<CompiledFault> &events() const { return faults_; }

    /** Start/end edge times inside the half-open window (t0, t1],
     *  appended unordered (consumers push them onto an EventClock,
     *  which orders). Use t0 < 0 to include edges at t = 0. */
    void edgesIn(Seconds t0, Seconds t1,
                 std::vector<Seconds> &out) const;

    /** Indices of faults starting inside (t0, t1], sorted by
     *  (start, index) so same-instant faults fire in spec order. */
    void startsIn(Seconds t0, Seconds t1,
                  std::vector<std::size_t> &out) const;

    /** Is DC `dc` inside a DcBlackout window at t? */
    bool blackoutAt(net::DcId dc, Seconds t) const;

    /** Is any DC blacked out at t? */
    bool anyBlackoutAt(Seconds t) const;

    /** Is either endpoint of ordered pair (i, j) blacked out at t? */
    bool pairBlackedOutAt(net::DcId i, net::DcId j, Seconds t) const;

    /**
     * Earliest time >= t at which neither endpoint of (i, j) is
     * blacked out (t itself when the pair is clear). Chained
     * blackouts are walked; the result is exact, not sampled.
     */
    Seconds blackoutClearTime(net::DcId i, net::DcId j,
                              Seconds t) const;

    /** Is DC `dc`'s agent inside an AgentCrash window at t? */
    bool agentCrashedAt(net::DcId dc, Seconds t) const;

    /**
     * Is a gauge-affecting fault (ProbeLoss / GaugeTimeout) active
     * at t? When yes and @p kind is non-null, reports which kind
     * (GaugeTimeout wins when both overlap: it is the costlier one).
     */
    bool gaugeFaultAt(Seconds t, FaultKind *kind = nullptr) const;

  private:
    std::size_t dcCount_ = 0;
    std::vector<CompiledFault> faults_;
};

/**
 * Capped exponential backoff for aborted transfers. The attempt'th
 * retry (0-based) waits baseBackoff * multiplier^attempt, capped at
 * maxBackoff, then jittered by ±jitterFraction/2 via a splitmix64
 * draw from @p jitterSeed — deterministic given the seed, desynced
 * across transfers given distinct seeds.
 */
struct RetryPolicy
{
    /** Total send attempts before the bytes are re-planned onto an
     *  alternate path (1 initial + maxAttempts-1 retries). */
    std::size_t maxAttempts = 4;

    Seconds baseBackoff = 2.0;
    double multiplier = 2.0;
    Seconds maxBackoff = 60.0;

    /** Jitter band width as a fraction of the backoff (0 = none). */
    double jitterFraction = 0.25;

    /** Backoff before retry number @p attempt (0-based). */
    Seconds backoff(std::size_t attempt, std::uint64_t jitterSeed) const;
};

/** Rungs of the prediction degradation ladder, best to worst. */
enum class PredictorMode
{
    Model = 0,  ///< healthy: gauge + forest prediction
    Trend = 1,  ///< gauges failing: GaugeTrend OLS extrapolation
    Static = 2, ///< trend unusable too: static a-priori bandwidth
};

/** When the ladder steps down and back up. */
struct PredictorHealthConfig
{
    /** Consecutive gauge failures before Model → Trend. */
    std::size_t failuresToTrend = 1;

    /** Consecutive gauge failures before → Static. */
    std::size_t failuresToStatic = 3;

    /** Consecutive successes to climb one rung back up. */
    std::size_t successesToRecover = 1;
};

/**
 * Tracks consecutive gauge failures / recoveries and maps them to a
 * PredictorMode. recordFailure / recordSuccess return true when the
 * mode changed, so callers can count ladder transitions.
 */
class PredictorHealth
{
  public:
    PredictorHealth() = default;
    explicit PredictorHealth(PredictorHealthConfig cfg) : cfg_(cfg) {}

    PredictorMode mode() const { return mode_; }

    /** A gauge failed (no data, timeout, or non-finite output). */
    bool recordFailure();

    /** A gauge produced usable data. */
    bool recordSuccess();

  private:
    PredictorHealthConfig cfg_;
    PredictorMode mode_ = PredictorMode::Model;
    std::size_t consecutiveFailures_ = 0;
    std::size_t consecutiveSuccesses_ = 0;
};

} // namespace fault
} // namespace wanify

#endif // WANIFY_FAULT_FAULT_HH
