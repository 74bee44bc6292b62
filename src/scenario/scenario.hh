/**
 * @file
 * Deterministic non-stationary WAN dynamics (the scenario engine).
 *
 * The OU fluctuation process (net/fluctuation.hh) models stationary
 * second-scale jitter; the paper's motivation, however, rests on
 * *non-stationary* divergence between statically measured and runtime
 * bandwidth — diurnal cycles, link degradation, outages, flash crowds
 * (Section 2.2, Fig. 9). A ScenarioSpec is a declarative list of timed
 * events; a ScenarioTimeline compiles it against a cluster size and a
 * seed into a pure function of time that the GDA engine and the
 * experiment runner apply to a NetworkSim every epoch via the
 * scenario-override hooks. Everything is deterministic: event jitter
 * derives from the spec seed through the same splitmix64 scheme the
 * forest and the trial runner use, so parallel and sequential runs are
 * bit-identical.
 */

#ifndef WANIFY_SCENARIO_SCENARIO_HH
#define WANIFY_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "fault/fault.hh"
#include "net/network_sim.hh"

namespace wanify {
namespace scenario {

/** Wildcard value for an event's src/dst DC selector. */
constexpr int kAnyDc = -1;

/** Event duration that never ends within any simulated horizon. */
constexpr Seconds kForever = 1.0e18;

/** What a timed event does to the network. */
enum class EventKind
{
    /**
     * Sinusoidal capacity cycle: the factor swings between 1 and
     * (1 - magnitude) with the given period, starting at the crest.
     * Models diurnal backbone load.
     */
    Diurnal,

    /**
     * Linear capacity ramp from 1 down to (1 - magnitude) over
     * `duration` seconds starting at `start`; holds the floor
     * afterwards. Models progressive link degradation.
     */
    Degradation,

    /**
     * Hard outage: capacity collapses to `residual` (fraction of
     * nominal) inside [start, start + duration), then recovers fully.
     */
    Outage,

    /**
     * RTT inflation: the pair's RTT is multiplied by (1 + magnitude)
     * inside the window. Slower feedback loops make the pair timid
     * under contention without touching its capacity.
     */
    RttInflation,

    /**
     * Maintenance window: capacity capped at (1 - magnitude) of
     * nominal inside [start, start + duration) — a scheduled,
     * flat-bottomed partial outage.
     */
    Maintenance,

    /**
     * Flash crowd: background measurement-style flows appear on the
     * selected pairs at `start` and persist for `duration`, competing
     * with the job's transfers for capacity.
     */
    FlashCrowd,
};

const char *eventKindName(EventKind kind);

/** One timed event of a scenario. */
struct ScenarioEvent
{
    EventKind kind = EventKind::Maintenance;

    /** Ordered-pair selector; kAnyDc matches every DC on that side. */
    int src = kAnyDc;
    int dst = kAnyDc;

    /** Event start (seconds of scenario time). */
    Seconds start = 0.0;

    /** Window length (Degradation: ramp length; then holds). */
    Seconds duration = kForever;

    /** Depth/amplitude in [0, 1] for capacity events; RTT events use
     *  it as the inflation fraction (factor = 1 + magnitude). */
    double magnitude = 0.5;

    /** Diurnal period (must be > 0 for Diurnal events). */
    Seconds period = 240.0;

    /** Diurnal phase offset (seconds into the cycle at `start`). */
    Seconds phase = 0.0;

    /** Remaining capacity fraction during an Outage. */
    double residual = 0.02;

    /** Parallel connections of each FlashCrowd background flow. */
    int burstConnections = 4;

    /**
     * Deterministic start jitter: the compiled event starts at
     * start + U[0, startJitter), with U drawn from the event's
     * splitmix64-derived seed. Zero = exact start.
     */
    Seconds startJitter = 0.0;
};

/** A named, declarative scenario. */
struct ScenarioSpec
{
    std::string name;
    std::string description;

    /** Recommended application granularity for drivers. */
    Seconds epoch = 5.0;

    /** Recommended run length for drivers. */
    Seconds horizon = 300.0;

    std::vector<ScenarioEvent> events;

    /** Hard-fault storm riding along with the capacity events
     *  (compiled into a fault::FaultPlan by the timeline). */
    std::vector<fault::FaultEvent> faults;
};

/** A background flow a dynamics source wants started. */
struct BurstFlow
{
    Seconds start = 0.0;
    Seconds duration = 30.0;
    net::DcId src = 0;
    net::DcId dst = 0;
    int connections = 4;
};

/** What changes at a discrete dynamics change point. */
enum class ChangeKind
{
    Factor,     ///< a capacity/RTT factor window opens or closes
    BurstStart, ///< a flash-crowd burst opens
    BurstEnd,   ///< a flash-crowd burst expires
};

/**
 * A discrete instant at which a dynamics source changes the network
 * in a way that is invisible between samples: a scripted window edge
 * or a burst boundary. The event-driven clock (gda::EventClock)
 * schedules these as timestamped events so they take effect at their
 * true times instead of the next epoch tick. Continuous dynamics
 * (diurnal cycles, degradation ramps) have no discrete points inside
 * their windows and stay epoch-sampled.
 */
struct ChangePoint
{
    Seconds time = 0.0;
    ChangeKind kind = ChangeKind::Factor;
};

/**
 * Abstract time-varying network conditions, applied to a NetworkSim
 * via its scenario-override hooks. Implementations are immutable and
 * safe to share across concurrently running trials; per-run state
 * (which bursts have been started) belongs to the caller, which is
 * why bursts are exposed as a pure interval query.
 */
class Dynamics
{
  public:
    virtual ~Dynamics() = default;

    /** Cluster size this dynamics object was compiled for. */
    virtual std::size_t dcCount() const = 0;

    /**
     * Install the per-pair capacity/RTT factors of scenario time
     * @p t onto @p sim. Idempotent and deterministic in (sim, t).
     */
    virtual void applyAt(net::NetworkSim &sim, Seconds t) const = 0;

    /**
     * Pure capacity factor of pair (i, j) at the exact instant
     * @p t — the forecast-sampling hook. Note the deliberate
     * asymmetry with applyAt: replay-style sources install the
     * conditions governing the interval *after* t (with float slack),
     * whereas this answers "what multiplier holds at t itself" with
     * exact closed-right boundaries, so forecast segments can't be
     * off-by-one at segment edges. Defaults to 1 (no information:
     * forecast-neutral).
     */
    virtual double capFactorAt(net::DcId i, net::DcId j,
                               Seconds t) const;

    /** Background flows starting inside the half-open window
     *  (t0, t1]. Use t0 < 0 to include flows at t = 0. */
    virtual std::vector<BurstFlow> burstsIn(Seconds t0,
                                            Seconds t1) const;

    /**
     * Append every discrete change point inside the half-open window
     * (t0, t1] to @p out. Unordered and possibly duplicated (two
     * windows may share an edge) — consumers order them; applying a
     * factor twice at the same instant is idempotent. Default: none
     * (purely continuous or static dynamics).
     */
    virtual void changePointsIn(Seconds t0, Seconds t1,
                                std::vector<ChangePoint> &out) const;

    /**
     * Hard-fault schedule riding along with this dynamics source, or
     * nullptr when it carries none (the default — fault-free sources
     * stay structurally identical to before faults existed). The
     * plan's lifetime is the dynamics object's.
     */
    virtual const fault::FaultPlan *faultPlan() const;
};

/**
 * Per-run dynamics cursor over one simulator: installs a Dynamics
 * object's conditions and tracks which of its background flows have
 * been started, stopping them once they expire. Flows scheduled
 * inside an elapsed window (lastT, t] open at the first advanceTo(t)
 * that covers them — the GDA engine, the service, and the standalone
 * driver share this cursor so conditions change and flash crowds hit
 * at identical times in every harness. Null dynamics = every call is
 * a no-op.
 */
class DynamicsCursor
{
  public:
    /** Fails when @p dynamics was compiled for a cluster of another
     *  size than @p sim's. */
    DynamicsCursor(const Dynamics *dynamics, net::NetworkSim &sim);

    /** Install the conditions of scenario time @p t, open flows due
     *  in (lastT, t] (from each DC's first VM) and stop the expired
     *  ones. */
    void advanceTo(Seconds t);

    /** Stop every remaining flow. */
    void finish();

    /** Bytes the stopped flows moved, per ordered pair: burst traffic
     *  is other tenants' data and must not be billed to the job. */
    const Matrix<Bytes> &burstBytes() const { return burstBytes_; }

    /**
     * Bytes the still-active flows have moved so far, per ordered
     * pair — lets callers net burst progress out of a measurement
     * window without stopping the flows.
     */
    Matrix<Bytes> activeBurstMoved() const;

  private:
    struct ActiveFlow
    {
        net::TransferId id = 0;
        net::DcId src = 0;
        net::DcId dst = 0;
        Seconds end = 0.0;
    };

    void stop(std::size_t index);

    const Dynamics *dynamics_;
    net::NetworkSim &sim_;
    Seconds last_ = -1.0;
    std::vector<ActiveFlow> flows_;
    Matrix<Bytes> burstBytes_;
};

/**
 * A ScenarioSpec compiled against a cluster size and a seed.
 *
 * capFactor / rttFactor are pure functions of (pair, time): the
 * product (resp. max-of-inflation product) of every active event's
 * contribution. Two timelines built from the same spec, size, and
 * seed are bit-identical.
 */
class ScenarioTimeline : public Dynamics
{
  public:
    ScenarioTimeline(ScenarioSpec spec, std::size_t dcCount,
                     std::uint64_t seed);

    /** Capacity factor for pair (i, j) at scenario time t. */
    double capFactor(net::DcId i, net::DcId j, Seconds t) const;

    /** RTT factor for pair (i, j) at scenario time t. */
    double rttFactor(net::DcId i, net::DcId j, Seconds t) const;

    std::size_t dcCount() const override { return dcCount_; }
    void applyAt(net::NetworkSim &sim, Seconds t) const override;
    double capFactorAt(net::DcId i, net::DcId j,
                       Seconds t) const override
    {
        return capFactor(i, j, t);
    }
    std::vector<BurstFlow> burstsIn(Seconds t0,
                                    Seconds t1) const override;
    void changePointsIn(Seconds t0, Seconds t1,
                        std::vector<ChangePoint> &out) const override;
    const fault::FaultPlan *faultPlan() const override;

    const ScenarioSpec &spec() const { return spec_; }
    std::uint64_t seed() const { return seed_; }

  private:
    struct CompiledEvent
    {
        ScenarioEvent ev;
        Seconds jitteredStart = 0.0;
    };

    bool matches(const CompiledEvent &ce, net::DcId i,
                 net::DcId j) const;

    ScenarioSpec spec_;
    std::size_t dcCount_ = 0;
    std::uint64_t seed_ = 0;
    std::vector<CompiledEvent> events_;
    fault::FaultPlan faults_;
};

} // namespace scenario
} // namespace wanify

#endif // WANIFY_SCENARIO_SCENARIO_HH
