/**
 * @file
 * Per-pair bandwidth forecast over a horizon of future timestamps.
 *
 * Schedulers historically planned every stage against one bandwidth
 * snapshot — the matrix the scheduler *believes* at plan time — so a
 * long shuffle could be placed across a pair about to enter a
 * maintenance window and the plan was wrong the moment it started.
 * A BwForecast is the cross-layer fix: a piecewise-constant matrix of
 * per-pair bandwidth over future time, queried by the stage-time
 * estimator to integrate expected transfer time across segments
 * instead of dividing by a single stale rate.
 *
 * Two sources produce forecasts:
 *  - simulation mode: scenario::forecastFromDynamics samples a
 *    Dynamics object's pure capFactorAt(i, j, t) (scenario/forecast.hh);
 *  - "deployed" mode: a GaugeTrend extrapolates the per-pair trend of
 *    recent gauged/predicted matrices, the way an operator would dead-
 *    reckon from the drift detector's history when no timetable of
 *    future events exists.
 *
 * Segment k's matrix holds over (end[k-1], end[k]] — the same
 * interval-end convention BwTrace replay uses — and the final matrix
 * is held beyond the horizon, so queries never fall off the end.
 */

#ifndef WANIFY_CORE_FORECAST_HH
#define WANIFY_CORE_FORECAST_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/matrix.hh"
#include "common/units.hh"
#include "net/topology.hh"

namespace wanify {
namespace core {

/** Forecast-aware planning tunables (engine / serve opt-in). */
struct ForecastConfig
{
    /** Master switch; off keeps snapshot planning bit-identical. */
    bool enabled = false;

    /** How far past plan time the forecast extends. */
    Seconds horizon = 240.0;

    /** Sampling granularity of the piecewise-constant segments. */
    Seconds step = 5.0;

    /**
     * How the believed matrix relates to the dynamics factors.
     * Nominal: the believed BW was measured under factor-1 conditions
     * (static matrices), so segment bw = believed * capFactorAt(t).
     * Current: the believed BW already reflects conditions *now*
     * (fresh prediction/gauge), so segment bw = believed *
     * capFactorAt(t) / capFactorAt(now).
     */
    enum class Anchor
    {
        Nominal,
        Current,
    };
    Anchor anchor = Anchor::Current;
};

/**
 * Piecewise-constant per-pair bandwidth over future time.
 *
 * Immutable after construction (via addSegment) and therefore safe to
 * share across the parallel objective evaluations of a fraction
 * search.
 */
class BwForecast
{
  public:
    /**
     * Rate floor (Mbps) applied inside transferTime: a zero-bandwidth
     * pair (outage) yields an astronomically large — but finite and
     * bytes-proportional — transfer time instead of +infinity, so the
     * fraction search still sees a gradient pointing away from dead
     * pairs rather than an indistinguishable plateau of infinities.
     */
    static constexpr Mbps kMinFeasibleMbps = 1.0e-3;

    BwForecast() = default;

    /**
     * Append one segment holding over (previous end, @p end]. Ends
     * must be strictly increasing; every matrix must be square with a
     * consistent size.
     */
    void addSegment(Seconds end, Matrix<Mbps> bw);

    bool empty() const { return bw_.empty(); }
    std::size_t segments() const { return bw_.size(); }
    std::size_t dcCount() const;

    /** End of the last segment (its matrix is held forever after). */
    Seconds horizonEnd() const;

    /** Matrix of the segment covering time @p t. */
    const Matrix<Mbps> &matrixAt(Seconds t) const;

    /** Forecast bandwidth of pair (i, j) at time @p t. */
    Mbps bwAt(net::DcId i, net::DcId j, Seconds t) const;

    /**
     * Time to move @p bytes across pair (i, j) starting at absolute
     * time @p start, integrating across forecast segments; each
     * segment's rate is bw * @p share floored at kMinFeasibleMbps.
     * Returns 0 for empty transfers.
     */
    Seconds transferTime(net::DcId i, net::DcId j, Bytes bytes,
                         double share, Seconds start) const;

  private:
    std::size_t segmentFor(Seconds t) const;

    std::vector<Seconds> ends_;
    std::vector<Matrix<Mbps>> bw_;
};

/**
 * History of believed/gauged bandwidth matrices with per-pair linear
 * extrapolation — the "deployed mode" forecast source, fed by the
 * engine's drift-gauge results. Keeps the most recent @p maxPoints
 * observations; older trend is stale by definition.
 */
class GaugeTrend
{
  public:
    explicit GaugeTrend(std::size_t maxPoints = 8);

    /** Record a believed matrix observed at time @p t (increasing). */
    void record(Seconds t, const Matrix<Mbps> &bw);

    std::size_t size() const { return times_.size(); }

    /** At least two observations: a trend exists. */
    bool ready() const { return times_.size() >= 2; }

    /**
     * Per-pair least-squares linear fit over the recorded history,
     * sampled every @p step seconds out to @p horizon past @p now and
     * clamped at >= 0. With fewer than two observations the forecast
     * is flat at the last (or only) recorded matrix; with none it is
     * empty.
     */
    BwForecast forecast(Seconds now, Seconds horizon,
                        Seconds step) const;

    /**
     * The same per-pair least-squares fit evaluated at the single
     * instant @p t, clamped at >= 0 — the degradation ladder's
     * "trend" rung uses this as the believed matrix when gauges are
     * failing. With fewer than two observations this returns the
     * last recorded matrix; call sites must check size() > 0.
     */
    Matrix<Mbps> extrapolateAt(Seconds t) const;

  private:
    std::size_t maxPoints_;
    std::vector<Seconds> times_;
    std::vector<Matrix<Mbps>> points_;
};

} // namespace core
} // namespace wanify

#endif // WANIFY_CORE_FORECAST_HH
