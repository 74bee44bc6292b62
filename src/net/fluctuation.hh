/**
 * @file
 * WAN bandwidth fluctuation process.
 *
 * Inter-DC capacity varies on the scale of seconds to minutes [Wang'21,
 * ref 38 in the paper]. We model each DC-pair's capacity multiplier as the
 * exponential of an Ornstein-Uhlenbeck process: mean-reverting, stationary
 * and seedable, so 1-second snapshots differ from 20-second stable
 * averages exactly the way the paper's motivation experiments describe.
 */

#ifndef WANIFY_NET_FLUCTUATION_HH
#define WANIFY_NET_FLUCTUATION_HH

#include <vector>

#include "common/rng.hh"
#include "common/units.hh"

namespace wanify {
namespace net {

/** Parameters of the OU fluctuation process. */
struct FluctuationParams
{
    /** Mean-reversion rate (1/s). 0.08 -> ~12 s correlation time. */
    double theta = 0.08;

    /** Stationary standard deviation of log-capacity. */
    double logSigma = 0.16;

    /** Disable fluctuation entirely (deterministic capacity). */
    bool enabled = true;
};

/**
 * One OU process: X mean-reverts to 0; multiplier() = exp(X).
 *
 * Uses the exact discretization so step size does not bias the
 * stationary distribution.
 */
class OuProcess
{
  public:
    OuProcess(FluctuationParams params, Rng rng);

    /**
     * Advance the process by @p dt and return the new multiplier.
     *
     * @p dt <= 0 (or NaN) is a no-op returning the current
     * multiplier: no time has passed, and drawing noise for it would
     * perturb the RNG stream of every later step.
     */
    double step(Seconds dt);

    /** Current multiplier exp(X). */
    double multiplier() const;

    /** Draw the state from the stationary distribution. */
    void reseedStationary();

    /** True when the process actually fluctuates (enabled, sigma > 0). */
    bool active() const;

    /** The exact discretization's constants for a step of @p dt > 0. */
    struct OuStep
    {
        double decay = 1.0;   ///< e^{-theta dt}
        double noiseSd = 0.0; ///< sigma sqrt(1 - decay^2)
    };
    static OuStep stepConstants(const FluctuationParams &params,
                                Seconds dt);

    /**
     * Advance an active process by one step with constants @p c and
     * return the new multiplier: step(dt) for the dt @p c was computed
     * for (FluctuationBank computes them once per bank step).
     */
    double advance(const OuStep &c);

  private:
    FluctuationParams params_;
    Rng rng_;
    double x_ = 0.0;
};

/**
 * A bank of independent OU processes, one per DC pair, indexed by a
 * caller-chosen dense pair index.
 *
 * Multipliers are cached in a flat vector refreshed on every step, so
 * hot paths that compose all pairs (NetworkSim::resolveRates over the
 * whole mesh) read a contiguous array instead of paying one exp() per
 * pair per solve.
 */
class FluctuationBank
{
  public:
    FluctuationBank(std::size_t pairs, FluctuationParams params,
                    std::uint64_t seed);

    /** Advance all processes by dt. */
    void step(Seconds dt);

    /** Capacity multiplier of pair @p index. */
    double multiplier(std::size_t index) const;

    /** All multipliers, indexed by pair — valid until the next step. */
    const std::vector<double> &multipliers() const
    {
        return multipliers_;
    }

    std::size_t size() const { return processes_.size(); }

  private:
    FluctuationParams params_; ///< shared by every process
    std::vector<OuProcess> processes_;
    std::vector<double> multipliers_;
};

} // namespace net
} // namespace wanify

#endif // WANIFY_NET_FLUCTUATION_HH
