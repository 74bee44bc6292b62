#include "net/fluctuation.hh"

#include <cmath>

#include "common/error.hh"

namespace wanify {
namespace net {

OuProcess::OuProcess(FluctuationParams params, Rng rng)
    : params_(params), rng_(rng)
{
    fatalIf(!std::isfinite(params_.theta) || params_.theta <= 0.0,
            "OuProcess: theta must be positive and finite");
    fatalIf(!std::isfinite(params_.logSigma) || params_.logSigma < 0.0,
            "OuProcess: logSigma must be >= 0 and finite");
    reseedStationary();
}

bool
OuProcess::active() const
{
    return params_.enabled && params_.logSigma > 0.0;
}

void
OuProcess::reseedStationary()
{
    // A disabled (or zero-sigma) process pins X at 0 and leaves the
    // RNG untouched, so toggling `enabled` in a config cannot shift
    // the streams of any other seeded component.
    if (!active()) {
        x_ = 0.0;
        return;
    }
    x_ = rng_.normal(0.0, params_.logSigma);
}

double
OuProcess::step(Seconds dt)
{
    if (!active())
        return 1.0;
    // dt <= 0 and NaN are no-ops: see the header. Consuming noise for
    // a zero-length step would bias nothing statistically but would
    // desynchronize replays that mix zero- and nonzero-length ticks.
    if (!(dt > 0.0))
        return multiplier();
    return advance(stepConstants(params_, dt));
}

OuProcess::OuStep
OuProcess::stepConstants(const FluctuationParams &params, Seconds dt)
{
    // Exact OU discretization with stationary SD sigma:
    //   X' = X e^{-theta dt} + N(0, sigma sqrt(1 - e^{-2 theta dt}))
    const double decay = std::exp(-params.theta * dt);
    return {decay, params.logSigma * std::sqrt(1.0 - decay * decay)};
}

double
OuProcess::advance(const OuStep &c)
{
    x_ = x_ * c.decay + rng_.normal(0.0, c.noiseSd);
    // Defensive: a non-finite state would poison every rate solve
    // from here on; snap back to the mean instead.
    if (!std::isfinite(x_))
        x_ = 0.0;
    return multiplier();
}

double
OuProcess::multiplier() const
{
    if (!active())
        return 1.0;
    // Subtract half the variance so the multiplier has mean ~1.
    return std::exp(x_ - 0.5 * params_.logSigma * params_.logSigma);
}

FluctuationBank::FluctuationBank(std::size_t pairs,
                                 FluctuationParams params,
                                 std::uint64_t seed)
    : params_(params)
{
    Rng master(seed);
    processes_.reserve(pairs);
    multipliers_.reserve(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
        processes_.emplace_back(params, master.split());
        multipliers_.push_back(processes_.back().multiplier());
    }
}

void
FluctuationBank::step(Seconds dt)
{
    // An inactive bank, or a step of no time, leaves every multiplier
    // where it is (see OuProcess::step).
    if (processes_.empty() || !processes_.front().active() ||
        !(dt > 0.0))
        return;
    // Every process shares the bank's params, so the step's constants
    // are one exp and one sqrt per bank, not per process.
    const OuProcess::OuStep c = OuProcess::stepConstants(params_, dt);
    for (std::size_t i = 0; i < processes_.size(); ++i)
        multipliers_[i] = processes_[i].advance(c);
}

double
FluctuationBank::multiplier(std::size_t index) const
{
    panicIf(index >= processes_.size(),
            "FluctuationBank: index out of range");
    return multipliers_[index];
}

} // namespace net
} // namespace wanify
