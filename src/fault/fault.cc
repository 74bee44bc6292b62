#include "fault/fault.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/rng.hh"

namespace wanify {
namespace fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::TransferAbort:
        return "transfer-abort";
    case FaultKind::ProbeLoss:
        return "probe-loss";
    case FaultKind::GaugeTimeout:
        return "gauge-timeout";
    case FaultKind::AgentCrash:
        return "agent-crash";
    case FaultKind::DcBlackout:
        return "dc-blackout";
    }
    return "unknown";
}

bool
FaultEvent::killsTransfer(net::DcId from, net::DcId to) const
{
    if (kind == FaultKind::TransferAbort)
        return (src == kAnyDc || static_cast<net::DcId>(src) == from) &&
               (dst == kAnyDc || static_cast<net::DcId>(dst) == to);
    if (kind == FaultKind::DcBlackout)
        return static_cast<net::DcId>(dc) == from ||
               static_cast<net::DcId>(dc) == to;
    return false;
}

const char *
predictorModeName(PredictorMode mode)
{
    switch (mode) {
    case PredictorMode::Model:
        return "model";
    case PredictorMode::Trend:
        return "trend";
    case PredictorMode::Static:
        return "static";
    }
    return "unknown";
}

namespace {

bool
windowed(FaultKind kind)
{
    return kind != FaultKind::TransferAbort;
}

void
validate(const FaultEvent &ev, std::size_t dcCount)
{
    const int n = static_cast<int>(dcCount);
    fatalIf(dcCount == 0, "FaultPlan needs a positive DC count");
    fatalIf(!std::isfinite(ev.time) || ev.time < 0.0,
            "fault time must be finite and non-negative");
    fatalIf(!std::isfinite(ev.duration) || ev.duration < 0.0,
            "fault duration must be finite and non-negative");
    fatalIf(ev.startJitter < 0.0, "fault startJitter must be >= 0");
    if (ev.kind == FaultKind::TransferAbort) {
        fatalIf(ev.src < kAnyDc || ev.src >= n,
                "fault src out of range");
        fatalIf(ev.dst < kAnyDc || ev.dst >= n,
                "fault dst out of range");
    }
    if (ev.kind == FaultKind::AgentCrash ||
        ev.kind == FaultKind::DcBlackout) {
        fatalIf(ev.dc < 0 || ev.dc >= n,
                "fault dc must name a concrete DC");
        fatalIf(ev.duration <= 0.0,
                "windowed DC faults need a positive duration");
    }
}

} // namespace

FaultPlan::FaultPlan(std::vector<FaultEvent> events,
                     std::size_t dcCount, std::uint64_t seed)
    : dcCount_(dcCount)
{
    if (events.empty())
        return;
    // Distinct derivation base from the scenario's own event jitter:
    // declaring faults must not shift existing scenario draws.
    const auto seeds = deriveSeeds(seed ^ 0xfa017ULL, events.size());
    faults_.reserve(events.size());
    for (std::size_t e = 0; e < events.size(); ++e) {
        validate(events[e], dcCount);
        CompiledFault cf;
        cf.ev = events[e];
        cf.start = cf.ev.time;
        if (cf.ev.startJitter > 0.0) {
            Rng rng(seeds[e]);
            cf.start += rng.uniform() * cf.ev.startJitter;
        }
        cf.end = windowed(cf.ev.kind) ? cf.start + cf.ev.duration
                                      : cf.start;
        faults_.push_back(cf);
    }
}

void
FaultPlan::edgesIn(Seconds t0, Seconds t1,
                   std::vector<Seconds> &out) const
{
    for (const CompiledFault &cf : faults_) {
        if (cf.start > t0 && cf.start <= t1)
            out.push_back(cf.start);
        if (windowed(cf.ev.kind) && cf.end > t0 && cf.end <= t1)
            out.push_back(cf.end);
    }
}

void
FaultPlan::startsIn(Seconds t0, Seconds t1,
                    std::vector<std::size_t> &out) const
{
    const std::size_t base = out.size();
    for (std::size_t i = 0; i < faults_.size(); ++i)
        if (faults_[i].start > t0 && faults_[i].start <= t1)
            out.push_back(i);
    std::sort(out.begin() + base, out.end(),
              [this](std::size_t a, std::size_t b) {
                  if (faults_[a].start != faults_[b].start)
                      return faults_[a].start < faults_[b].start;
                  return a < b;
              });
}

bool
FaultPlan::blackoutAt(net::DcId dc, Seconds t) const
{
    for (const CompiledFault &cf : faults_)
        if (cf.ev.kind == FaultKind::DcBlackout &&
            static_cast<net::DcId>(cf.ev.dc) == dc &&
            t >= cf.start && t < cf.end)
            return true;
    return false;
}

bool
FaultPlan::anyBlackoutAt(Seconds t) const
{
    for (const CompiledFault &cf : faults_)
        if (cf.ev.kind == FaultKind::DcBlackout && t >= cf.start &&
            t < cf.end)
            return true;
    return false;
}

bool
FaultPlan::pairBlackedOutAt(net::DcId i, net::DcId j,
                            Seconds t) const
{
    return blackoutAt(i, t) || blackoutAt(j, t);
}

Seconds
FaultPlan::blackoutClearTime(net::DcId i, net::DcId j,
                             Seconds t) const
{
    // Walk chained / overlapping windows: each pass pushes t to the
    // latest end of any window covering it. Terminates because each
    // pass either leaves t unchanged (clear) or strictly advances it
    // past at least one of the finitely many windows.
    bool moved = true;
    while (moved) {
        moved = false;
        for (const CompiledFault &cf : faults_) {
            if (cf.ev.kind != FaultKind::DcBlackout)
                continue;
            const net::DcId dc = static_cast<net::DcId>(cf.ev.dc);
            if (dc != i && dc != j)
                continue;
            if (t >= cf.start && t < cf.end) {
                t = cf.end;
                moved = true;
            }
        }
    }
    return t;
}

bool
FaultPlan::agentCrashedAt(net::DcId dc, Seconds t) const
{
    for (const CompiledFault &cf : faults_)
        if (cf.ev.kind == FaultKind::AgentCrash &&
            static_cast<net::DcId>(cf.ev.dc) == dc &&
            t >= cf.start && t < cf.end)
            return true;
    return false;
}

bool
FaultPlan::gaugeFaultAt(Seconds t, FaultKind *kind) const
{
    bool any = false;
    bool timeout = false;
    for (const CompiledFault &cf : faults_) {
        if (cf.ev.kind != FaultKind::ProbeLoss &&
            cf.ev.kind != FaultKind::GaugeTimeout)
            continue;
        if (t >= cf.start && t < cf.end) {
            any = true;
            timeout |= cf.ev.kind == FaultKind::GaugeTimeout;
        }
    }
    if (any && kind)
        *kind = timeout ? FaultKind::GaugeTimeout
                        : FaultKind::ProbeLoss;
    return any;
}

Seconds
RetryPolicy::backoff(std::size_t attempt,
                     std::uint64_t jitterSeed) const
{
    double d = baseBackoff;
    for (std::size_t k = 0; k < attempt && d < maxBackoff; ++k)
        d *= multiplier;
    d = std::min(d, maxBackoff);
    if (jitterFraction > 0.0) {
        std::uint64_t state = jitterSeed;
        const double u =
            static_cast<double>(splitmix64(state) >> 11) *
            (1.0 / 9007199254740992.0); // 2^-53: u in [0, 1)
        d *= 1.0 + jitterFraction * (u - 0.5);
    }
    return std::max(d, 0.0);
}

bool
PredictorHealth::recordFailure()
{
    consecutiveSuccesses_ = 0;
    ++consecutiveFailures_;
    PredictorMode next = mode_;
    if (consecutiveFailures_ >= cfg_.failuresToStatic)
        next = PredictorMode::Static;
    else if (consecutiveFailures_ >= cfg_.failuresToTrend &&
             mode_ == PredictorMode::Model)
        next = PredictorMode::Trend;
    const bool changed = next != mode_;
    mode_ = next;
    return changed;
}

bool
PredictorHealth::recordSuccess()
{
    consecutiveFailures_ = 0;
    if (mode_ == PredictorMode::Model) {
        consecutiveSuccesses_ = 0;
        return false;
    }
    ++consecutiveSuccesses_;
    if (consecutiveSuccesses_ < cfg_.successesToRecover)
        return false;
    consecutiveSuccesses_ = 0;
    mode_ = mode_ == PredictorMode::Static ? PredictorMode::Trend
                                           : PredictorMode::Model;
    return true;
}

} // namespace fault
} // namespace wanify
