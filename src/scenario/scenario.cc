#include "scenario/scenario.hh"

#include <cmath>

#include "common/error.hh"
#include "common/rng.hh"

namespace wanify {
namespace scenario {

namespace {

constexpr double kTwoPi = 6.283185307179586476925;

bool
inWindow(const ScenarioEvent &ev, Seconds start, Seconds t)
{
    return t >= start && t < start + ev.duration;
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
    case EventKind::Diurnal:
        return "diurnal";
    case EventKind::Degradation:
        return "degradation";
    case EventKind::Outage:
        return "outage";
    case EventKind::RttInflation:
        return "rtt-inflation";
    case EventKind::Maintenance:
        return "maintenance";
    case EventKind::FlashCrowd:
        return "flash-crowd";
    }
    return "unknown";
}

std::vector<BurstFlow>
Dynamics::burstsIn(Seconds, Seconds) const
{
    return {};
}

double
Dynamics::capFactorAt(net::DcId, net::DcId, Seconds) const
{
    return 1.0;
}

void
Dynamics::changePointsIn(Seconds, Seconds,
                         std::vector<ChangePoint> &) const
{}

const fault::FaultPlan *
Dynamics::faultPlan() const
{
    return nullptr;
}

DynamicsCursor::DynamicsCursor(const Dynamics *dynamics,
                               net::NetworkSim &sim)
    : dynamics_(dynamics),
      sim_(sim),
      burstBytes_(Matrix<Bytes>::square(sim.topology().dcCount(), 0.0))
{
    fatalIf(dynamics_ != nullptr && dynamics_->dcCount() != 0 &&
                dynamics_->dcCount() != sim.topology().dcCount(),
            "dynamics compiled for a different cluster size");
}

void
DynamicsCursor::advanceTo(Seconds t)
{
    if (dynamics_ == nullptr)
        return;
    dynamics_->applyAt(sim_, t);
    const auto &topo = sim_.topology();
    for (const BurstFlow &flow : dynamics_->burstsIn(last_, t)) {
        ActiveFlow active;
        active.id = sim_.startMeasurement(topo.endpointVm(flow.src),
                                          topo.endpointVm(flow.dst),
                                          flow.connections);
        active.src = flow.src;
        active.dst = flow.dst;
        active.end = flow.start + flow.duration;
        flows_.push_back(active);
    }
    last_ = t;
    for (std::size_t i = 0; i < flows_.size();) {
        if (t >= flows_[i].end - 1.0e-9)
            stop(i);
        else
            ++i;
    }
}

void
DynamicsCursor::finish()
{
    while (!flows_.empty())
        stop(flows_.size() - 1);
}

Matrix<Bytes>
DynamicsCursor::activeBurstMoved() const
{
    Matrix<Bytes> out = Matrix<Bytes>::square(burstBytes_.rows(), 0.0);
    for (const auto &flow : flows_)
        out.at(flow.src, flow.dst) += sim_.status(flow.id).bytesMoved;
    return out;
}

void
DynamicsCursor::stop(std::size_t index)
{
    const ActiveFlow flow = flows_[index];
    burstBytes_.at(flow.src, flow.dst) += sim_.status(flow.id).bytesMoved;
    sim_.stopTransfer(flow.id);
    flows_[index] = flows_.back();
    flows_.pop_back();
}

ScenarioTimeline::ScenarioTimeline(ScenarioSpec spec,
                                   std::size_t dcCount,
                                   std::uint64_t seed)
    : spec_(std::move(spec)), dcCount_(dcCount), seed_(seed)
{
    fatalIf(dcCount_ < 2, "ScenarioTimeline: need at least 2 DCs");
    fatalIf(spec_.epoch <= 0.0, "ScenarioTimeline: epoch must be > 0");
    fatalIf(spec_.horizon <= 0.0,
            "ScenarioTimeline: horizon must be > 0");

    // Per-event seeds come from the same splitmix64 derivation the
    // forest and trial runner use: jitter draws are independent of
    // event order and of any other consumer of the base seed.
    const auto seeds = deriveSeeds(seed_, spec_.events.size());
    events_.reserve(spec_.events.size());
    for (std::size_t e = 0; e < spec_.events.size(); ++e) {
        const ScenarioEvent &ev = spec_.events[e];
        fatalIf(ev.src != kAnyDc &&
                    (ev.src < 0 ||
                     static_cast<std::size_t>(ev.src) >= dcCount_),
                "ScenarioTimeline: event src out of range");
        fatalIf(ev.dst != kAnyDc &&
                    (ev.dst < 0 ||
                     static_cast<std::size_t>(ev.dst) >= dcCount_),
                "ScenarioTimeline: event dst out of range");
        fatalIf(!std::isfinite(ev.start) || ev.start < 0.0 ||
                    std::isnan(ev.duration) || ev.duration < 0.0,
                "ScenarioTimeline: bad event time");
        fatalIf(std::isnan(ev.magnitude) ||
                    std::isnan(ev.residual) ||
                    std::isnan(ev.period) || !std::isfinite(ev.phase),
                "ScenarioTimeline: non-finite event field");
        // Capacity events scale a fraction away; RTT inflation can
        // exceed 100%.
        const double maxMagnitude =
            ev.kind == EventKind::RttInflation ? 100.0 : 1.0;
        fatalIf(ev.magnitude < 0.0 || ev.magnitude > maxMagnitude,
                "ScenarioTimeline: magnitude out of range");
        fatalIf(ev.residual < 0.0 || ev.residual > 1.0,
                "ScenarioTimeline: residual must be in [0, 1]");
        fatalIf(ev.kind == EventKind::Diurnal && ev.period <= 0.0,
                "ScenarioTimeline: diurnal period must be > 0");
        fatalIf(ev.kind == EventKind::FlashCrowd &&
                    ev.burstConnections < 1,
                "ScenarioTimeline: burstConnections must be >= 1");
        fatalIf(!std::isfinite(ev.startJitter) ||
                    ev.startJitter < 0.0,
                "ScenarioTimeline: bad startJitter");

        CompiledEvent ce;
        ce.ev = ev;
        ce.jitteredStart = ev.start;
        if (ev.startJitter > 0.0) {
            Rng rng(seeds[e]);
            ce.jitteredStart += rng.uniform() * ev.startJitter;
        }
        events_.push_back(ce);
    }

    // Faults compile through their own seed derivation (see
    // FaultPlan): a spec that adds faults draws the same scenario
    // event jitter as one that doesn't.
    if (!spec_.faults.empty())
        faults_ = fault::FaultPlan(spec_.faults, dcCount_, seed_);
}

const fault::FaultPlan *
ScenarioTimeline::faultPlan() const
{
    return faults_.empty() ? nullptr : &faults_;
}

bool
ScenarioTimeline::matches(const CompiledEvent &ce, net::DcId i,
                          net::DcId j) const
{
    const auto &ev = ce.ev;
    return (ev.src == kAnyDc ||
            static_cast<net::DcId>(ev.src) == i) &&
           (ev.dst == kAnyDc || static_cast<net::DcId>(ev.dst) == j);
}

double
ScenarioTimeline::capFactor(net::DcId i, net::DcId j, Seconds t) const
{
    if (i == j)
        return 1.0;
    double factor = 1.0;
    for (const auto &ce : events_) {
        if (!matches(ce, i, j))
            continue;
        const ScenarioEvent &ev = ce.ev;
        const Seconds start = ce.jitteredStart;
        switch (ev.kind) {
        case EventKind::Diurnal: {
            if (t < start)
                break;
            // Crest (factor 1) at phase 0; trough (1 - magnitude)
            // half a period later.
            const double angle =
                kTwoPi * (t - start + ev.phase) / ev.period;
            factor *= 1.0 -
                      0.5 * ev.magnitude * (1.0 - std::cos(angle));
            break;
        }
        case EventKind::Degradation: {
            if (t < start)
                break;
            const double frac =
                ev.duration <= 0.0
                    ? 1.0
                    : std::min(1.0, (t - start) / ev.duration);
            factor *= 1.0 - ev.magnitude * frac;
            break;
        }
        case EventKind::Outage:
            if (inWindow(ev, start, t))
                factor *= ev.residual;
            break;
        case EventKind::Maintenance:
            if (inWindow(ev, start, t))
                factor *= 1.0 - ev.magnitude;
            break;
        case EventKind::RttInflation:
        case EventKind::FlashCrowd:
            break; // no capacity contribution
        }
    }
    return factor;
}

double
ScenarioTimeline::rttFactor(net::DcId i, net::DcId j, Seconds t) const
{
    if (i == j)
        return 1.0;
    double factor = 1.0;
    for (const auto &ce : events_) {
        if (ce.ev.kind != EventKind::RttInflation ||
            !matches(ce, i, j))
            continue;
        if (inWindow(ce.ev, ce.jitteredStart, t))
            factor *= 1.0 + ce.ev.magnitude;
    }
    return factor;
}

void
ScenarioTimeline::applyAt(net::NetworkSim &sim, Seconds t) const
{
    fatalIf(sim.topology().dcCount() != dcCount_,
            "ScenarioTimeline: compiled for a different cluster size");
    for (net::DcId i = 0; i < dcCount_; ++i) {
        for (net::DcId j = 0; j < dcCount_; ++j) {
            if (i == j)
                continue;
            sim.setScenarioCapFactor(i, j, capFactor(i, j, t));
            sim.setScenarioRttFactor(i, j, rttFactor(i, j, t));
        }
    }
}

void
ScenarioTimeline::changePointsIn(Seconds t0, Seconds t1,
                                 std::vector<ChangePoint> &out) const
{
    auto emit = [&](Seconds t, ChangeKind kind) {
        if (t > t0 && t <= t1)
            out.push_back({t, kind});
    };
    for (const auto &ce : events_) {
        const ScenarioEvent &ev = ce.ev;
        const Seconds start = ce.jitteredStart;
        const Seconds end = start + ev.duration;
        switch (ev.kind) {
        case EventKind::Diurnal:
            // Continuous everywhere after its start; the clock's
            // regular epoch ticks sample it. Only the onset is a
            // discrete edge.
            emit(start, ChangeKind::Factor);
            break;
        case EventKind::Degradation:
            // The ramp itself is continuous (epoch-sampled); its
            // endpoints are kinks worth hitting exactly.
            emit(start, ChangeKind::Factor);
            if (ev.duration < kForever)
                emit(end, ChangeKind::Factor);
            break;
        case EventKind::Outage:
        case EventKind::Maintenance:
        case EventKind::RttInflation:
            emit(start, ChangeKind::Factor);
            if (ev.duration < kForever)
                emit(end, ChangeKind::Factor);
            break;
        case EventKind::FlashCrowd:
            emit(start, ChangeKind::BurstStart);
            if (ev.duration < kForever)
                emit(end, ChangeKind::BurstEnd);
            break;
        }
    }
}

std::vector<BurstFlow>
ScenarioTimeline::burstsIn(Seconds t0, Seconds t1) const
{
    std::vector<BurstFlow> out;
    for (const auto &ce : events_) {
        if (ce.ev.kind != EventKind::FlashCrowd)
            continue;
        if (!(ce.jitteredStart > t0 && ce.jitteredStart <= t1))
            continue;
        for (net::DcId i = 0; i < dcCount_; ++i) {
            for (net::DcId j = 0; j < dcCount_; ++j) {
                if (i == j || !matches(ce, i, j))
                    continue;
                BurstFlow flow;
                flow.start = ce.jitteredStart;
                flow.duration = ce.ev.duration;
                flow.src = i;
                flow.dst = j;
                flow.connections = ce.ev.burstConnections;
                out.push_back(flow);
            }
        }
    }
    return out;
}

} // namespace scenario
} // namespace wanify
