#include "net/network_sim.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hh"

namespace wanify {
namespace net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Bytes kByteEps = 1.0; // one byte of slack for completions

} // namespace

namespace {

/** VM capacity wobble is gentler than path-level fluctuation. */
FluctuationParams
vmFluctuationParams(FluctuationParams base)
{
    base.logSigma *= 0.3;
    return base;
}

} // namespace

NetworkSim::NetworkSim(Topology topology, NetworkSimConfig config,
                       std::uint64_t seed)
    : topology_(std::move(topology)),
      config_(config),
      pairs_(topology_.dcCount()),
      fluctuation_(topology_.pairCount(), config.fluctuation, seed),
      vmFluctuation_(topology_.vmCount(),
                     vmFluctuationParams(config.fluctuation),
                     seed ^ 0xabcdef1234567ULL),
      nextTick_(config.tickInterval),
      tcLimits_(topology_.pairCount(), 0.0),
      scenarioCap_(topology_.pairCount(), 1.0),
      scenarioRtt_(topology_.pairCount(), 1.0),
      pairBytes_(topology_.pairCount(), 0.0)
{
    if (config_.tickInterval <= 0.0)
        fatal("NetworkSim: tickInterval must be positive");

    // Unpack the immutable per-pair topology quantities into flat
    // PairIndex-layout banks once, so resolveRates composes arrays
    // instead of chasing matrix accessors.
    const std::size_t n = topology_.dcCount();
    basePathCap_.resize(pairs_.size());
    connCapFlat_.resize(pairs_.size());
    baseRtt_.resize(pairs_.size());
    routeQualityFlat_.resize(pairs_.size());
    pairWeight_.resize(pairs_.size());
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            const std::size_t p = pairs_(i, j);
            basePathCap_[p] = topology_.pathCap(i, j);
            connCapFlat_[p] = topology_.connCap(i, j);
            baseRtt_[p] = topology_.rttSeconds(i, j);
            routeQualityFlat_[p] = topology_.routeQuality(i, j);
        }
    }
    vmWanCap_.resize(topology_.vmCount());
    vmNicCap_.resize(topology_.vmCount());
    for (VmId v = 0; v < topology_.vmCount(); ++v) {
        vmWanCap_[v] = topology_.vm(v).type.wanCapMbps;
        vmNicCap_[v] = topology_.vm(v).type.nicCapMbps;
    }
    inputs_.dcCount = n;
    inputs_.vmEgressCap.resize(topology_.vmCount());
    inputs_.vmIngressCap.resize(topology_.vmCount());
    inputs_.vmNicCap.resize(topology_.vmCount());
    inputs_.pathCap.resize(pairs_.size());
}

TransferId
NetworkSim::makeTransfer(VmId src, VmId dst, Bytes bytes, int connections,
                         bool measurement, FlowGroupId group)
{
    if (src >= topology_.vmCount() || dst >= topology_.vmCount())
        fatal("NetworkSim: VM id out of range");
    if (src == dst)
        fatal("NetworkSim: transfer to self");
    if (connections < 1)
        fatal("NetworkSim: connections must be >= 1");

    Transfer t;
    t.id = nextId_++;
    t.srcVm = src;
    t.dstVm = dst;
    t.srcDc = topology_.vm(src).dc;
    t.dstDc = topology_.vm(dst).dc;
    t.connections = connections;
    t.measurement = measurement;
    t.group = group;
    t.remaining = measurement ? kInf : bytes;
    transfers_[t.id] = t;
    ratesDirty_ = true;
    return t.id;
}

TransferId
NetworkSim::startTransfer(VmId src, VmId dst, Bytes bytes, int connections,
                          FlowGroupId group)
{
    if (bytes <= 0.0)
        fatal("startTransfer: bytes must be positive");
    return makeTransfer(src, dst, bytes, connections, false, group);
}

TransferId
NetworkSim::startMeasurement(VmId src, VmId dst, int connections)
{
    return makeTransfer(src, dst, 0.0, connections, true, 0);
}

void
NetworkSim::stopTransfer(TransferId id)
{
    auto it = transfers_.find(id);
    if (it == transfers_.end())
        return;
    completed_[id] = it->second;
    transfers_.erase(it);
    ratesDirty_ = true;
}

void
NetworkSim::setConnections(TransferId id, int connections)
{
    if (connections < 1)
        fatal("setConnections: connections must be >= 1");
    auto it = transfers_.find(id);
    if (it == transfers_.end())
        return;
    if (it->second.connections != connections) {
        it->second.connections = connections;
        ratesDirty_ = true;
    }
}

void
NetworkSim::setTcLimit(DcId src, DcId dst, Mbps limit)
{
    const std::size_t pair = topology_.pairIndex(src, dst);
    tcLimits_[pair] = limit > 0.0 ? limit : 0.0;
    ratesDirty_ = true;
}

void
NetworkSim::clearTcLimits()
{
    std::fill(tcLimits_.begin(), tcLimits_.end(), 0.0);
    ratesDirty_ = true;
}

void
NetworkSim::setScenarioCapFactor(DcId src, DcId dst, double factor)
{
    if (!std::isfinite(factor) || factor < 0.0)
        fatal("setScenarioCapFactor: factor must be finite and >= 0");
    const std::size_t pair = topology_.pairIndex(src, dst);
    if (scenarioCap_[pair] != factor) {
        scenarioCap_[pair] = factor;
        ratesDirty_ = true;
    }
}

void
NetworkSim::setScenarioRttFactor(DcId src, DcId dst, double factor)
{
    if (!std::isfinite(factor) || factor <= 0.0)
        fatal("setScenarioRttFactor: factor must be finite and > 0");
    const std::size_t pair = topology_.pairIndex(src, dst);
    if (scenarioRtt_[pair] != factor) {
        scenarioRtt_[pair] = factor;
        ratesDirty_ = true;
        weightsDirty_ = true;
    }
}

void
NetworkSim::clearScenarioFactors()
{
    std::fill(scenarioCap_.begin(), scenarioCap_.end(), 1.0);
    std::fill(scenarioRtt_.begin(), scenarioRtt_.end(), 1.0);
    ratesDirty_ = true;
    weightsDirty_ = true;
}

double
NetworkSim::scenarioCapFactor(DcId src, DcId dst) const
{
    return scenarioCap_[topology_.pairIndex(src, dst)];
}

double
NetworkSim::scenarioRttFactor(DcId src, DcId dst) const
{
    return scenarioRtt_[topology_.pairIndex(src, dst)];
}

void
NetworkSim::setGroupWeight(FlowGroupId group, double weight)
{
    if (group == 0)
        fatal("setGroupWeight: group 0 is ungrouped");
    if (!std::isfinite(weight) || weight <= 0.0)
        fatal("setGroupWeight: weight must be finite and > 0");
    groups_[group].weight = weight;
    ratesDirty_ = true;
    groupsDirty_ = true;
}

void
NetworkSim::setGroupPairCap(FlowGroupId group, DcId src, DcId dst,
                            Mbps cap)
{
    if (group == 0)
        fatal("setGroupPairCap: group 0 is ungrouped");
    if (!std::isfinite(cap))
        fatal("setGroupPairCap: cap must be finite");
    const std::size_t pair = topology_.pairIndex(src, dst);
    auto lookup = [pair](GroupState &state) {
        return std::lower_bound(
            state.pairCap.begin(), state.pairCap.end(), pair,
            [](const std::pair<std::size_t, Mbps> &e,
               std::size_t key) { return e.first < key; });
    };
    if (cap > 0.0) {
        GroupState &state = groups_[group];
        auto it = lookup(state);
        if (it != state.pairCap.end() && it->first == pair)
            it->second = cap;
        else
            state.pairCap.insert(it, {pair, cap});
    } else {
        auto git = groups_.find(group);
        if (git == groups_.end())
            return;
        auto it = lookup(git->second);
        if (it != git->second.pairCap.end() && it->first == pair)
            git->second.pairCap.erase(it);
    }
    ratesDirty_ = true;
    groupsDirty_ = true;
}

void
NetworkSim::clearGroupAllocations(FlowGroupId group)
{
    if (groups_.erase(group) > 0) {
        ratesDirty_ = true;
        groupsDirty_ = true;
    }
}

Mbps
NetworkSim::groupRate(FlowGroupId group) const
{
    Mbps total = 0.0;
    for (const auto &[id, t] : transfers_) {
        if (t.group == group)
            total += t.rate;
    }
    return total;
}

Bytes
NetworkSim::groupPendingBytes(FlowGroupId group) const
{
    Bytes total = 0.0;
    for (const auto &[id, t] : transfers_) {
        if (t.group == group && !t.measurement)
            total += t.remaining;
    }
    return total;
}

std::size_t
NetworkSim::groupTransferCount(FlowGroupId group) const
{
    std::size_t count = 0;
    for (const auto &[id, t] : transfers_) {
        if (t.group == group)
            ++count;
    }
    return count;
}

void
NetworkSim::rebuildPairWeights()
{
    // RTT bias of TCP sharing: weight ~ 1/RTT^2, consistent with
    // the Mathis-law per-connection caps (see flow_solver.hh).
    // Route quality makes lossy backbone paths *timid* under
    // contention without affecting their solo throughput — the
    // asymmetry that makes statically measured BWs mis-rank links
    // at runtime (Table 1 / Section 2.2).
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
        const Seconds rtt =
            std::max(baseRtt_[p] * scenarioRtt_[p], 1.0e-3);
        pairWeight_[p] = routeQualityFlat_[p] / (rtt * rtt);
    }
    weightsDirty_ = false;
}

void
NetworkSim::rebuildGroupInputs()
{
    // Allocator state: groups_ keys map to dense solver indices in
    // ascending id order (deterministic), and each group's sparse
    // share caps land pre-sorted by (group, pair) because the map
    // iterates in key order and each cap vector is kept sorted.
    denseGroup_.clear();
    inputs_.groupShareCap.clear();
    for (const auto &[g, state] : groups_) {
        const std::size_t dense = denseGroup_.size();
        denseGroup_.emplace(g, dense);
        for (const auto &[pair, cap] : state.pairCap)
            inputs_.groupShareCap.push_back({dense, pair, cap});
    }
    groupsDirty_ = false;
}

void
NetworkSim::resolveRates()
{
    if (config_.referenceSolverInputs) {
        resolveRatesReference();
        return;
    }
    const std::size_t n = topology_.dcCount();

    // One branch-free composition pass per bank: cached fluctuation
    // multipliers x scenario factors over the flat base arrays, then
    // the diagonal fixed up to nominal (legacy used multiplier 1
    // there; self-pairs carry no WAN transfers either way).
    const std::vector<double> &vmMult = vmFluctuation_.multipliers();
    for (VmId v = 0; v < vmWanCap_.size(); ++v) {
        const double wobble = vmMult[v];
        inputs_.vmEgressCap[v] = vmWanCap_[v] * wobble;
        inputs_.vmIngressCap[v] = vmWanCap_[v] * wobble;
        inputs_.vmNicCap[v] = vmNicCap_[v] * wobble;
    }
    const std::vector<double> &mult = fluctuation_.multipliers();
    for (std::size_t p = 0; p < pairs_.size(); ++p)
        inputs_.pathCap[p] =
            basePathCap_[p] * (mult[p] * scenarioCap_[p]);
    for (DcId i = 0; i < n; ++i)
        inputs_.pathCap[pairs_(i, i)] = basePathCap_[pairs_(i, i)];
    inputs_.tcLimit = tcLimits_;

    if (groupsDirty_)
        rebuildGroupInputs();
    if (weightsDirty_)
        rebuildPairWeights();

    specs_.clear();
    specs_.reserve(transfers_.size());
    for (const auto &[id, t] : transfers_) {
        FlowSpec spec;
        spec.srcVm = t.srcVm;
        spec.dstVm = t.dstVm;
        spec.srcDc = t.srcDc;
        spec.dstDc = t.dstDc;
        spec.connections = t.connections;
        const std::size_t pair = pairs_(t.srcDc, t.dstDc);
        spec.weightPerConn = pairWeight_[pair];
        spec.capPerConn = connCapFlat_[pair];
        if (t.group != 0) {
            auto g = groups_.find(t.group);
            if (g != groups_.end()) {
                spec.weightPerConn *= g->second.weight;
                spec.group = denseGroup_.at(t.group);
            }
        }
        specs_.push_back(spec);
    }

    const auto rates =
        solveRates(specs_, inputs_, config_.solver, &solverScratch_);
    std::size_t i = 0;
    for (auto &[id, t] : transfers_) {
        t.rate = rates[i].rate;
        t.bottleneck = rates[i].bottleneck;
        ++i;
    }
    ratesDirty_ = false;
}

void
NetworkSim::resolveRatesReference()
{
    // The pre-flat input builder, preserved verbatim: fresh map-keyed
    // structures and matrix accessors every call. resolveRates() must
    // stay bit-identical to this (net_test asserts it on the 8-DC
    // golden mesh); bench_perf_mesh_scale times the two against each
    // other.
    const std::size_t n = topology_.dcCount();

    SolverInputs inputs;
    inputs.dcCount = n;
    inputs.vmEgressCap.resize(topology_.vmCount());
    inputs.vmIngressCap.resize(topology_.vmCount());
    inputs.vmNicCap.resize(topology_.vmCount());
    for (VmId v = 0; v < topology_.vmCount(); ++v) {
        const VmType &type = topology_.vm(v).type;
        const double wobble = vmFluctuation_.multiplier(v);
        inputs.vmEgressCap[v] = type.wanCapMbps * wobble;
        inputs.vmIngressCap[v] = type.wanCapMbps * wobble;
        inputs.vmNicCap[v] = type.nicCapMbps * wobble;
    }
    inputs.pathCap.resize(n * n);
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            const std::size_t pair = topology_.pairIndex(i, j);
            double mult = i == j ? 1.0
                                 : fluctuation_.multiplier(pair) *
                                       scenarioCap_[pair];
            inputs.pathCap[pair] = topology_.pathCap(i, j) * mult;
        }
    }
    inputs.tcLimit = tcLimits_;

    std::map<FlowGroupId, std::size_t> denseGroup;
    for (const auto &[g, state] : groups_) {
        const std::size_t dense = denseGroup.size();
        denseGroup.emplace(g, dense);
        for (const auto &[pair, cap] : state.pairCap)
            inputs.groupShareCap.push_back({dense, pair, cap});
    }

    std::vector<FlowSpec> specs;
    std::vector<TransferId> order;
    specs.reserve(transfers_.size());
    order.reserve(transfers_.size());
    for (const auto &[id, t] : transfers_) {
        FlowSpec spec;
        spec.srcVm = t.srcVm;
        spec.dstVm = t.dstVm;
        spec.srcDc = t.srcDc;
        spec.dstDc = t.dstDc;
        spec.connections = t.connections;
        const Seconds rtt = std::max(
            topology_.rttSeconds(t.srcDc, t.dstDc) *
                scenarioRtt_[topology_.pairIndex(t.srcDc, t.dstDc)],
            1.0e-3);
        spec.weightPerConn =
            topology_.routeQuality(t.srcDc, t.dstDc) / (rtt * rtt);
        spec.capPerConn = topology_.connCap(t.srcDc, t.dstDc);
        if (t.group != 0) {
            auto g = groups_.find(t.group);
            if (g != groups_.end()) {
                spec.weightPerConn *= g->second.weight;
                spec.group = denseGroup.at(t.group);
            }
        }
        specs.push_back(spec);
        order.push_back(id);
    }

    const auto rates = solveRates(specs, inputs, config_.solver);
    for (std::size_t i = 0; i < order.size(); ++i) {
        Transfer &t = transfers_[order[i]];
        t.rate = rates[i].rate;
        t.bottleneck = rates[i].bottleneck;
    }
    ratesDirty_ = false;
}

Seconds
NetworkSim::nextCompletionIn() const
{
    Seconds best = kInf;
    for (const auto &[id, t] : transfers_) {
        if (t.measurement)
            continue;
        if (t.remaining <= kByteEps)
            return 0.0;
        if (t.rate <= 0.0)
            continue;
        best = std::min(best, units::transferTime(t.remaining, t.rate));
    }
    return best;
}

void
NetworkSim::progress(Seconds dt)
{
    // dt == 0 is a legal "sweep" pass that only collects transfers whose
    // byte counters already reached zero.
    if (dt < 0.0)
        panic("progress: negative dt");
    std::vector<TransferId> finished;
    for (auto &[id, t] : transfers_) {
        const Bytes moved = units::bytesAtRate(t.rate, dt);
        t.moved += moved;
        pairBytes_[pairs_(t.srcDc, t.dstDc)] += moved;
        if (!t.measurement) {
            t.remaining -= moved;
            if (t.remaining <= kByteEps)
                finished.push_back(id);
        }
    }
    now_ += dt;
    for (TransferId id : finished) {
        auto it = transfers_.find(id);
        it->second.remaining = 0.0;
        completed_[id] = it->second;
        completions_.push_back({id, now_});
        transfers_.erase(it);
        ratesDirty_ = true;
    }
}

void
NetworkSim::advanceBy(Seconds dt)
{
    if (dt < 0.0)
        fatal("advanceBy: negative dt");
    Seconds remaining = dt;
    std::size_t guard = 0;
    while (remaining > 1.0e-12) {
        if (++guard > 100000000)
            panic("advanceBy: too many steps; check tickInterval");
        if (ratesDirty_)
            resolveRates();
        const Seconds toTick = nextTick_ - now_;
        const Seconds toCompletion = nextCompletionIn();
        const Seconds step =
            std::max(0.0, std::min({remaining, toTick, toCompletion}));
        if (step > 0.0)
            progress(step);
        remaining -= step;
        if (now_ >= nextTick_ - 1.0e-12) {
            fluctuation_.step(config_.tickInterval);
            vmFluctuation_.step(config_.tickInterval);
            nextTick_ += config_.tickInterval;
            ratesDirty_ = true;
        } else if (step == 0.0 && toCompletion == 0.0) {
            // A transfer was already complete; run a zero-length sweep
            // pass to collect it.
            progress(0.0);
            // Completions flip ratesDirty_; loop continues.
            if (!ratesDirty_)
                break; // defensive: nothing changed, avoid spinning
        }
    }
    // Leave rates fresh so telemetry right after advanceBy is valid.
    if (ratesDirty_)
        resolveRates();
}

Seconds
NetworkSim::runUntilAllComplete(Seconds maxTime)
{
    std::size_t guard = 0;
    while (!allTransfersDone() && now_ < maxTime - 1.0e-9) {
        if (++guard > 100000000)
            panic("runUntilAllComplete: stuck");
        if (ratesDirty_)
            resolveRates();
        const Seconds toCompletion = nextCompletionIn();
        // Advance to the earlier of the next completion, the next
        // tick (stalled transfers may unstall when fluctuation moves),
        // or the horizon. A sub-epsilon step cannot make progress —
        // stop instead of spinning.
        const Seconds step =
            std::min(toCompletion == kInf ? config_.tickInterval
                                          : toCompletion,
                     maxTime - now_);
        if (step <= 1.0e-9)
            break;
        advanceBy(step);
    }
    return now_;
}

bool
NetworkSim::allTransfersDone() const
{
    for (const auto &[id, t] : transfers_) {
        if (!t.measurement)
            return false;
    }
    return true;
}

std::vector<CompletionRecord>
NetworkSim::drainCompletions()
{
    std::vector<CompletionRecord> out;
    out.swap(completions_);
    return out;
}

TransferStatus
NetworkSim::status(TransferId id) const
{
    TransferStatus st;
    auto it = transfers_.find(id);
    if (it != transfers_.end()) {
        const Transfer &t = it->second;
        st.exists = true;
        st.done = false;
        st.bytesMoved = t.moved;
        st.bytesRemaining = t.measurement ? kInf : t.remaining;
        st.currentRate = t.rate;
        st.bottleneck = t.bottleneck;
        st.connections = t.connections;
        return st;
    }
    auto ct = completed_.find(id);
    if (ct != completed_.end()) {
        const Transfer &t = ct->second;
        st.exists = true;
        st.done = true;
        st.bytesMoved = t.moved;
        st.bytesRemaining = 0.0;
        st.currentRate = 0.0;
        st.bottleneck = t.bottleneck;
        st.connections = t.connections;
    }
    return st;
}

Mbps
NetworkSim::transferRate(TransferId id) const
{
    auto it = transfers_.find(id);
    if (it == transfers_.end())
        return 0.0;
    if (ratesDirty_)
        panic("transferRate: rates are stale; advance first");
    return it->second.rate;
}

Mbps
NetworkSim::pairRate(DcId src, DcId dst) const
{
    Mbps total = 0.0;
    for (const auto &[id, t] : transfers_) {
        if (t.srcDc == src && t.dstDc == dst)
            total += t.rate;
    }
    return total;
}

Bytes
NetworkSim::pairBytes(DcId src, DcId dst) const
{
    return pairBytes_[topology_.pairIndex(src, dst)];
}

Matrix<Mbps>
NetworkSim::pairRateMatrix() const
{
    const std::size_t n = topology_.dcCount();
    Matrix<Mbps> m = Matrix<Mbps>::square(n, 0.0);
    for (const auto &[id, t] : transfers_)
        m.at(t.srcDc, t.dstDc) += t.rate;
    return m;
}

double
NetworkSim::pairRetransScore(DcId src, DcId dst) const
{
    double demand = 0.0;
    double served = 0.0;
    for (const auto &[id, t] : transfers_) {
        if (t.srcDc != src || t.dstDc != dst)
            continue;
        demand += bundleCap(t.connections,
                            topology_.connCap(t.srcDc, t.dstDc),
                            config_.solver);
        served += t.rate;
    }
    if (demand <= 0.0)
        return 0.0;
    return std::clamp(1.0 - served / demand, 0.0, 1.0);
}

Mbps
NetworkSim::effectivePathCap(DcId src, DcId dst) const
{
    if (src == dst)
        return topology_.pathCap(src, dst);
    const std::size_t pair = topology_.pairIndex(src, dst);
    return topology_.pathCap(src, dst) *
           fluctuation_.multiplier(pair) * scenarioCap_[pair];
}

std::vector<TransferId>
NetworkSim::transfersBetween(DcId src, DcId dst) const
{
    std::vector<TransferId> ids;
    for (const auto &[id, t] : transfers_) {
        if (t.srcDc == src && t.dstDc == dst)
            ids.push_back(id);
    }
    return ids;
}

Bytes
NetworkSim::pendingBytesBetween(DcId src, DcId dst) const
{
    Bytes total = 0.0;
    for (const auto &[id, t] : transfers_) {
        if (t.srcDc == src && t.dstDc == dst && !t.measurement)
            total += t.remaining;
    }
    return total;
}

int
NetworkSim::totalConnectionsAtVm(VmId vm) const
{
    int total = 0;
    for (const auto &[id, t] : transfers_) {
        if (t.srcVm == vm || t.dstVm == vm)
            total += t.connections;
    }
    return total;
}

} // namespace net
} // namespace wanify
