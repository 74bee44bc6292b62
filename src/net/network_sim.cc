#include "net/network_sim.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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
      nextTick_(kTickInterval),
      tcLimits_(topology_.pairCount(), 0.0),
      scenarioCap_(topology_.pairCount(), 1.0),
      scenarioRtt_(topology_.pairCount(), 1.0),
      pairBytes_(topology_.pairCount(), 0.0)
{
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
    t.pair = pairs_(t.srcDc, t.dstDc);
    t.connections = connections;
    t.measurement = measurement;
    t.group = group;
    if (group != 0) {
        t.groupSlot = groupSlot(group);
        t.shareCap = shareCapEntry(group, t.pair);
    }
    t.remaining = measurement ? kInf : bytes;
    transfers_.push_back(t);
    structureDirty_ = true;
    return t.id;
}

const NetworkSim::Transfer *
NetworkSim::findTransfer(TransferId id) const
{
    auto it = std::lower_bound(
        transfers_.begin(), transfers_.end(), id,
        [](const Transfer &t, TransferId key) { return t.id < key; });
    if (it == transfers_.end() || it->id != id || it->stopped)
        return nullptr;
    return &*it;
}

NetworkSim::Transfer *
NetworkSim::findTransfer(TransferId id)
{
    return const_cast<Transfer *>(
        static_cast<const NetworkSim *>(this)->findTransfer(id));
}

void
NetworkSim::dropStopped()
{
    transfers_.erase(std::remove_if(transfers_.begin(), transfers_.end(),
                                    [](const Transfer &t) {
                                        return t.stopped;
                                    }),
                     transfers_.end());
    stoppedCount_ = 0;
}

TransferId
NetworkSim::startTransfer(VmId src, VmId dst, Bytes bytes, int connections,
                          FlowGroupId group)
{
    if (!std::isfinite(bytes) || bytes <= 0.0)
        fatal("startTransfer: bytes must be finite and positive");
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
    Transfer *t = findTransfer(id);
    if (t == nullptr)
        return;
    t->stopped = true;
    ++stoppedCount_;
    structureDirty_ = true;
}

void
NetworkSim::setConnections(TransferId id, int connections)
{
    if (connections < 1)
        fatal("setConnections: connections must be >= 1");
    Transfer *t = findTransfer(id);
    if (t == nullptr)
        return;
    if (t->connections != connections) {
        t->connections = connections;
        structureDirty_ = true;
    }
}

std::size_t
NetworkSim::pairSlot(DcId src, DcId dst) const
{
    if (src >= pairs_.dcCount() || dst >= pairs_.dcCount())
        panic("NetworkSim: DC out of range");
    return pairs_(src, dst);
}

void
NetworkSim::setTcLimit(DcId src, DcId dst, Mbps limit)
{
    const std::size_t pair = pairSlot(src, dst);
    const Mbps next = limit > 0.0 ? limit : 0.0;
    Mbps &tc = tcLimits_[pair];
    if (tc == next)
        return;
    // A limit turning on or off adds or drops a solver resource.
    if ((tc > 0.0) != (next > 0.0))
        structureDirty_ = true;
    tc = next;
    capacityDirty_ = true;
}

void
NetworkSim::setScenarioCapFactor(DcId src, DcId dst, double factor)
{
    if (!std::isfinite(factor) || factor < 0.0)
        fatal("setScenarioCapFactor: factor must be finite and >= 0");
    const std::size_t pair = pairSlot(src, dst);
    if (scenarioCap_[pair] != factor) {
        scenarioCap_[pair] = factor;
        capacityDirty_ = true;
    }
}

void
NetworkSim::setScenarioRttFactor(DcId src, DcId dst, double factor)
{
    if (!std::isfinite(factor) || factor <= 0.0)
        fatal("setScenarioRttFactor: factor must be finite and > 0");
    const std::size_t pair = pairSlot(src, dst);
    if (scenarioRtt_[pair] != factor) {
        scenarioRtt_[pair] = factor;
        structureDirty_ = true;
        weightsDirty_ = true;
    }
}

double
NetworkSim::scenarioCapFactor(DcId src, DcId dst) const
{
    return scenarioCap_[pairSlot(src, dst)];
}

double
NetworkSim::scenarioRttFactor(DcId src, DcId dst) const
{
    return scenarioRtt_[pairSlot(src, dst)];
}

std::vector<std::size_t>::const_iterator
NetworkSim::groupPosition(FlowGroupId group) const
{
    return std::lower_bound(groupsById_.begin(), groupsById_.end(), group,
                            [this](std::size_t slot, FlowGroupId key) {
                                return groups_[slot].id < key;
                            });
}

std::size_t
NetworkSim::findGroupSlot(FlowGroupId group) const
{
    auto it = groupPosition(group);
    if (it == groupsById_.end() || groups_[*it].id != group)
        return kNoGroupSlot;
    return *it;
}

std::size_t
NetworkSim::groupSlot(FlowGroupId group)
{
    auto it = groupPosition(group);
    if (it != groupsById_.end() && groups_[*it].id == group)
        return *it;
    const std::size_t slot = groups_.size();
    groups_.push_back({group, 1.0});
    groupsById_.insert(it, slot);
    return slot;
}

std::size_t
NetworkSim::shareCapEntry(FlowGroupId group, std::size_t pair) const
{
    auto it = std::lower_bound(
        shareCaps_.begin(), shareCaps_.end(), std::make_pair(group, pair),
        [](const GroupPairCap &c,
           const std::pair<FlowGroupId, std::size_t> &key) {
            return c.group != key.first ? c.group < key.first
                                        : c.pair < key.second;
        });
    if (it == shareCaps_.end() || it->group != group || it->pair != pair)
        return kNoShareCap;
    return static_cast<std::size_t>(it - shareCaps_.begin());
}

void
NetworkSim::setGroupWeight(FlowGroupId group, double weight)
{
    if (group == 0)
        fatal("setGroupWeight: group 0 is ungrouped");
    if (!std::isfinite(weight) || weight <= 0.0)
        fatal("setGroupWeight: weight must be finite and > 0");
    GroupSlot &slot = groups_[groupSlot(group)];
    if (slot.weight != weight) {
        slot.weight = weight;
        structureDirty_ = true;
    }
}

void
NetworkSim::installShareCaps(const std::vector<GroupPairCap> &caps)
{
    // Validate every entry before touching the table, so a rejected
    // install leaves the previous one in force.
    for (std::size_t e = 0; e < caps.size(); ++e) {
        const GroupPairCap &c = caps[e];
        if (c.group == 0)
            fatal("installShareCaps: group 0 is ungrouped");
        if (!std::isfinite(c.cap))
            fatal("installShareCaps: cap must be finite");
        if (c.pair >= pairs_.size())
            panic("installShareCaps: pair index out of range");
        if (e > 0 && (caps[e - 1].group > c.group ||
                      (caps[e - 1].group == c.group &&
                       caps[e - 1].pair >= c.pair)))
            panic("installShareCaps: caps not sorted by (group, pair) "
                  "and unique");
    }
    bool sameKeys = caps.size() == shareCaps_.size();
    bool sameCaps = true;
    bool samePositive = true;
    for (std::size_t e = 0; sameKeys && e < caps.size(); ++e) {
        const GroupPairCap &next = caps[e];
        const GroupPairCap &was = shareCaps_[e];
        sameKeys = next.group == was.group && next.pair == was.pair;
        sameCaps = sameCaps && next.cap == was.cap;
        samePositive =
            samePositive && (next.cap > 0.0) == (was.cap > 0.0);
    }
    // An allocator re-installs every round; an unchanged table (an
    // idle round, say) leaves the rates as they are, and one that
    // moves only cap values keeps the solver structure.
    if (sameKeys && sameCaps)
        return;
    shareCaps_ = caps;
    copyShareCaps();
    if (!sameKeys)
        shareCapKeysDirty_ = true;
    if (!sameKeys || !samePositive)
        structureDirty_ = true;
    capacityDirty_ = true;
}

void
NetworkSim::clearGroupAllocations(FlowGroupId group)
{
    const std::size_t slot = findGroupSlot(group);
    if (slot != kNoGroupSlot && groups_[slot].weight != 1.0) {
        groups_[slot].weight = 1.0;
        structureDirty_ = true;
    }
    // The table is group-major, so the group's caps are one run.
    auto first = std::lower_bound(
        shareCaps_.begin(), shareCaps_.end(), group,
        [](const GroupPairCap &c, FlowGroupId key) {
            return c.group < key;
        });
    auto last = first;
    while (last != shareCaps_.end() && last->group == group)
        ++last;
    if (first != last) {
        shareCaps_.erase(first, last);
        copyShareCaps();
        shareCapKeysDirty_ = true;
        structureDirty_ = true;
    }
}

std::size_t
NetworkSim::registeredGroupCount() const
{
    // Weighted groups, plus the table's groups (one run each) that
    // hold no weight.
    std::size_t count = 0;
    for (const GroupSlot &g : groups_)
        count += g.weight != 1.0 ? 1 : 0;
    for (std::size_t e = 0; e < shareCaps_.size(); ++e) {
        const FlowGroupId g = shareCaps_[e].group;
        if (e > 0 && shareCaps_[e - 1].group == g)
            continue;
        const std::size_t slot = findGroupSlot(g);
        if (slot == kNoGroupSlot || groups_[slot].weight == 1.0)
            ++count;
    }
    return count;
}

Mbps
NetworkSim::groupRate(FlowGroupId group)
{
    solveIfStale();
    Mbps total = 0.0;
    for (const Transfer &t : transfers_) {
        if (t.group == group)
            total += t.rate;
    }
    return total;
}

Bytes
NetworkSim::groupPendingBytes(FlowGroupId group) const
{
    Bytes total = 0.0;
    for (const Transfer &t : transfers_) {
        if (t.group == group && !t.measurement && !t.stopped)
            total += t.remaining;
    }
    return total;
}

std::size_t
NetworkSim::groupTransferCount(FlowGroupId group) const
{
    std::size_t count = 0;
    for (const Transfer &t : transfers_) {
        if (t.group == group && !t.stopped)
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
NetworkSim::refreshShareCaps()
{
    for (Transfer &t : transfers_)
        if (t.group != 0)
            t.shareCap = shareCapEntry(t.group, t.pair);
    shareCapKeysDirty_ = false;
}

void
NetworkSim::copyShareCaps()
{
    inputs_.shareCap.resize(shareCaps_.size());
    for (std::size_t e = 0; e < shareCaps_.size(); ++e)
        inputs_.shareCap[e] = shareCaps_[e].cap;
}

void
NetworkSim::resolveRates()
{
    if (stoppedCount_ > 0)
        dropStopped();
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

    if (structureDirty_) {
        if (shareCapKeysDirty_)
            refreshShareCaps();
        if (weightsDirty_)
            rebuildPairWeights();

        // Flows go to the solver in ascending id, the order that
        // numbers its resources. An unweighted group's slot holds
        // weight 1, and x * 1 == x, so every grouped flow takes its
        // slot's weight.
        specs_.resize(transfers_.size());
        for (std::size_t i = 0; i < transfers_.size(); ++i) {
            const Transfer &t = transfers_[i];
            FlowSpec &spec = specs_[i];
            spec.srcVm = t.srcVm;
            spec.dstVm = t.dstVm;
            spec.srcDc = t.srcDc;
            spec.dstDc = t.dstDc;
            spec.connections = t.connections;
            spec.weightPerConn = pairWeight_[t.pair];
            spec.capPerConn = connCapFlat_[t.pair];
            spec.shareCap = t.shareCap;
            if (t.groupSlot != kNoGroupSlot)
                spec.weightPerConn *= groups_[t.groupSlot].weight;
        }
        buildSolverStructure(specs_, inputs_, config_.solver,
                             solverScratch_);
        ++solveCounts_.structureBuilds;
    }

    const std::vector<FlowRate> &rates =
        fillRates(inputs_, config_.solver, solverScratch_);
    ++solveCounts_.solves;
    for (std::size_t i = 0; i < transfers_.size(); ++i) {
        transfers_[i].rate = rates[i].rate;
        transfers_[i].bottleneck = rates[i].bottleneck;
    }
    structureDirty_ = false;
    capacityDirty_ = false;
}

Seconds
NetworkSim::nextCompletionIn() const
{
    Seconds best = kInf;
    for (const Transfer &t : transfers_) {
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
    // Rates come from a resolve, which drops stopped transfers first.
    if (stoppedCount_ > 0)
        panic("progress: stopped transfers outlived the resolve");
    // One stable pass moves bytes and compacts finished transfers
    // away, recording their completions in ascending id.
    now_ += dt;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < transfers_.size(); ++i) {
        Transfer &t = transfers_[i];
        const Bytes moved = units::bytesAtRate(t.rate, dt);
        t.moved += moved;
        pairBytes_[t.pair] += moved;
        if (!t.measurement) {
            t.remaining -= moved;
            if (t.remaining <= kByteEps) {
                completions_.push_back({t.id, now_, t.group, t.moved});
                structureDirty_ = true;
                continue;
            }
        }
        if (kept != i)
            transfers_[kept] = t;
        ++kept;
    }
    transfers_.resize(kept);
}

void
NetworkSim::advanceBy(Seconds dt)
{
    if (dt < 0.0)
        fatal("advanceBy: negative dt");
    // Solve before time moves, never after it: what a trailing solve
    // found would be lost to the caller's next mutation unread.
    solveIfStale();
    Seconds remaining = dt;
    std::size_t guard = 0;
    while (remaining > 1.0e-12) {
        if (++guard > 100000000)
            panic("advanceBy: too many steps");
        solveIfStale();
        const Seconds toTick = nextTick_ - now_;
        const Seconds toCompletion = nextCompletionIn();
        const Seconds step =
            std::max(0.0, std::min({remaining, toTick, toCompletion}));
        if (step > 0.0)
            progress(step);
        remaining -= step;
        if (now_ >= nextTick_ - 1.0e-12) {
            fluctuation_.step(kTickInterval);
            vmFluctuation_.step(kTickInterval);
            nextTick_ += kTickInterval;
            capacityDirty_ = true;
        } else if (step == 0.0 && toCompletion == 0.0) {
            // A transfer was already complete; run a zero-length sweep
            // pass to collect it.
            progress(0.0);
            // Completions flip structureDirty_; loop continues.
            if (!structureDirty_)
                break; // defensive: nothing changed, avoid spinning
        }
    }
}

Seconds
NetworkSim::runUntilAllComplete(Seconds maxTime)
{
    std::size_t guard = 0;
    while (!allTransfersDone() && now_ < maxTime - 1.0e-9) {
        if (++guard > 100000000)
            panic("runUntilAllComplete: stuck");
        solveIfStale();
        const Seconds toCompletion = nextCompletionIn();
        // Advance to the earlier of the next completion, the next
        // tick (stalled transfers may unstall when fluctuation moves),
        // or the horizon. A sub-epsilon step cannot make progress —
        // stop instead of spinning.
        const Seconds step =
            std::min(toCompletion == kInf ? kTickInterval : toCompletion,
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
    for (const Transfer &t : transfers_) {
        if (!t.measurement && !t.stopped)
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
    const Transfer *t = findTransfer(id);
    if (t == nullptr)
        return st;
    st.exists = true;
    st.bytesMoved = t->moved;
    st.bytesRemaining = t->measurement ? kInf : t->remaining;
    st.connections = t->connections;
    return st;
}

Mbps
NetworkSim::transferRate(TransferId id)
{
    solveIfStale();
    const Transfer *t = findTransfer(id);
    return t != nullptr ? t->rate : 0.0;
}

Bottleneck
NetworkSim::transferBottleneck(TransferId id)
{
    solveIfStale();
    const Transfer *t = findTransfer(id);
    return t != nullptr ? t->bottleneck : Bottleneck::None;
}

Mbps
NetworkSim::pairRate(DcId src, DcId dst)
{
    solveIfStale();
    Mbps total = 0.0;
    for (const Transfer &t : transfers_) {
        if (t.srcDc == src && t.dstDc == dst)
            total += t.rate;
    }
    return total;
}

Bytes
NetworkSim::pairBytes(DcId src, DcId dst) const
{
    return pairBytes_[pairSlot(src, dst)];
}

Matrix<Mbps>
NetworkSim::pairRateMatrix()
{
    solveIfStale();
    const std::size_t n = topology_.dcCount();
    Matrix<Mbps> m = Matrix<Mbps>::square(n, 0.0);
    for (const Transfer &t : transfers_)
        m.at(t.srcDc, t.dstDc) += t.rate;
    return m;
}

Mbps
NetworkSim::effectivePathCap(DcId src, DcId dst) const
{
    const std::size_t pair = pairSlot(src, dst);
    if (src == dst)
        return basePathCap_[pair];
    return basePathCap_[pair] * fluctuation_.multipliers()[pair] *
           scenarioCap_[pair];
}

std::vector<TransferId>
NetworkSim::transfersBetween(DcId src, DcId dst) const
{
    std::vector<TransferId> ids;
    for (const Transfer &t : transfers_) {
        if (t.srcDc == src && t.dstDc == dst && !t.stopped)
            ids.push_back(t.id);
    }
    return ids;
}

Bytes
NetworkSim::pendingBytesBetween(DcId src, DcId dst) const
{
    Bytes total = 0.0;
    for (const Transfer &t : transfers_) {
        if (t.srcDc == src && t.dstDc == dst && !t.measurement &&
            !t.stopped)
            total += t.remaining;
    }
    return total;
}

} // namespace net
} // namespace wanify
