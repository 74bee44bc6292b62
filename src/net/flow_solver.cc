#include "net/flow_solver.hh"

#include <algorithm>

#include "common/error.hh"

namespace wanify {
namespace net {

namespace {

using Resource = SolverScratch::Resource;

/** Binary search the sorted sparse group-share caps for (group, pair);
 *  returns the entry index or -1. */
int
findGroupCap(const std::vector<SolverInputs::GroupShareCap> &caps,
             std::size_t group, std::size_t pair)
{
    auto it = std::lower_bound(
        caps.begin(), caps.end(),
        std::make_pair(group, pair),
        [](const SolverInputs::GroupShareCap &c,
           const std::pair<std::size_t, std::size_t> &key) {
            return c.group != key.first ? c.group < key.first
                                        : c.pair < key.second;
        });
    if (it == caps.end() || it->group != group || it->pair != pair)
        return -1;
    return static_cast<int>(it - caps.begin());
}

using FillEvent = SolverScratch::FillEvent;

/** The order in which fill events fire: ascending key, flow self-caps
 *  before resources on a tie, then ascending id. */
bool
firesBefore(const FillEvent &a, const FillEvent &b)
{
    if (a.key != b.key)
        return a.key < b.key;
    if (a.kind != b.kind)
        return a.kind < b.kind;
    return a.id < b.id;
}

/**
 * Indexed binary min-heap of resource events in firesBefore order.
 * @c pos maps each resource to its slot (-1 = absent), so a freeze
 * re-keys or removes its resources' entries in place.
 */
class SharedHeap
{
  public:
    SharedHeap(std::vector<FillEvent> &slots, std::vector<int> &pos)
        : slots_(slots), pos_(pos)
    {}

    bool empty() const { return slots_.empty(); }
    const FillEvent &top() const { return slots_.front(); }

    /** Order slots filled in any order. */
    void
    heapify()
    {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            pos_[slots_[i].id] = static_cast<int>(i);
        for (std::size_t i = slots_.size() / 2; i-- > 0;)
            siftDown(i);
    }

    void
    rekey(std::size_t r, double key)
    {
        const std::size_t i = static_cast<std::size_t>(pos_[r]);
        const bool up = key < slots_[i].key;
        slots_[i].key = key;
        if (up)
            siftUp(i);
        else
            siftDown(i);
    }

    void
    erase(std::size_t r)
    {
        const std::size_t i = static_cast<std::size_t>(pos_[r]);
        pos_[r] = -1;
        const FillEvent last = slots_.back();
        slots_.pop_back();
        if (i == slots_.size())
            return;
        place(i, last);
        siftUp(i);
        siftDown(static_cast<std::size_t>(pos_[last.id]));
    }

  private:
    void
    place(std::size_t i, const FillEvent &ev)
    {
        slots_[i] = ev;
        pos_[ev.id] = static_cast<int>(i);
    }

    void
    siftUp(std::size_t i)
    {
        const FillEvent ev = slots_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!firesBefore(ev, slots_[parent]))
                break;
            place(i, slots_[parent]);
            i = parent;
        }
        place(i, ev);
    }

    void
    siftDown(std::size_t i)
    {
        const FillEvent ev = slots_[i];
        const std::size_t n = slots_.size();
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                firesBefore(slots_[child + 1], slots_[child]))
                ++child;
            if (!firesBefore(slots_[child], ev))
                break;
            place(i, slots_[child]);
            i = child;
        }
        place(i, ev);
    }

    std::vector<FillEvent> &slots_;
    std::vector<int> &pos_;
};

} // namespace

Mbps
bundleCap(int connections, Mbps capPerConn, const SolverConfig &cfg)
{
    if (connections < 1)
        fatal("bundleCap: connections must be >= 1");
    const double excess =
        std::max(0, connections - cfg.connectionKnee);
    const double efficiency =
        1.0 / (1.0 + cfg.congestionAlpha * excess * excess);
    return static_cast<double>(connections) * capPerConn * efficiency;
}

std::vector<FlowRate>
solveRates(const std::vector<FlowSpec> &flows, const SolverInputs &inputs,
           const SolverConfig &cfg, SolverScratch *scratch)
{
    const std::size_t nf = flows.size();
    std::vector<FlowRate> result(nf);
    if (nf == 0)
        return result;

    // Checks here build their message only when they fire: the
    // panicIf/fatalIf helpers take a std::string, which would allocate
    // on every call of these per-flow loops.
    if (inputs.dcCount == 0)
        panic("solveRates: dcCount is zero");
    if (inputs.pathCap.size() != inputs.dcCount * inputs.dcCount)
        panic("solveRates: pathCap size mismatch");

    SolverScratch local;
    SolverScratch &s = scratch != nullptr ? *scratch : local;

    // --- Hoisted group-share lookups --------------------------------------
    // Each grouped flow's (group, pair) cap entry is needed twice (the
    // desire pass and the resource build); resolve the binary search
    // once per flow up front.
    s.groupCapOfFlow.assign(nf, -1);
    for (std::size_t f = 0; f < nf; ++f) {
        if (flows[f].group == kNoFlowGroup)
            continue;
        const std::size_t pair =
            flows[f].srcDc * inputs.dcCount + flows[f].dstDc;
        s.groupCapOfFlow[f] =
            findGroupCap(inputs.groupShareCap, flows[f].group, pair);
    }

    // --- Per-VM connection overhead --------------------------------------
    // Total connections terminating at each VM shrink its effective
    // capacities (memory buffers per connection; see SolverConfig).
    s.connsAtVm.assign(inputs.vmEgressCap.size(), 0);
    // Aggregate desire (bundle capability clipped by tc limits)
    // crossing each VM, for the oversubscription-waste term.
    s.desireAtVm.assign(inputs.vmEgressCap.size(), 0.0);
    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        const int c = std::max(1, spec.connections);
        Mbps desire = bundleCap(c, spec.capPerConn, cfg);
        const std::size_t pair =
            spec.srcDc * inputs.dcCount + spec.dstDc;
        if (pair < inputs.tcLimit.size() &&
            inputs.tcLimit[pair] > 0.0)
            desire = std::min(desire, inputs.tcLimit[pair]);
        const int gc = s.groupCapOfFlow[f];
        if (gc >= 0 &&
            inputs.groupShareCap[static_cast<std::size_t>(gc)].cap >
                0.0)
            desire = std::min(
                desire,
                inputs.groupShareCap[static_cast<std::size_t>(gc)]
                    .cap);
        if (spec.srcVm < s.connsAtVm.size()) {
            s.connsAtVm[spec.srcVm] += c;
            s.desireAtVm[spec.srcVm] += desire;
        }
        if (spec.dstVm < s.connsAtVm.size()) {
            s.connsAtVm[spec.dstVm] += c;
            s.desireAtVm[spec.dstVm] += desire;
        }
    }
    auto vmPenalty = [&](std::size_t vm) {
        const int excess =
            std::max(0, s.connsAtVm[vm] - cfg.vmConnKnee);
        double penalty = 1.0 + cfg.vmConnAlpha *
                                   static_cast<double>(excess);
        // Oversubscription waste against the VM's NIC capacity.
        const Mbps nic = vm < inputs.vmNicCap.size()
                             ? inputs.vmNicCap[vm]
                             : 0.0;
        if (nic > 0.0 && s.desireAtVm[vm] > nic) {
            penalty *= 1.0 + cfg.oversubAlpha *
                                 (s.desireAtVm[vm] / nic - 1.0);
        }
        return 1.0 / penalty;
    };

    // --- Build resources ------------------------------------------------
    // Resource records are pooled: entries up to resourceCount are
    // live this call, later entries are capacity kept from prior
    // calls (their flows vectors keep their heap buffers).
    std::vector<Resource> &resources = s.resources;
    std::size_t resourceCount = 0;
    // Dense maps from (vm or pair) to resource index; -1 = not created.
    s.egressIdx.assign(inputs.vmEgressCap.size(), -1);
    s.ingressIdx.assign(inputs.vmIngressCap.size(), -1);
    s.nicIdx.assign(inputs.vmNicCap.size(), -1);
    s.pathIdx.assign(inputs.pathCap.size(), -1);
    s.tcIdx.assign(inputs.tcLimit.size(), -1);
    s.groupCapIdx.assign(inputs.groupShareCap.size(), -1);

    auto getResource = [&](std::vector<int> &map, std::size_t key,
                           Mbps cap, Bottleneck kind) -> int {
        if (key >= map.size())
            panic("solveRates: resource key out of range");
        if (map[key] < 0) {
            map[key] = static_cast<int>(resourceCount);
            if (resourceCount == resources.size())
                resources.emplace_back();
            Resource &res = resources[resourceCount];
            res.cap = cap;
            res.used = 0.0;
            res.kind = kind;
            res.flows.clear();
            ++resourceCount;
        }
        return map[key];
    };

    // Per-flow bookkeeping.
    s.weight.assign(nf, 0.0);
    s.selfCap.assign(nf, 0.0);
    if (s.flowResources.size() < nf)
        s.flowResources.resize(nf);
    for (std::size_t f = 0; f < nf; ++f)
        s.flowResources[f].clear();
    s.active.assign(nf, 0);

    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        if (spec.srcVm >= inputs.vmEgressCap.size() ||
            spec.dstVm >= inputs.vmIngressCap.size())
            panic("solveRates: VM id out of range");
        s.weight[f] = spec.weightPerConn *
                      static_cast<double>(std::max(1, spec.connections));
        s.selfCap[f] = bundleCap(std::max(1, spec.connections),
                                 spec.capPerConn, cfg);
        if (s.weight[f] <= 0.0 || s.selfCap[f] <= cfg.epsilon) {
            result[f] = {0.0, Bottleneck::SelfCap};
            continue;
        }
        s.active[f] = 1;

        auto &fr = s.flowResources[f];
        fr.push_back(getResource(
            s.egressIdx, spec.srcVm,
            inputs.vmEgressCap[spec.srcVm] * vmPenalty(spec.srcVm),
            Bottleneck::SrcVm));
        fr.push_back(getResource(
            s.ingressIdx, spec.dstVm,
            inputs.vmIngressCap[spec.dstVm] * vmPenalty(spec.dstVm),
            Bottleneck::DstVm));
        if (spec.srcVm < inputs.vmNicCap.size()) {
            fr.push_back(getResource(
                s.nicIdx, spec.srcVm,
                inputs.vmNicCap[spec.srcVm] * vmPenalty(spec.srcVm),
                Bottleneck::NicTotal));
        }
        if (spec.dstVm < inputs.vmNicCap.size()) {
            fr.push_back(getResource(
                s.nicIdx, spec.dstVm,
                inputs.vmNicCap[spec.dstVm] * vmPenalty(spec.dstVm),
                Bottleneck::NicTotal));
        }

        const std::size_t pair =
            spec.srcDc * inputs.dcCount + spec.dstDc;
        if (pair >= inputs.pathCap.size())
            panic("solveRates: pair index out of range");
        fr.push_back(getResource(s.pathIdx, pair, inputs.pathCap[pair],
                                 Bottleneck::Path));
        if (pair < inputs.tcLimit.size() && inputs.tcLimit[pair] > 0.0) {
            fr.push_back(getResource(s.tcIdx, pair,
                                     inputs.tcLimit[pair],
                                     Bottleneck::TcLimit));
        }
        const int gc = s.groupCapOfFlow[f];
        if (gc >= 0) {
            const auto &entry =
                inputs.groupShareCap[static_cast<std::size_t>(gc)];
            if (entry.cap > 0.0) {
                fr.push_back(getResource(
                    s.groupCapIdx, static_cast<std::size_t>(gc),
                    entry.cap, Bottleneck::GroupShare));
            }
        }
        for (int r : fr)
            resources[static_cast<std::size_t>(r)].flows.push_back(f);
    }

    // --- Weighted progressive filling ------------------------------------
    // All active flows grow their rate proportionally to their weight
    // until either their own capability or a shared resource saturates;
    // saturated flows freeze and the rest continue.
    //
    // The fill is event-driven. With every active flow growing as
    // rate_f = weight_f * theta for a single global fill level theta,
    // each flow's self-cap event sits at the constant key
    // selfCap_f / weight_f, and each resource's saturation key
    // (cap_r - frozenUsed_r) / wsum_r only moves when one of its
    // flows freezes. Events fire in firesBefore order (key, then
    // flows before resources, then ascending id) from two sources:
    //
    //  - static events, whose key holds until their flow freezes: each
    //    flow's self cap, and each resource left with exactly one
    //    active flow after the zero-capacity pre-freeze. Only a flow's
    //    earliest static event can fire, so one per flow is kept and
    //    the list is sorted once;
    //  - shared resources (two or more active flows) in an indexed
    //    min-heap, re-keyed in place when a member flow freezes and
    //    removed when the last one does.
    //
    // The next event is the earlier of the two heads. That is the
    // order in which a lazy heap pushing a fresh event per re-key
    // pops its valid entries (tests/oracles/water_fill.hh), so freeze
    // order and every float operation match it bit for bit, without
    // its stale pushes and pops.
    std::size_t remaining = 0;
    for (std::size_t f = 0; f < nf; ++f)
        remaining += s.active[f] != 0 ? 1 : 0;

    s.frozenUsed.assign(resourceCount, 0.0);
    s.wsum.assign(resourceCount, 0.0);
    s.activeAtResource.assign(resourceCount, 0);
    s.heapPos.assign(resourceCount, -1);
    for (std::size_t f = 0; f < nf; ++f) {
        if (s.active[f] == 0)
            continue;
        for (int r : s.flowResources[f]) {
            s.wsum[static_cast<std::size_t>(r)] += s.weight[f];
            ++s.activeAtResource[static_cast<std::size_t>(r)];
        }
    }

    auto saturationKey = [&](std::size_t r) {
        const double slack =
            std::max(resources[r].cap - s.frozenUsed[r], 0.0);
        return slack / s.wsum[r];
    };

    SharedHeap shared(s.sharedHeap, s.heapPos);
    auto freezeFlow = [&](std::size_t f, Mbps rate, Bottleneck why) {
        if (s.active[f] == 0)
            return;
        s.active[f] = 0;
        result[f].rate = rate;
        result[f].bottleneck = why;
        --remaining;
        for (int ri : s.flowResources[f]) {
            const std::size_t r = static_cast<std::size_t>(ri);
            s.frozenUsed[r] += rate;
            s.wsum[r] -= s.weight[f];
            --s.activeAtResource[r];
            // Only heap entries move; a static resource dies with its
            // flow, and the pre-freeze runs before the heap exists.
            if (s.heapPos[r] < 0)
                continue;
            if (s.activeAtResource[r] == 0)
                shared.erase(r);
            else
                shared.rekey(r, saturationKey(r));
        }
    };

    // Pre-freeze flows crossing a zero-capacity resource.
    for (std::size_t r = 0; r < resourceCount; ++r) {
        if (resources[r].cap <= cfg.epsilon) {
            for (std::size_t f : resources[r].flows)
                freezeFlow(f, 0.0, resources[r].kind);
        }
    }

    auto &events = s.staticEvents;
    events.clear();
    for (std::size_t f = 0; f < nf; ++f) {
        if (s.active[f] == 0)
            continue;
        FillEvent first{s.selfCap[f] / s.weight[f], 0, f, f};
        for (int ri : s.flowResources[f]) {
            const std::size_t r = static_cast<std::size_t>(ri);
            if (s.activeAtResource[r] != 1)
                continue;
            const FillEvent ev{saturationKey(r), 1, r, f};
            if (firesBefore(ev, first))
                first = ev;
        }
        events.push_back(first);
    }
    // A lambda rather than &firesBefore, so the comparison inlines.
    std::sort(events.begin(), events.end(),
              [](const FillEvent &a, const FillEvent &b) {
                  return firesBefore(a, b);
              });

    s.sharedHeap.clear();
    for (std::size_t r = 0; r < resourceCount; ++r)
        if (s.activeAtResource[r] >= 2)
            s.sharedHeap.push_back({saturationKey(r), 1, r, 0});
    shared.heapify();

    std::size_t next = 0;
    std::size_t guard = 0;
    const std::size_t maxEvents = 8 * (nf + resourceCount) + 64;
    while (remaining > 0 && (next < events.size() || !shared.empty())) {
        if (++guard > maxEvents)
            panic("solveRates: progressive filling did not converge");
        if (next < events.size() &&
            (shared.empty() || firesBefore(events[next], shared.top()))) {
            const FillEvent &ev = events[next++];
            if (ev.kind == 0)
                freezeFlow(ev.flow, s.selfCap[ev.flow],
                           Bottleneck::SelfCap);
            else
                freezeFlow(ev.flow, s.weight[ev.flow] * ev.key,
                           resources[ev.id].kind);
            continue;
        }
        // A shared resource saturates: every flow still on it freezes.
        const std::size_t r = shared.top().id;
        const double theta = shared.top().key;
        shared.erase(r);
        for (std::size_t f : resources[r].flows)
            if (s.active[f] != 0)
                freezeFlow(f, s.weight[f] * theta,
                           resources[r].kind);
    }

    return result;
}

} // namespace net
} // namespace wanify
