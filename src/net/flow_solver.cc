#include "net/flow_solver.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/error.hh"

namespace wanify {
namespace net {

namespace {

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
 * An order-preserving integer image of a fill key: for keys that are
 * not NaN, orderBits(a) < orderBits(b) exactly when a < b. -0 maps
 * with +0, which firesBefore treats as the same key.
 */
std::uint64_t
orderBits(double key)
{
    if (key == 0.0)
        key = 0.0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &key, sizeof bits);
    return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/** firesBefore over orderBits: the same order for keys that are not
 *  NaN, and a strict weak order for any key, as std::sort needs. */
bool
staticBefore(const FillEvent &a, const FillEvent &b)
{
    const std::uint64_t ka = orderBits(a.key);
    const std::uint64_t kb = orderBits(b.key);
    if (ka != kb)
        return ka < kb;
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
    double key(std::size_t r) const
    {
        return slots_[static_cast<std::size_t>(pos_[r])].key;
    }

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
    if (inputs.vmIngressCap.size() != inputs.vmEgressCap.size())
        panic("solveRates: vmEgressCap and vmIngressCap sizes differ");
    const std::size_t nvm = inputs.vmEgressCap.size();

    SolverScratch local;
    SolverScratch &s = scratch != nullptr ? *scratch : local;

    // --- Per-VM connection overhead --------------------------------------
    // Total connections terminating at each VM shrink its effective
    // capacities (memory buffers per connection; see SolverConfig).
    s.connsAtVm.assign(nvm, 0);
    // Aggregate desire (bundle capability clipped by tc limits)
    // crossing each VM, for the oversubscription-waste term.
    s.desireAtVm.assign(nvm, 0.0);
    // A flow's desire starts from its own capability, kept for the fill.
    s.selfCap.resize(nf);
    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        const int c = std::max(1, spec.connections);
        s.selfCap[f] = bundleCap(c, spec.capPerConn, cfg);
        Mbps desire = s.selfCap[f];
        const std::size_t pair =
            spec.srcDc * inputs.dcCount + spec.dstDc;
        if (pair < inputs.tcLimit.size() &&
            inputs.tcLimit[pair] > 0.0)
            desire = std::min(desire, inputs.tcLimit[pair]);
        if (spec.shareCap != kNoShareCap) {
            if (spec.shareCap >= inputs.shareCap.size())
                panic("solveRates: share-cap index out of range");
            if (inputs.shareCap[spec.shareCap] > 0.0)
                desire = std::min(desire, inputs.shareCap[spec.shareCap]);
        }
        if (spec.srcVm < nvm) {
            s.connsAtVm[spec.srcVm] += c;
            s.desireAtVm[spec.srcVm] += desire;
        }
        if (spec.dstVm < nvm) {
            s.connsAtVm[spec.dstVm] += c;
            s.desireAtVm[spec.dstVm] += desire;
        }
    }
    // One scale per VM for its egress, ingress and NIC capacities.
    s.vmScale.resize(nvm);
    for (std::size_t vm = 0; vm < nvm; ++vm) {
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
        s.vmScale[vm] = 1.0 / penalty;
    }

    // --- Build resources ------------------------------------------------
    // Resource ids follow first touch in flow order, and each touch
    // adds the flow's weight to the resource's sum in that same order:
    // ids break ties and sums round, so both shape the exact result.
    s.egressIdx.assign(nvm, -1);
    s.ingressIdx.assign(nvm, -1);
    s.nicIdx.assign(inputs.vmNicCap.size(), -1);
    s.pathIdx.assign(inputs.pathCap.size(), -1);
    s.tcIdx.assign(inputs.tcLimit.size(), -1);
    s.shareCapIdx.assign(inputs.shareCap.size(), -1);
    s.resourceCap.clear();
    s.resourceKind.clear();
    s.wsum.clear();
    s.activeAtResource.clear();

    // Callers range-check @p key against @p map.
    auto touch = [&](std::vector<int> &map, std::size_t key, Mbps cap,
                     Bottleneck kind, double w) -> int {
        int r = map[key];
        if (r < 0) {
            r = static_cast<int>(s.resourceCap.size());
            map[key] = r;
            s.resourceCap.push_back(cap);
            s.resourceKind.push_back(kind);
            s.wsum.push_back(0.0);
            s.activeAtResource.push_back(0);
        }
        s.wsum[static_cast<std::size_t>(r)] += w;
        ++s.activeAtResource[static_cast<std::size_t>(r)];
        return r;
    };

    constexpr std::size_t kStride = SolverScratch::kMaxFlowResources;
    s.weight.resize(nf);
    s.active.assign(nf, 0);
    s.flowResources.resize(nf * kStride);
    s.flowResourceCount.assign(nf, 0);

    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        if (spec.srcVm >= nvm || spec.dstVm >= nvm)
            panic("solveRates: VM id out of range");
        const double w = spec.weightPerConn *
                         static_cast<double>(std::max(1, spec.connections));
        s.weight[f] = w;
        if (w <= 0.0 || s.selfCap[f] <= cfg.epsilon) {
            result[f] = {0.0, Bottleneck::SelfCap};
            continue;
        }
        s.active[f] = 1;

        int *fr = &s.flowResources[f * kStride];
        std::size_t n = 0;
        fr[n++] = touch(s.egressIdx, spec.srcVm,
                        inputs.vmEgressCap[spec.srcVm] *
                            s.vmScale[spec.srcVm],
                        Bottleneck::SrcVm, w);
        fr[n++] = touch(s.ingressIdx, spec.dstVm,
                        inputs.vmIngressCap[spec.dstVm] *
                            s.vmScale[spec.dstVm],
                        Bottleneck::DstVm, w);
        if (spec.srcVm < inputs.vmNicCap.size()) {
            fr[n++] = touch(s.nicIdx, spec.srcVm,
                            inputs.vmNicCap[spec.srcVm] *
                                s.vmScale[spec.srcVm],
                            Bottleneck::NicTotal, w);
        }
        if (spec.dstVm < inputs.vmNicCap.size()) {
            fr[n++] = touch(s.nicIdx, spec.dstVm,
                            inputs.vmNicCap[spec.dstVm] *
                                s.vmScale[spec.dstVm],
                            Bottleneck::NicTotal, w);
        }

        const std::size_t pair =
            spec.srcDc * inputs.dcCount + spec.dstDc;
        if (pair >= inputs.pathCap.size())
            panic("solveRates: pair index out of range");
        fr[n++] = touch(s.pathIdx, pair, inputs.pathCap[pair],
                        Bottleneck::Path, w);
        if (pair < inputs.tcLimit.size() && inputs.tcLimit[pair] > 0.0) {
            fr[n++] = touch(s.tcIdx, pair, inputs.tcLimit[pair],
                            Bottleneck::TcLimit, w);
        }
        // The desire pass range-checked the share-cap index.
        if (spec.shareCap != kNoShareCap &&
            inputs.shareCap[spec.shareCap] > 0.0) {
            fr[n++] = touch(s.shareCapIdx, spec.shareCap,
                            inputs.shareCap[spec.shareCap],
                            Bottleneck::GroupShare, w);
        }
        s.flowResourceCount[f] = static_cast<unsigned char>(n);
    }

    const std::size_t resourceCount = s.resourceCap.size();

    // Each resource's flows as one CSR row, in ascending flow order; a
    // flow crossing a resource twice (both NICs of one VM) is listed
    // twice, as it counts twice in the resource's sums. Rows fill
    // back to front from their end offsets, which leaves each offset
    // at its row's start.
    s.resourceFlowStart.resize(resourceCount + 1);
    std::size_t listed = 0;
    for (std::size_t r = 0; r < resourceCount; ++r) {
        listed += static_cast<std::size_t>(s.activeAtResource[r]);
        s.resourceFlowStart[r] = listed;
    }
    s.resourceFlowStart[resourceCount] = listed;
    s.resourceFlows.resize(listed);
    for (std::size_t f = nf; f-- > 0;) {
        const int *fr = &s.flowResources[f * kStride];
        for (std::size_t k = s.flowResourceCount[f]; k-- > 0;)
            s.resourceFlows[--s.resourceFlowStart[static_cast<
                std::size_t>(fr[k])]] = static_cast<int>(f);
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
    //    earliest static event can fire, so one per flow is kept.
    //    They are spread over key buckets by orderBits in one counting
    //    pass, and a bucket is sorted only when the fill reaches it,
    //    dropping the events of flows frozen by then;
    //  - shared resources (two or more active flows) in an indexed
    //    min-heap. A freeze marks the heap resources it touches; before
    //    the heads are next compared, each marked resource is re-keyed
    //    once from its current sums, or removed with its last flow.
    //    A key that rose (the exact-arithmetic case) is only flagged,
    //    and re-keyed if it reaches the top.
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
    s.heapPos.assign(resourceCount, -1);
    s.rekeyPending.assign(resourceCount, 0);
    s.keyRaised.assign(resourceCount, 0);
    s.rekeyList.clear();

    auto saturationKey = [&](std::size_t r) {
        const double slack =
            std::max(s.resourceCap[r] - s.frozenUsed[r], 0.0);
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
        const int *fr = &s.flowResources[f * kStride];
        for (std::size_t k = 0; k < s.flowResourceCount[f]; ++k) {
            const std::size_t r = static_cast<std::size_t>(fr[k]);
            s.frozenUsed[r] += rate;
            s.wsum[r] -= s.weight[f];
            --s.activeAtResource[r];
            // Only heap entries move; a static resource dies with its
            // flow, and the pre-freeze runs before the heap exists.
            if (s.heapPos[r] >= 0 && s.rekeyPending[r] == 0) {
                s.rekeyPending[r] = 1;
                s.rekeyList.push_back(static_cast<int>(r));
            }
        }
    };
    // The heap minimum is unique under firesBefore, so re-keying once
    // from the final sums pops what re-keying per freeze would. An
    // entry whose key rose may keep its old, smaller key until it
    // reaches the top: every entry then sits at or below its true key,
    // so a top holding its true key is the true minimum. Most re-keys
    // raise the key, and few entries reach the top again (a 64-DC
    // drain marks about 4,200 resources per call and pops about 70):
    // sifting every raised key down at once made mesh-cascade-64dc
    // 12% slower in wall time over 20 paired runs on a 4-vCPU VM.
    auto rekeyMarked = [&] {
        for (int ri : s.rekeyList) {
            const std::size_t r = static_cast<std::size_t>(ri);
            s.rekeyPending[r] = 0;
            if (s.activeAtResource[r] == 0) {
                s.keyRaised[r] = 0;
                shared.erase(r);
                continue;
            }
            const double key = saturationKey(r);
            const bool fell = key < shared.key(r);
            s.keyRaised[r] = !fell && key != shared.key(r);
            if (fell)
                shared.rekey(r, key);
        }
        s.rekeyList.clear();
        while (!shared.empty() && s.keyRaised[shared.top().id] != 0) {
            const std::size_t r = shared.top().id;
            s.keyRaised[r] = 0;
            shared.rekey(r, saturationKey(r));
        }
    };
    // Pre-freeze flows crossing a zero-capacity resource.
    for (std::size_t r = 0; r < resourceCount; ++r) {
        if (s.resourceCap[r] > cfg.epsilon)
            continue;
        for (std::size_t i = s.resourceFlowStart[r];
             i < s.resourceFlowStart[r + 1]; ++i)
            freezeFlow(static_cast<std::size_t>(s.resourceFlows[i]), 0.0,
                       s.resourceKind[r]);
    }

    // The bucketing below needs at least one static event.
    if (remaining == 0)
        return result;

    std::uint64_t lowest = ~std::uint64_t{0};
    std::uint64_t highest = 0;
    auto &events = s.staticEvents;
    events.clear();
    for (std::size_t f = 0; f < nf; ++f) {
        if (s.active[f] == 0)
            continue;
        FillEvent first{s.selfCap[f] / s.weight[f], 0, f, f};
        const int *fr = &s.flowResources[f * kStride];
        for (std::size_t k = 0; k < s.flowResourceCount[f]; ++k) {
            const std::size_t r = static_cast<std::size_t>(fr[k]);
            if (s.activeAtResource[r] != 1)
                continue;
            const FillEvent ev{saturationKey(r), 1, r, f};
            if (firesBefore(ev, first))
                first = ev;
        }
        events.push_back(first);
        const std::uint64_t bits = orderBits(first.key);
        lowest = std::min(lowest, bits);
        highest = std::max(highest, bits);
    }

    // Static events in key buckets: bucket b holds the events whose
    // orderBits lie in [lowest + b * 2^shift, lowest + (b+1) * 2^shift),
    // at most one bucket per event.
    const std::uint64_t span = highest - lowest;
    unsigned shift = 0;
    while ((span >> shift) >= events.size())
        ++shift;
    const std::size_t buckets = static_cast<std::size_t>(span >> shift) + 1;
    auto bucketOf = [&](const FillEvent &ev) {
        return static_cast<std::size_t>((orderBits(ev.key) - lowest) >>
                                        shift);
    };
    std::vector<std::size_t> &bucketStart = s.bucketStart;
    bucketStart.assign(buckets + 1, 0);
    for (const FillEvent &ev : events)
        ++bucketStart[bucketOf(ev)];
    for (std::size_t b = 1; b < buckets; ++b)
        bucketStart[b] += bucketStart[b - 1];
    bucketStart[buckets] = events.size();
    // Scatter back to front, leaving each entry at its bucket's start.
    s.bucketedEvents.resize(events.size());
    for (std::size_t i = events.size(); i-- > 0;)
        s.bucketedEvents[--bucketStart[bucketOf(events[i])]] = events[i];
    FillEvent *ordered = s.bucketedEvents.data();

    // The static head: the earliest event of a flow still active.
    std::size_t next = 0;
    std::size_t end = 0;
    std::size_t bucket = 0;
    auto staticHead = [&]() -> bool {
        for (;;) {
            for (; next < end; ++next)
                if (s.active[ordered[next].flow] != 0)
                    return true;
            while (bucket < buckets &&
                   bucketStart[bucket] == bucketStart[bucket + 1])
                ++bucket;
            if (bucket == buckets)
                return false;
            // Dropping the events of frozen flows before the sort,
            // not skipping them after it, made mesh-cascade-64dc 6%
            // faster in wall time over 20 paired runs on a 4-vCPU VM.
            FillEvent *first = ordered + bucketStart[bucket];
            FillEvent *last = std::remove_if(
                first, ordered + bucketStart[bucket + 1],
                [&](const FillEvent &ev) {
                    return s.active[ev.flow] == 0;
                });
            // A lambda rather than &staticBefore, so the comparison
            // inlines.
            std::sort(first, last,
                      [](const FillEvent &a, const FillEvent &b) {
                          return staticBefore(a, b);
                      });
            next = static_cast<std::size_t>(first - ordered);
            end = static_cast<std::size_t>(last - ordered);
            ++bucket;
        }
    };

    s.sharedHeap.clear();
    for (std::size_t r = 0; r < resourceCount; ++r)
        if (s.activeAtResource[r] >= 2)
            s.sharedHeap.push_back({saturationKey(r), 1, r, 0});
    shared.heapify();

    std::size_t guard = 0;
    const std::size_t maxEvents = 8 * (nf + resourceCount) + 64;
    while (remaining > 0) {
        if (++guard > maxEvents)
            panic("solveRates: progressive filling did not converge");
        rekeyMarked();
        const bool haveStatic = staticHead();
        if (!haveStatic && shared.empty())
            break;
        if (haveStatic &&
            (shared.empty() || firesBefore(ordered[next], shared.top()))) {
            const FillEvent &ev = ordered[next++];
            if (ev.kind == 0)
                freezeFlow(ev.flow, s.selfCap[ev.flow],
                           Bottleneck::SelfCap);
            else
                freezeFlow(ev.flow, s.weight[ev.flow] * ev.key,
                           s.resourceKind[ev.id]);
            continue;
        }
        // A shared resource saturates: every flow still on it freezes.
        const std::size_t r = shared.top().id;
        const double theta = shared.top().key;
        shared.erase(r);
        for (std::size_t i = s.resourceFlowStart[r];
             i < s.resourceFlowStart[r + 1]; ++i) {
            const std::size_t f =
                static_cast<std::size_t>(s.resourceFlows[i]);
            if (s.active[f] != 0)
                freezeFlow(f, s.weight[f] * theta, s.resourceKind[r]);
        }
    }

    return result;
}

} // namespace net
} // namespace wanify
