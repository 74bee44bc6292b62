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

void
buildSolverStructure(const std::vector<FlowSpec> &flows,
                     const SolverInputs &inputs, const SolverConfig &cfg,
                     SolverScratch &s)
{
    constexpr std::size_t kNoClip = SolverScratch::kNoClip;
    const std::size_t nf = flows.size();
    s.weight.resize(nf);
    if (nf == 0)
        return;

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

    // Resource ids follow first touch in flow order, and each touch
    // adds the flow's weight to the resource's sum in that same order:
    // ids break ties and sums round, so both shape the exact result.
    s.egressIdx.assign(nvm, -1);
    s.ingressIdx.assign(nvm, -1);
    s.nicIdx.assign(inputs.vmNicCap.size(), -1);
    s.pathIdx.assign(inputs.pathCap.size(), -1);
    s.tcIdx.assign(inputs.tcLimit.size(), -1);
    s.shareCapIdx.assign(inputs.shareCap.size(), -1);
    s.resourceKind.clear();
    s.resourceKey.clear();
    s.resourceWeight.clear();
    // Counts each resource's flows until the CSR pass below turns the
    // counts into row offsets.
    s.resourceFlowStart.clear();

    // Callers range-check @p key against @p map.
    auto touch = [&](std::vector<int> &map, std::size_t key,
                     Bottleneck kind, double w) -> int {
        int r = map[key];
        if (r < 0) {
            r = static_cast<int>(s.resourceKind.size());
            map[key] = r;
            s.resourceKind.push_back(kind);
            s.resourceKey.push_back(key);
            s.resourceWeight.push_back(0.0);
            s.resourceFlowStart.push_back(0);
        }
        s.resourceWeight[static_cast<std::size_t>(r)] += w;
        ++s.resourceFlowStart[static_cast<std::size_t>(r)];
        return r;
    };

    // Total connections terminating at each VM shrink its effective
    // capacities (memory buffers per connection; see SolverConfig).
    s.connsAtVm.assign(nvm, 0);
    s.selfCap.resize(nf);
    s.flowSrcVm.resize(nf);
    s.flowDstVm.resize(nf);
    s.flowTcLimit.resize(nf);
    s.flowShareCap.resize(nf);
    constexpr std::size_t kStride = SolverScratch::kMaxFlowResources;
    s.flowResources.resize(nf * kStride);
    s.flowResourceCount.assign(nf, 0);
    s.activeFlows = 0;

    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        if (spec.srcVm >= nvm || spec.dstVm >= nvm)
            panic("solveRates: VM id out of range");
        const int c = std::max(1, spec.connections);
        s.connsAtVm[spec.srcVm] += c;
        s.connsAtVm[spec.dstVm] += c;
        s.flowSrcVm[f] = spec.srcVm;
        s.flowDstVm[f] = spec.dstVm;
        s.selfCap[f] = bundleCap(c, spec.capPerConn, cfg);
        // A flow's desire starts from its own capability, clipped by
        // the tc limit and the share cap it is under while they are
        // positive.
        const std::size_t pair =
            spec.srcDc * inputs.dcCount + spec.dstDc;
        s.flowTcLimit[f] =
            pair < inputs.tcLimit.size() && inputs.tcLimit[pair] > 0.0
                ? pair
                : kNoClip;
        s.flowShareCap[f] = kNoClip;
        if (spec.shareCap != kNoShareCap) {
            if (spec.shareCap >= inputs.shareCap.size())
                panic("solveRates: share-cap index out of range");
            if (inputs.shareCap[spec.shareCap] > 0.0)
                s.flowShareCap[f] = spec.shareCap;
        }

        const double w = spec.weightPerConn * static_cast<double>(c);
        s.weight[f] = w;
        // A flow with no weight or capability gets no resources; the
        // fill rates it 0, bound by its own cap.
        if (w <= 0.0 || s.selfCap[f] <= cfg.epsilon)
            continue;
        ++s.activeFlows;

        int *fr = &s.flowResources[f * kStride];
        std::size_t n = 0;
        fr[n++] = touch(s.egressIdx, spec.srcVm, Bottleneck::SrcVm, w);
        fr[n++] = touch(s.ingressIdx, spec.dstVm, Bottleneck::DstVm, w);
        if (spec.srcVm < inputs.vmNicCap.size())
            fr[n++] =
                touch(s.nicIdx, spec.srcVm, Bottleneck::NicTotal, w);
        if (spec.dstVm < inputs.vmNicCap.size())
            fr[n++] =
                touch(s.nicIdx, spec.dstVm, Bottleneck::NicTotal, w);
        if (pair >= inputs.pathCap.size())
            panic("solveRates: pair index out of range");
        fr[n++] = touch(s.pathIdx, pair, Bottleneck::Path, w);
        if (s.flowTcLimit[f] != kNoClip)
            fr[n++] = touch(s.tcIdx, pair, Bottleneck::TcLimit, w);
        if (s.flowShareCap[f] != kNoClip)
            fr[n++] = touch(s.shareCapIdx, spec.shareCap,
                            Bottleneck::GroupShare, w);
        s.flowResourceCount[f] = static_cast<unsigned char>(n);
    }

    const std::size_t resourceCount = s.resourceKind.size();

    // Each resource's flows as one CSR row, in ascending flow order; a
    // flow crossing a resource twice (both NICs of one VM) is listed
    // twice, as it counts twice in the resource's sums. Rows fill
    // back to front from their end offsets, which leaves each offset
    // at its row's start.
    std::size_t listed = 0;
    for (std::size_t r = 0; r < resourceCount; ++r) {
        listed += s.resourceFlowStart[r];
        s.resourceFlowStart[r] = listed;
    }
    s.resourceFlowStart.push_back(listed);
    s.resourceFlows.resize(listed);
    for (std::size_t f = nf; f-- > 0;) {
        const int *fr = &s.flowResources[f * kStride];
        for (std::size_t k = s.flowResourceCount[f]; k-- > 0;)
            s.resourceFlows[--s.resourceFlowStart[static_cast<
                std::size_t>(fr[k])]] = static_cast<int>(f);
    }
}

const std::vector<FlowRate> &
fillRates(const SolverInputs &inputs, const SolverConfig &cfg,
          SolverScratch &s)
{
    constexpr std::size_t kNoClip = SolverScratch::kNoClip;
    const std::size_t nf = s.weight.size();
    s.rates.assign(nf, FlowRate{});
    if (nf == 0)
        return s.rates;

    // The build sized its key maps by the inputs it saw.
    const std::size_t nvm = s.connsAtVm.size();
    if (inputs.vmEgressCap.size() != nvm ||
        inputs.vmIngressCap.size() != nvm ||
        inputs.vmNicCap.size() != s.nicIdx.size() ||
        inputs.pathCap.size() != s.pathIdx.size() ||
        inputs.tcLimit.size() != s.tcIdx.size() ||
        inputs.shareCap.size() != s.shareCapIdx.size())
        panic("fillRates: solver inputs changed shape since the build");

    // --- Per-VM desire and capacity scale ----------------------------------
    // Aggregate desire (bundle capability clipped by tc limits and
    // share caps) crossing each VM, for the oversubscription-waste
    // term. A flow the build gave no resources rates 0.
    s.desireAtVm.assign(nvm, 0.0);
    s.active.resize(nf);
    for (std::size_t f = 0; f < nf; ++f) {
        Mbps desire = s.selfCap[f];
        const std::size_t tc = s.flowTcLimit[f];
        if (tc != kNoClip) {
            if (!(inputs.tcLimit[tc] > 0.0))
                panic("fillRates: a kept tc limit is no longer positive");
            desire = std::min(desire, inputs.tcLimit[tc]);
        }
        const std::size_t share = s.flowShareCap[f];
        if (share != kNoClip) {
            if (!(inputs.shareCap[share] > 0.0))
                panic("fillRates: a kept share cap is no longer positive");
            desire = std::min(desire, inputs.shareCap[share]);
        }
        s.desireAtVm[s.flowSrcVm[f]] += desire;
        s.desireAtVm[s.flowDstVm[f]] += desire;
        s.active[f] = s.flowResourceCount[f] != 0 ? 1 : 0;
        if (s.active[f] == 0)
            s.rates[f] = {0.0, Bottleneck::SelfCap};
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

    // --- Resource capacities and sums -------------------------------------
    const std::size_t resourceCount = s.resourceKind.size();
    s.resourceCap.resize(resourceCount);
    s.activeAtResource.resize(resourceCount);
    for (std::size_t r = 0; r < resourceCount; ++r) {
        const std::size_t key = s.resourceKey[r];
        Mbps cap = 0.0;
        switch (s.resourceKind[r]) {
        case Bottleneck::SrcVm:
            cap = inputs.vmEgressCap[key] * s.vmScale[key];
            break;
        case Bottleneck::DstVm:
            cap = inputs.vmIngressCap[key] * s.vmScale[key];
            break;
        case Bottleneck::NicTotal:
            cap = inputs.vmNicCap[key] * s.vmScale[key];
            break;
        case Bottleneck::Path:
            cap = inputs.pathCap[key];
            break;
        case Bottleneck::TcLimit:
            cap = inputs.tcLimit[key];
            break;
        case Bottleneck::GroupShare:
            cap = inputs.shareCap[key];
            break;
        case Bottleneck::None:
        case Bottleneck::SelfCap:
            panic("fillRates: a resource of no capacity kind");
        }
        s.resourceCap[r] = cap;
        s.activeAtResource[r] = static_cast<int>(
            s.resourceFlowStart[r + 1] - s.resourceFlowStart[r]);
    }
    s.wsum.assign(s.resourceWeight.begin(), s.resourceWeight.end());

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
    std::vector<FlowRate> &result = s.rates;
    std::size_t remaining = s.activeFlows;
    constexpr std::size_t kStride = SolverScratch::kMaxFlowResources;

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

std::vector<FlowRate>
solveRates(const std::vector<FlowSpec> &flows, const SolverInputs &inputs,
           const SolverConfig &cfg, SolverScratch *scratch)
{
    SolverScratch local;
    SolverScratch &s = scratch != nullptr ? *scratch : local;
    buildSolverStructure(flows, inputs, cfg, s);
    return fillRates(inputs, cfg, s);
}

} // namespace net
} // namespace wanify
