/**
 * @file
 * Differential oracle for net::solveRates: the lazy min-heap
 * water-fill the library used before its static-event / indexed-heap
 * fill, kept verbatim so tests can hold the two bit-identical.
 *
 * The fill pushes a fresh event for every resource of every frozen
 * flow and discards stale entries on pop, comparing each popped
 * resource key against the resource's current saturation key. Its
 * valid pops come out in (key, kind, id) order, which is the order
 * the library's fill must reproduce exactly.
 *
 * Header-only because CMake builds each tests/<name>.cc as its own
 * suite, so a shared oracle cannot live in a separate source file.
 */

#ifndef WANIFY_TESTS_ORACLES_WATER_FILL_HH
#define WANIFY_TESTS_ORACLES_WATER_FILL_HH

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.hh"
#include "net/flow_solver.hh"

namespace wanify {
namespace oracle {

/** The lazy-heap fill's per-call workspace. */
struct LazyHeapScratch
{
    struct Resource
    {
        Mbps cap = 0.0;
        Mbps used = 0.0;
        net::Bottleneck kind = net::Bottleneck::None;
        std::vector<std::size_t> flows;
    };

    struct FillEvent
    {
        double key = 0.0;    ///< fill level theta of the event
        int kind = 0;        ///< 0 = flow self-cap, 1 = resource
        std::size_t id = 0;  ///< flow or resource index
    };

    std::vector<int> connsAtVm;
    std::vector<Mbps> desireAtVm;
    std::vector<Resource> resources;
    std::vector<int> egressIdx;
    std::vector<int> ingressIdx;
    std::vector<int> nicIdx;
    std::vector<int> pathIdx;
    std::vector<int> tcIdx;
    std::vector<int> groupCapIdx;
    std::vector<int> groupCapOfFlow;
    std::vector<double> weight;
    std::vector<Mbps> selfCap;
    std::vector<std::vector<int>> flowResources;
    std::vector<char> active;
    std::vector<double> wsum;
    std::vector<double> frozenUsed;
    std::vector<int> activeAtResource;
    std::vector<double> satKey;
    std::vector<FillEvent> heap;
};

/** net::solveRates with the lazy min-heap fill. */
inline std::vector<net::FlowRate>
solveRatesLazyHeap(const std::vector<net::FlowSpec> &flows,
                   const net::SolverInputs &inputs,
                   const net::SolverConfig &cfg = {})
{
    using net::Bottleneck;
    using net::FlowSpec;
    using net::kNoShareCap;
    using Resource = LazyHeapScratch::Resource;
    constexpr double kInf = std::numeric_limits<double>::infinity();

    const std::size_t nf = flows.size();
    std::vector<net::FlowRate> result(nf);
    if (nf == 0)
        return result;

    panicIf(inputs.dcCount == 0, "solveRates: dcCount is zero");
    panicIf(inputs.pathCap.size() != inputs.dcCount * inputs.dcCount,
            "solveRates: pathCap size mismatch");

    LazyHeapScratch s;

    s.groupCapOfFlow.assign(nf, -1);
    for (std::size_t f = 0; f < nf; ++f) {
        if (flows[f].shareCap == kNoShareCap)
            continue;
        panicIf(flows[f].shareCap >= inputs.shareCap.size(),
                "solveRates: share-cap index out of range");
        s.groupCapOfFlow[f] = static_cast<int>(flows[f].shareCap);
    }

    s.connsAtVm.assign(inputs.vmEgressCap.size(), 0);
    s.desireAtVm.assign(inputs.vmEgressCap.size(), 0.0);
    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        const int c = std::max(1, spec.connections);
        Mbps desire = net::bundleCap(c, spec.capPerConn, cfg);
        const std::size_t pair =
            spec.srcDc * inputs.dcCount + spec.dstDc;
        if (pair < inputs.tcLimit.size() &&
            inputs.tcLimit[pair] > 0.0)
            desire = std::min(desire, inputs.tcLimit[pair]);
        const int gc = s.groupCapOfFlow[f];
        if (gc >= 0 && inputs.shareCap[static_cast<std::size_t>(gc)] > 0.0)
            desire = std::min(
                desire, inputs.shareCap[static_cast<std::size_t>(gc)]);
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
        const Mbps nic = vm < inputs.vmNicCap.size()
                             ? inputs.vmNicCap[vm]
                             : 0.0;
        if (nic > 0.0 && s.desireAtVm[vm] > nic) {
            penalty *= 1.0 + cfg.oversubAlpha *
                                 (s.desireAtVm[vm] / nic - 1.0);
        }
        return 1.0 / penalty;
    };

    std::vector<Resource> &resources = s.resources;
    std::size_t resourceCount = 0;
    s.egressIdx.assign(inputs.vmEgressCap.size(), -1);
    s.ingressIdx.assign(inputs.vmIngressCap.size(), -1);
    s.nicIdx.assign(inputs.vmNicCap.size(), -1);
    s.pathIdx.assign(inputs.pathCap.size(), -1);
    s.tcIdx.assign(inputs.tcLimit.size(), -1);
    s.groupCapIdx.assign(inputs.shareCap.size(), -1);

    auto getResource = [&](std::vector<int> &map, std::size_t key,
                           Mbps cap, Bottleneck kind) -> int {
        panicIf(key >= map.size(), "solveRates: resource key out of range");
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

    s.weight.assign(nf, 0.0);
    s.selfCap.assign(nf, 0.0);
    if (s.flowResources.size() < nf)
        s.flowResources.resize(nf);
    for (std::size_t f = 0; f < nf; ++f)
        s.flowResources[f].clear();
    s.active.assign(nf, 0);

    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        panicIf(spec.srcVm >= inputs.vmEgressCap.size() ||
                    spec.dstVm >= inputs.vmIngressCap.size(),
                "solveRates: VM id out of range");
        s.weight[f] = spec.weightPerConn *
                      static_cast<double>(std::max(1, spec.connections));
        s.selfCap[f] = net::bundleCap(std::max(1, spec.connections),
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
        panicIf(pair >= inputs.pathCap.size(),
                "solveRates: pair index out of range");
        fr.push_back(getResource(s.pathIdx, pair, inputs.pathCap[pair],
                                 Bottleneck::Path));
        if (pair < inputs.tcLimit.size() && inputs.tcLimit[pair] > 0.0) {
            fr.push_back(getResource(s.tcIdx, pair,
                                     inputs.tcLimit[pair],
                                     Bottleneck::TcLimit));
        }
        const int gc = s.groupCapOfFlow[f];
        if (gc >= 0) {
            const Mbps cap = inputs.shareCap[static_cast<std::size_t>(gc)];
            if (cap > 0.0) {
                fr.push_back(getResource(
                    s.groupCapIdx, static_cast<std::size_t>(gc), cap,
                    Bottleneck::GroupShare));
            }
        }
        for (int r : fr)
            resources[static_cast<std::size_t>(r)].flows.push_back(f);
    }

    // --- Weighted progressive filling (lazy min-heap) --------------------
    std::size_t remaining = 0;
    for (std::size_t f = 0; f < nf; ++f)
        remaining += s.active[f] != 0 ? 1 : 0;

    s.frozenUsed.assign(resourceCount, 0.0);
    s.wsum.assign(resourceCount, 0.0);
    s.activeAtResource.assign(resourceCount, 0);
    s.satKey.assign(resourceCount, kInf);
    for (std::size_t f = 0; f < nf; ++f) {
        if (s.active[f] == 0)
            continue;
        for (int r : s.flowResources[f]) {
            s.wsum[static_cast<std::size_t>(r)] += s.weight[f];
            ++s.activeAtResource[static_cast<std::size_t>(r)];
        }
    }

    auto &heap = s.heap;
    heap.clear();
    auto heapLater = [](const LazyHeapScratch::FillEvent &a,
                        const LazyHeapScratch::FillEvent &b) {
        if (a.key != b.key)
            return a.key > b.key;
        if (a.kind != b.kind)
            return a.kind > b.kind;
        return a.id > b.id;
    };
    auto pushEvent = [&](double key, int kind, std::size_t id) {
        heap.push_back({key, kind, id});
        std::push_heap(heap.begin(), heap.end(), heapLater);
    };

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
            if (--s.activeAtResource[r] == 0) {
                // Dead for good: a frozen flow never reactivates.
                s.satKey[r] = kInf;
                continue;
            }
            const double slack =
                std::max(resources[r].cap - s.frozenUsed[r], 0.0);
            s.satKey[r] = slack / s.wsum[r];
            pushEvent(s.satKey[r], 1, r);
        }
    };

    // Pre-freeze flows crossing a zero-capacity resource.
    for (std::size_t r = 0; r < resourceCount; ++r) {
        if (resources[r].cap <= cfg.epsilon) {
            for (std::size_t f : resources[r].flows)
                freezeFlow(f, 0.0, resources[r].kind);
        }
    }

    // Initial events: one per still-active flow (self capability) and
    // one per resource that still carries active flows. Entries made
    // stale by pre-freeze pushes are discarded by the key check below.
    for (std::size_t f = 0; f < nf; ++f)
        if (s.active[f] != 0)
            pushEvent(s.selfCap[f] / s.weight[f], 0, f);
    for (std::size_t r = 0; r < resourceCount; ++r) {
        if (s.activeAtResource[r] == 0)
            continue;
        const double slack =
            std::max(resources[r].cap - s.frozenUsed[r], 0.0);
        s.satKey[r] = slack / s.wsum[r];
        pushEvent(s.satKey[r], 1, r);
    }

    std::size_t guard = 0;
    const std::size_t maxEvents = 8 * (nf + resourceCount) + 64;
    while (remaining > 0 && !heap.empty()) {
        panicIf(++guard > maxEvents,
                "solveRates: progressive filling did not converge");
        std::pop_heap(heap.begin(), heap.end(), heapLater);
        const LazyHeapScratch::FillEvent ev = heap.back();
        heap.pop_back();
        if (ev.kind == 0) {
            if (s.active[ev.id] != 0)
                freezeFlow(ev.id, s.selfCap[ev.id],
                           Bottleneck::SelfCap);
            continue;
        }
        // Resource saturation; skip entries a later freeze re-keyed.
        const std::size_t r = ev.id;
        if (s.activeAtResource[r] == 0 || ev.key != s.satKey[r])
            continue;
        const double theta = ev.key;
        for (std::size_t f : resources[r].flows)
            if (s.active[f] != 0)
                freezeFlow(f, s.weight[f] * theta,
                           resources[r].kind);
    }

    return result;
}

} // namespace oracle
} // namespace wanify

#endif // WANIFY_TESTS_ORACLES_WATER_FILL_HH
