#include "serve/allocator.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace wanify {
namespace serve {

const char *
allocPolicyName(AllocPolicy policy)
{
    switch (policy) {
    case AllocPolicy::MaxMinFair:
        return "maxmin";
    case AllocPolicy::WeightedPriority:
        return "weighted";
    }
    return "?";
}

BandwidthAllocator::BandwidthAllocator(AllocPolicy policy)
    : policy_(policy)
{}

/**
 * Weighted water-filling of @p capacity among the @p count claims at
 * @p claims: repeatedly raise a common water level (rate per unit
 * weight); claims whose finite demand sits below their level-implied
 * share freeze at their demand and release the remainder to everyone
 * still filling. The fixed point is the weighted max-min fair
 * allocation. Operates on a span of the flat claim array so the
 * per-pair fill never copies.
 */
void
BandwidthAllocator::waterFill(Mbps capacity, Claim *claims,
                              std::size_t count)
{
    Mbps remaining = capacity;
    std::size_t unsatisfied = count;
    while (unsatisfied > 0) {
        double weightSum = 0.0;
        for (std::size_t k = 0; k < count; ++k)
            if (!claims[k].satisfied)
                weightSum += claims[k].weight;
        const double level = remaining / weightSum;
        bool froze = false;
        for (std::size_t k = 0; k < count; ++k) {
            Claim &c = claims[k];
            if (c.satisfied)
                continue;
            const Mbps fair = c.weight * level;
            if (c.demand > 0.0 && c.demand <= fair) {
                c.granted = c.demand;
                c.satisfied = true;
                remaining -= c.demand;
                --unsatisfied;
                froze = true;
            }
        }
        if (!froze) {
            for (std::size_t k = 0; k < count; ++k) {
                Claim &c = claims[k];
                if (c.satisfied)
                    continue;
                c.granted = c.weight * level;
                c.satisfied = true;
            }
            break;
        }
    }
}

Allocation
BandwidthAllocator::allocate(net::NetworkSim &sim,
                             const std::vector<QueryDemand> &demands)
{
    const net::Topology &topo = sim.topology();
    Allocation out;

    // Queries arrive sorted by group; the per-pair claim lists below
    // inherit that order, so ties in the water-fill resolve the same
    // way every round and every run.
    for (std::size_t q = 1; q < demands.size(); ++q)
        if (demands[q - 1].group >= demands[q].group)
            panic("BandwidthAllocator: demands not sorted by group");

    // Group weights steer the solver's organic filling between
    // allocation rounds (new flows join mid-epoch); the caps bound
    // each query's aggregate per pair. Both express the same policy.
    for (const QueryDemand &q : demands) {
        if (q.group == 0)
            fatal("BandwidthAllocator: group 0 is reserved");
        if (!(q.weight > 0.0) || !std::isfinite(q.weight))
            fatal("BandwidthAllocator: weight must be positive");
        sim.setGroupWeight(q.group,
                           policy_ == AllocPolicy::WeightedPriority
                               ? q.weight
                               : 1.0);
        out.planningShare[q.group] = 1.0;
    }

    // Collect the demanding queries per ordered pair — counting sort
    // into one flat claim array instead of a node-per-pair map, so
    // the scan is contiguous and the steady state allocates nothing.
    const std::size_t pairCount = topo.pairCount();
    claimCount_.assign(pairCount, 0);
    touched_.clear();
    std::size_t total = 0;
    for (const QueryDemand &q : demands) {
        for (const PairDemand &p : q.pairs) {
            if (p.pair >= pairCount)
                panic("BandwidthAllocator: pair index out of range");
            if (claimCount_[p.pair]++ == 0)
                touched_.push_back(p.pair);
            ++total;
        }
    }
    // Ascending pair order — the iteration order the map-keyed scan
    // had, so installed caps and planning shares are bit-identical.
    std::sort(touched_.begin(), touched_.end());
    claimSlot_.resize(pairCount);
    std::size_t running = 0;
    for (const std::size_t pair : touched_) {
        claimSlot_[pair] = running;
        running += static_cast<std::size_t>(claimCount_[pair]);
    }
    claims_.resize(total);
    for (const QueryDemand &q : demands) {
        const double w =
            policy_ == AllocPolicy::WeightedPriority ? q.weight : 1.0;
        for (const PairDemand &p : q.pairs)
            claims_[claimSlot_[p.pair]++] = {q.group, w, p.demand,
                                             0.0, false};
    }

    // Water-fill the contended pairs and install the shares; record
    // which caps each group now holds so stale ones can be retired.
    // claimSlot_ now points one past each pair's span.
    std::map<net::FlowGroupId, std::vector<std::size_t>> fresh;
    for (const std::size_t pair : touched_) {
        const std::size_t count =
            static_cast<std::size_t>(claimCount_[pair]);
        if (count < 2)
            continue; // sole demander keeps whole-link behavior

        const net::DcId src = pair / topo.dcCount();
        const net::DcId dst = pair % topo.dcCount();
        const Mbps capacity = sim.effectivePathCap(src, dst);
        if (capacity <= 0.0)
            continue; // outage: the solver starves the pair anyway

        Claim *claims = claims_.data() + (claimSlot_[pair] - count);
        waterFill(capacity, claims, count);
        ++out.cappedPairs;
        for (std::size_t k = 0; k < count; ++k) {
            const Claim &c = claims[k];
            sim.setGroupPairCap(c.group, src, dst, c.granted);
            fresh[c.group].push_back(pair);
            ++out.installedCaps;
            auto it = out.planningShare.find(c.group);
            it->second =
                std::min(it->second, c.granted / capacity);
        }
    }

    // Retire caps installed in earlier rounds that this round did not
    // renew — the pair went uncontended or the query left it. Both
    // pair lists are ascending (emitted in touched order), so the
    // membership check is a binary search, not a linear scan.
    for (const auto &[group, pairs] : installed_) {
        const auto now = fresh.find(group);
        for (const std::size_t pair : pairs) {
            const bool kept =
                now != fresh.end() &&
                std::binary_search(now->second.begin(),
                                   now->second.end(), pair);
            if (!kept)
                sim.setGroupPairCap(group, pair / topo.dcCount(),
                                    pair % topo.dcCount(), 0.0);
        }
    }
    installed_ = std::move(fresh);
    return out;
}

void
BandwidthAllocator::release(net::NetworkSim &sim,
                            net::FlowGroupId group)
{
    sim.clearGroupAllocations(group);
    installed_.erase(group);
}

} // namespace serve
} // namespace wanify
