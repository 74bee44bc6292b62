#include "serve/allocator.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace wanify {
namespace serve {

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

const Allocation &
BandwidthAllocator::allocate(net::NetworkSim &sim,
                             const std::vector<QueryDemand> &demands)
{
    const net::PairIndex pairs(sim.topology().dcCount());

    // Queries arrive sorted by group; the per-pair claim lists below
    // inherit that order, so ties in the water-fill resolve the same
    // way every round and every run, and the installed table comes
    // out group-major.
    for (std::size_t q = 1; q < demands.size(); ++q)
        if (demands[q - 1].group >= demands[q].group)
            panic("BandwidthAllocator: demands not sorted by group");

    // Validate, and count the demanding queries per ordered pair —
    // counting sort into one flat claim array instead of a
    // node-per-pair map, so the scan is contiguous and the steady
    // state allocates nothing.
    const std::size_t pairCount = pairs.size();
    claimCount_.assign(pairCount, 0);
    touched_.clear();
    std::size_t total = 0;
    for (const QueryDemand &q : demands) {
        if (q.group == 0)
            fatal("BandwidthAllocator: group 0 is reserved");
        if (!(q.weight > 0.0) || !std::isfinite(q.weight))
            fatal("BandwidthAllocator: weight must be positive");
        for (std::size_t k = 0; k < q.pairs.size(); ++k) {
            const PairDemand &p = q.pairs[k];
            if (p.pair >= pairCount)
                panic("BandwidthAllocator: pair index out of range");
            // A repeated pair would count the query twice in that
            // pair's water-fill.
            if (k > 0 && q.pairs[k - 1].pair >= p.pair)
                panic("BandwidthAllocator: pairs not sorted and unique");
            if (std::isnan(p.demand))
                fatal("BandwidthAllocator: demand must not be NaN");
            if (claimCount_[p.pair]++ == 0)
                touched_.push_back(p.pair);
            ++total;
        }
    }

    // Group weights steer the solver's organic filling between
    // allocation rounds (new flows join mid-epoch); the caps bound
    // each query's aggregate per pair. Both express the same policy.
    round_.planningShare.assign(demands.size(), 1.0);
    for (const QueryDemand &q : demands)
        sim.setGroupWeight(q.group,
                           policy_ == AllocPolicy::WeightedPriority
                               ? q.weight
                               : 1.0);

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
    for (std::size_t q = 0; q < demands.size(); ++q) {
        const double w = policy_ == AllocPolicy::WeightedPriority
                             ? demands[q].weight
                             : 1.0;
        for (const PairDemand &p : demands[q].pairs)
            claims_[claimSlot_[p.pair]++] = {q, w, p.demand, 0.0, false};
    }

    // Water-fill the contended pairs, keeping them in touched_, and
    // count each query's grants. claimSlot_ now points one past each
    // pair's span.
    capSlot_.assign(demands.size() + 1, 0);
    std::size_t filled = 0;
    for (const std::size_t pair : touched_) {
        const std::size_t count =
            static_cast<std::size_t>(claimCount_[pair]);
        if (count < 2)
            continue; // sole demander keeps whole-link behavior

        const Mbps capacity =
            sim.effectivePathCap(pairs.src(pair), pairs.dst(pair));
        if (capacity <= 0.0)
            continue; // outage: the solver starves the pair anyway

        Claim *claims = claims_.data() + (claimSlot_[pair] - count);
        waterFill(capacity, claims, count);
        touched_[filled++] = pair;
        for (std::size_t k = 0; k < count; ++k) {
            const Claim &c = claims[k];
            ++capSlot_[c.query + 1];
            round_.planningShare[c.query] = std::min(
                round_.planningShare[c.query], c.granted / capacity);
        }
    }
    touched_.resize(filled);
    round_.cappedPairs = filled;

    // Scatter the grants group-major: each query's run starts at its
    // prefix offset and fills in ascending pair order.
    for (std::size_t q = 1; q <= demands.size(); ++q)
        capSlot_[q] += capSlot_[q - 1];
    round_.installedCaps = capSlot_[demands.size()];
    caps_.resize(round_.installedCaps);
    for (const std::size_t pair : touched_) {
        const std::size_t count =
            static_cast<std::size_t>(claimCount_[pair]);
        const Claim *claims = claims_.data() + (claimSlot_[pair] - count);
        for (std::size_t k = 0; k < count; ++k)
            caps_[capSlot_[claims[k].query]++] = {
                demands[claims[k].query].group, pair, claims[k].granted};
    }
    sim.installShareCaps(caps_);
    return round_;
}

void
BandwidthAllocator::release(net::NetworkSim &sim,
                            net::FlowGroupId group)
{
    sim.clearGroupAllocations(group);
}

} // namespace serve
} // namespace wanify
