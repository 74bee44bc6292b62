/**
 * @file
 * Cross-query WAN bandwidth allocator for the resident service.
 *
 * The one-shot engine lets each query assume whole links: correct when
 * one query owns the WAN, systematically wrong when hundreds share it.
 * The allocator closes that gap online. Every allocation round it takes
 * the active queries' per-pair demands (which ordered DC pairs each
 * query is currently shuffling over, and at what rate it could usefully
 * consume), water-fills each contended pair's effective capacity among
 * the demanding queries, and installs the resulting shares on the
 * shared NetworkSim through the flow-registry hooks: one table of
 * per-(group, pair) share caps — first-class solver resources — that
 * replaces the previous round's, plus per-group fair-share weights.
 *
 * Two policies:
 *  - MaxMinFair: every demanding query weighs 1; the water-fill is the
 *    classic max-min fair allocation per pair.
 *  - WeightedPriority: shares are proportional to the query's declared
 *    weight (its priority class), so a weight-4 query gets 4x the share
 *    of a weight-1 query wherever they contend.
 *
 * Caps are installed only on *contended* pairs, those with two or more
 * demanding queries: a sole demander keeps the whole link whatever its
 * demand, at zero solver cost, which keeps the flow solver's resource
 * count proportional to actual contention rather than to queries x
 * pairs.
 */

#ifndef WANIFY_SERVE_ALLOCATOR_HH
#define WANIFY_SERVE_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "net/network_sim.hh"

namespace wanify {
namespace serve {

/** Cross-query sharing policy. */
enum class AllocPolicy
{
    MaxMinFair,
    WeightedPriority,
};

/** One query's appetite on one ordered DC pair. */
struct PairDemand
{
    /** Ordered pair index (Topology::pairIndex). */
    std::size_t pair = 0;

    /**
     * Rate the query could usefully consume on the pair (Mbps);
     * <= 0 means elastic (take any share granted). Not NaN.
     */
    Mbps demand = 0.0;
};

/** One active query's demand set for an allocation round. */
struct QueryDemand
{
    net::FlowGroupId group = 0;

    /** Priority weight (> 0); ignored under MaxMinFair. */
    double weight = 1.0;

    /** Pairs the query is actively shuffling over, in strictly
     *  ascending index. */
    std::vector<PairDemand> pairs;
};

/** Outcome of one allocation round. */
struct Allocation
{
    /**
     * Per-query planning share in (0, 1], aligned with the round's
     * demands (planningShare[k] belongs to demands[k]): the worst
     * granted capacity fraction across the query's contended pairs
     * (1 when it contends nowhere). This is the scalar the fraction
     * search consumes via StageContext::wanShare, so placement is
     * computed against the bandwidth the query will actually receive.
     */
    std::vector<double> planningShare;

    /** Pairs that received share caps this round. */
    std::size_t cappedPairs = 0;

    /** (group, pair) share caps installed this round. */
    std::size_t installedCaps = 0;
};

class BandwidthAllocator
{
  public:
    explicit BandwidthAllocator(AllocPolicy policy);

    AllocPolicy policy() const { return policy_; }

    /**
     * Run one allocation round: water-fill every contended pair's
     * effective capacity among the queries demanding it, set each
     * demanding group's weight on @p sim, and install the grants as
     * @p sim's whole share-cap table, group-major with pairs
     * ascending. The install replaces the previous round's table, so
     * caps this round did not renew are gone. Deterministic in
     * (demands, sim state); queries must be sorted by group id.
     *
     * @return This round's outcome, valid until the next call.
     */
    const Allocation &allocate(net::NetworkSim &sim,
                               const std::vector<QueryDemand> &demands);

    /** Drop a departed query's weight and share caps from @p sim. */
    void release(net::NetworkSim &sim, net::FlowGroupId group);

  private:
    /** One demander at a contended pair during the water-fill. */
    struct Claim
    {
        std::size_t query = 0; ///< index into the round's demands
        double weight = 1.0;
        Mbps demand = 0.0; ///< <= 0 = elastic
        Mbps granted = 0.0;
        bool satisfied = false;
    };

    /** Weighted max-min water-fill over one pair's claim span. */
    static void waterFill(Mbps capacity, Claim *claims,
                          std::size_t count);

    AllocPolicy policy_;
    Allocation round_;

    // Flat counting-sort scratch, reused across rounds so the steady
    // state allocates nothing: claims land in one contiguous array
    // grouped by pair index (demand order within a pair, i.e.
    // ascending group), with claimCount_/claimSlot_ dense over
    // pairCount() and touched_ listing the pairs that saw any demand
    // this round. capSlot_ places each query's grants in caps_, the
    // table the round installs.
    std::vector<std::int32_t> claimCount_;
    std::vector<std::size_t> claimSlot_;
    std::vector<Claim> claims_;
    std::vector<std::size_t> touched_;
    std::vector<std::size_t> capSlot_;
    std::vector<net::GroupPairCap> caps_;
};

} // namespace serve
} // namespace wanify

#endif // WANIFY_SERVE_ALLOCATOR_HH
