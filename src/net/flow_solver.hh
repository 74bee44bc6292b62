/**
 * @file
 * Flow-level WAN bandwidth allocation.
 *
 * Each active transfer between two VMs is a bundle of parallel TCP
 * connections. The solver distributes bandwidth with *weighted*
 * progressive filling (weighted max-min fairness), where a bundle's
 * weight is connections x (1 / RTT). The 1/RTT weighting is the standard
 * fluid model of TCP AIMD's RTT bias [Vojnovic et al., INFOCOM'00 — the
 * paper's ref 37]: at a shared bottleneck, short-RTT flows grab
 * proportionally more. This single mechanism reproduces the paper's
 * central observations:
 *
 *  - nearby DCs occupy most of each other's capacity under uniform
 *    parallelism (Fig. 2(b)), and
 *  - giving *more* connections to distant pairs lifts the weakest link at
 *    the cost of the strongest (Fig. 2(c)).
 *
 * Constraints honored, in addition to per-bundle capability:
 *  - per-VM WAN egress and ingress caps (provider throttling),
 *  - per-VM NIC caps (half-duplex share per direction),
 *  - per-DC-pair backbone path capacity (with fluctuation applied by the
 *    caller), and
 *  - optional per-DC-pair Traffic Control (tc) limits set by WANify's
 *    local agents.
 *
 * A bundle's own capability is connections x connCap x efficiency(n)
 * where efficiency decays quadratically past a knee, modeling the
 * congestion observed when parallelism is pushed past ~8 connections
 * (Section 2.2).
 */

#ifndef WANIFY_NET_FLOW_SOLVER_HH
#define WANIFY_NET_FLOW_SOLVER_HH

#include <cstddef>
#include <vector>

#include "common/units.hh"

namespace wanify {
namespace net {

/** What ultimately limited a flow bundle's rate. */
enum class Bottleneck {
    None,        ///< unconstrained (should not happen with finite caps)
    SelfCap,     ///< its own connections' aggregate capability
    SrcVm,       ///< source VM WAN egress throttle
    DstVm,       ///< destination VM WAN ingress throttle
    NicTotal,    ///< a VM's total NIC (sum of in and out, Section 2.1)
    Path,        ///< DC-pair backbone capacity
    TcLimit,     ///< WANify throttling
    GroupShare,  ///< cross-query allocator share (serve layer)
};

/** Sentinel for flows that no share cap binds. */
constexpr std::size_t kNoShareCap = static_cast<std::size_t>(-1);

/** One transfer bundle presented to the solver. */
struct FlowSpec
{
    std::size_t srcVm = 0;
    std::size_t dstVm = 0;
    std::size_t srcDc = 0;
    std::size_t dstDc = 0;

    /** Number of parallel connections in the bundle (>= 1). */
    int connections = 1;

    /** Fair-share weight of one connection (1/RTT; 1.0 = unweighted). */
    double weightPerConn = 1.0;

    /** Achievable throughput of one connection (RTT model). */
    Mbps capPerConn = 0.0;

    /**
     * Index of the flow's entry in SolverInputs::shareCap, or
     * kNoShareCap. Flows naming one entry (one query's flows over one
     * DC pair in the serve layer) share that entry's cap.
     */
    std::size_t shareCap = kNoShareCap;
};

/** Per-flow result. */
struct FlowRate
{
    Mbps rate = 0.0;
    Bottleneck bottleneck = Bottleneck::None;
};

/** Static solver inputs besides the flows themselves. */
struct SolverInputs
{
    /** WAN egress cap per VM (index = VmId). */
    std::vector<Mbps> vmEgressCap;

    /** WAN ingress cap per VM. */
    std::vector<Mbps> vmIngressCap;

    /**
     * Total NIC capacity per VM, shared by both directions — providers
     * advertise network performance as the *sum* of inbound and
     * outbound (Section 2.1's m5.large example), which is what lets
     * bidirectional nearby traffic crowd out distant pairs.
     */
    std::vector<Mbps> vmNicCap;

    /** DC count (for pair indexing). */
    std::size_t dcCount = 0;

    /** Path capacity per ordered DC pair (index src * dcCount + dst). */
    std::vector<Mbps> pathCap;

    /**
     * Optional tc limit per ordered DC pair; entries <= 0 mean
     * unlimited. Empty vector = no throttling anywhere.
     */
    std::vector<Mbps> tcLimit;

    /**
     * Cross-query share caps installed by the serve layer's
     * BandwidthAllocator: the aggregate rate of the flows naming an
     * entry (FlowSpec::shareCap) may not exceed its cap; caps <= 0
     * are ignored. This is how one query's WAN share of a contended
     * link is *divided* away from the others while the ordinary
     * max-min filling still governs everything inside the share.
     */
    std::vector<Mbps> shareCap;
};

/** Tunables of the allocation model. */
struct SolverConfig
{
    /** Connections per bundle beyond which efficiency decays. */
    int connectionKnee = 8;

    /** Quadratic efficiency decay coefficient past the knee. */
    double congestionAlpha = 0.05;

    /**
     * Per-VM connection overhead: when the total connections at a VM
     * exceed vmConnKnee, its effective NIC/WAN capacities shrink by
     * 1 / (1 + vmConnAlpha x excess) — every connection costs memory
     * buffers and per-packet work (the paper's Md feature rationale,
     * ref [17]). This is what makes blind uniform parallelism
     * counter-productive (Fig. 5's WANify-P).
     */
    int vmConnKnee = 96;
    double vmConnAlpha = 0.05;

    /**
     * Oversubscription waste: when the aggregate *desire* (connection
     * capability, clipped by tc limits) crossing a VM exceeds its
     * capacity, loss-based TCP burns goodput on retransmissions.
     * Effective capacity shrinks by 1 / (1 + alpha x (demand/cap - 1)).
     * This is the mechanism WANify's throttling exploits: capping
     * BW-rich pairs lowers demand, recovering wasted capacity for the
     * weak links (Fig. 5, WANify-TC).
     */
    double oversubAlpha = 0.06;

    /** Numerical tolerance (Mbps). */
    double epsilon = 1e-9;
};

/**
 * Aggregate capability of a bundle of @p connections connections with
 * per-connection cap @p capPerConn: n x cap x efficiency(n).
 */
Mbps bundleCap(int connections, Mbps capPerConn, const SolverConfig &cfg);

/**
 * The solver's persistent workspace: a structure that
 * buildSolverStructure() keeps for a flow set, and the buffers and
 * result of each fillRates() over it.
 *
 * The structure is what depends only on the flows and on which tc
 * limits and share caps are positive: it holds from a build until the
 * next one. Everything is a flat array:
 *
 *  - per VM: connections;
 *  - per VM, pair and share-cap entry: the id of the resource keyed
 *    there, or -1 (their sizes are the input shape a fill checks);
 *  - per flow: weight, own capability, its endpoint VMs, the tc limit
 *    and share cap that clip its desire (kNoClip when none), and
 *    up to kMaxFlowResources resource ids at that fixed stride (none
 *    for a flow with no weight or capability);
 *  - per resource, numbered in order of first touch (ids break ties,
 *    so the numbering is part of the result): kind, the key its
 *    capacity is read at (VM, pair or share-cap entry), weight sum,
 *    and its flows as one compressed sparse row (CSR) list in
 *    ascending flow order, duplicates kept.
 *
 * The fill's buffers are meaningless between calls except @c rates,
 * which holds the last fill's result:
 *
 *  - per VM: desire, and the capacity scale of the connection and
 *    oversubscription penalties;
 *  - per resource: capacity, live weight sum, frozen capacity and
 *    live flow count; per flow: whether it still grows;
 *  - the static events, in key buckets sorted only when the fill
 *    reaches them; the indexed heap of shared resources; the
 *    resources a freeze has touched since their last re-key; and the
 *    heap entries left below a key that rose.
 */
struct SolverScratch
{
    /** Egress, ingress, two NICs, path, tc limit and group share. */
    static constexpr std::size_t kMaxFlowResources = 7;

    /** A flow's tc limit or share cap when none clips its desire. */
    static constexpr std::size_t kNoClip = static_cast<std::size_t>(-1);

    /** A fill event: a flow's own cap or a resource saturating. */
    struct FillEvent
    {
        double key = 0.0;     ///< fill level theta of the event
        int kind = 0;         ///< 0 = flow self-cap, 1 = resource
        std::size_t id = 0;   ///< flow or resource index
        std::size_t flow = 0; ///< flow a static event freezes
    };

    // --- structure (buildSolverStructure) ---------------------------------
    std::vector<int> connsAtVm;
    std::vector<int> egressIdx;
    std::vector<int> ingressIdx;
    std::vector<int> nicIdx;
    std::vector<int> pathIdx;
    std::vector<int> tcIdx;
    std::vector<int> shareCapIdx;

    std::vector<double> weight;
    std::vector<Mbps> selfCap;
    std::vector<std::size_t> flowSrcVm;
    std::vector<std::size_t> flowDstVm;
    std::vector<std::size_t> flowTcLimit;
    std::vector<std::size_t> flowShareCap;
    std::vector<int> flowResources;
    std::vector<unsigned char> flowResourceCount;
    std::size_t activeFlows = 0;

    std::vector<Bottleneck> resourceKind;
    std::vector<std::size_t> resourceKey;
    std::vector<double> resourceWeight;
    std::vector<std::size_t> resourceFlowStart;
    std::vector<int> resourceFlows;

    // --- fill (fillRates) -------------------------------------------------
    std::vector<Mbps> desireAtVm;
    std::vector<double> vmScale;
    std::vector<Mbps> resourceCap;
    std::vector<char> active;
    std::vector<double> wsum;
    std::vector<double> frozenUsed;
    std::vector<int> activeAtResource;
    std::vector<FillEvent> staticEvents;
    std::vector<FillEvent> bucketedEvents;
    std::vector<std::size_t> bucketStart;
    std::vector<FillEvent> sharedHeap;
    std::vector<int> heapPos;
    std::vector<char> rekeyPending;
    std::vector<char> keyRaised;
    std::vector<int> rekeyList;

    /** One FlowRate per flow of the last fill, in flow order. */
    std::vector<FlowRate> rates;
};

/**
 * Build the structure of @p flows into @p scratch: everything a fill
 * needs that does not move with capacities. It reads @p inputs only
 * for their sizes and for which tc limits and share caps are positive.
 */
void buildSolverStructure(const std::vector<FlowSpec> &flows,
                          const SolverInputs &inputs,
                          const SolverConfig &cfg, SolverScratch &scratch);

/**
 * Allocate rates with weighted progressive filling over the structure
 * last built into @p scratch, at the capacities in @p inputs, and
 * return them (scratch.rates). The result is what solveRates() gives
 * for the built flows and @p inputs, bit for bit, provided the inputs
 * have the shape of the build and the same tc limits and share caps
 * are positive; a kept tc limit or share cap that is no longer
 * positive panics, and one that became positive is not seen.
 */
const std::vector<FlowRate> &fillRates(const SolverInputs &inputs,
                                       const SolverConfig &cfg,
                                       SolverScratch &scratch);

/**
 * Allocate rates to all flows with weighted progressive filling: a
 * build and a fill.
 *
 * @p scratch, when given, pools the solver's internal buffers across
 * calls (identical results either way).
 *
 * @return One FlowRate per input flow, in order.
 */
std::vector<FlowRate> solveRates(const std::vector<FlowSpec> &flows,
                                 const SolverInputs &inputs,
                                 const SolverConfig &cfg = {},
                                 SolverScratch *scratch = nullptr);

} // namespace net
} // namespace wanify

#endif // WANIFY_NET_FLOW_SOLVER_HH
