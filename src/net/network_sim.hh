/**
 * @file
 * Event-driven flow-level WAN simulator.
 *
 * NetworkSim owns the dynamic network state: the set of active transfers
 * (finite shuffles or infinite iPerf-style measurement flows), per-pair
 * capacity fluctuation, and WANify tc throttles. Between rate changes,
 * transfers progress linearly and completions are located exactly.
 *
 * Rates are solved when they are read, never ahead of a read: a
 * mutation only marks them stale, advanceBy() solves a stale state
 * before it moves time (advanceBy(0) included) and never after, and
 * the rate readers (transferRate, transferBottleneck, pairRate,
 * pairRateMatrix, groupRate) solve one on demand. status() and the
 * byte and count readers never solve. What a mutation touches sets the
 * cost of the next solve:
 *
 *  - structure: a start, stop or completion, a connection change, a
 *    group weight, an RTT factor, a tc limit or share cap turning
 *    positive or non-positive, or a share-cap table with other keys.
 *    The solve rebuilds the flow specs and the solver's structure
 *    (net::buildSolverStructure) before it fills;
 *  - capacity: a fluctuation tick, a scenario capacity factor, a tc
 *    limit moving between positive values, or a share-cap table with
 *    the same keys and the same caps positive. The solve only refills
 *    rates over the kept structure (net::fillRates).
 *
 * Either way the rates are bit-identical to a fresh net::solveRates of
 * the current state: a solve is pure in its inputs.
 *
 * The simulator is the common substrate for the measurement plane
 * (monitor/), for WANify's local agents, and for the GDA engine's shuffle
 * stages.
 */

#ifndef WANIFY_NET_NETWORK_SIM_HH
#define WANIFY_NET_NETWORK_SIM_HH

#include <cstdint>
#include <vector>

#include "common/matrix.hh"
#include "common/units.hh"
#include "net/flow_solver.hh"
#include "net/fluctuation.hh"
#include "net/pair_index.hh"
#include "net/topology.hh"

namespace wanify {
namespace oracle {
struct MapKeyedSolverInputs;
} // namespace oracle

namespace net {

using TransferId = std::uint64_t;

/**
 * A flow group ties the transfers of one logical tenant (one query of
 * the serve layer) together for cross-query bandwidth allocation:
 * per-group fair-share weights, per-(group, pair) share caps, and
 * per-group telemetry. Group 0 is "ungrouped" — the default for all
 * legacy callers, measurement flows, and scenario bursts.
 */
using FlowGroupId = std::uint64_t;

/**
 * One cross-query share cap: the aggregate rate of @c group's
 * transfers across ordered pair @c pair (PairIndex layout) may not
 * exceed @c cap. A cap <= 0 binds nothing.
 */
struct GroupPairCap
{
    FlowGroupId group = 0;
    std::size_t pair = 0;
    Mbps cap = 0.0;
};

/** A finite transfer's completion: when it finished, its flow group
 *  and the bytes it moved in all. */
struct CompletionRecord
{
    TransferId id = 0;
    Seconds time = 0.0;
    FlowGroupId group = 0;
    Bytes moved = 0.0;
};

/** Snapshot of one live transfer's progress; a finished or stopped
 *  transfer reads exists == false. Reading it never solves rates: its
 *  rate comes from NetworkSim::transferRate. */
struct TransferStatus
{
    bool exists = false;
    Bytes bytesMoved = 0.0;
    Bytes bytesRemaining = 0.0;
    int connections = 0;
};

/** The rate solver's work since a NetworkSim was built. */
struct SolveCounts
{
    /** Rate solves: one fill each. */
    std::uint64_t solves = 0;

    /** Solves that rebuilt the specs and solver structure first. */
    std::uint64_t structureBuilds = 0;
};

/** Simulator tunables. */
struct NetworkSimConfig
{
    FluctuationParams fluctuation;
    SolverConfig solver;
};

class NetworkSim
{
  public:
    /** Interval between fluctuation updates / rate re-solves. */
    static constexpr Seconds kTickInterval = 1.0;

    NetworkSim(Topology topology, NetworkSimConfig config = {},
               std::uint64_t seed = 1);

    /** Current simulated time. */
    Seconds now() const { return now_; }

    const Topology &topology() const { return topology_; }
    const NetworkSimConfig &config() const { return config_; }

    // --- transfer management ---------------------------------------------

    /** Start a finite transfer of @p bytes (finite, > 0); returns its
     *  id. */
    TransferId startTransfer(VmId src, VmId dst, Bytes bytes,
                             int connections = 1,
                             FlowGroupId group = 0);

    /** Start an infinite (iPerf-style) measurement flow. */
    TransferId startMeasurement(VmId src, VmId dst, int connections = 1);

    /** Remove a transfer (finite or measurement) before completion. */
    void stopTransfer(TransferId id);

    /** Change the parallel connection count of an active transfer. */
    void setConnections(TransferId id, int connections);

    /** Set (or with limit <= 0, clear) a tc throttle on a DC pair. */
    void setTcLimit(DcId src, DcId dst, Mbps limit);

    // --- scenario overrides ------------------------------------------------
    //
    // The scenario engine (src/scenario/) drives non-stationary WAN
    // dynamics — diurnal cycles, degradation, outages, trace replay —
    // through these per-pair factors. They multiply into the
    // OU-fluctuated path capacity (and the pair RTT used for TCP
    // share weighting), so scripted dynamics and stationary noise
    // compose.

    /**
     * Scenario capacity factor for an ordered DC pair (1 = nominal,
     * 0 = hard outage). Must be finite and >= 0.
     */
    void setScenarioCapFactor(DcId src, DcId dst, double factor);

    /** Scenario RTT inflation factor for a pair. Must be finite, > 0. */
    void setScenarioRttFactor(DcId src, DcId dst, double factor);

    double scenarioCapFactor(DcId src, DcId dst) const;
    double scenarioRttFactor(DcId src, DcId dst) const;

    // --- flow registry (cross-query WAN sharing) ---------------------------
    //
    // The serve layer's BandwidthAllocator divides each contended
    // pair's capacity among active queries by installing a table of
    // per-(group, pair) share caps — enforced inside the flow solver
    // as first-class resources (Bottleneck::GroupShare) — and may
    // bias the weighted max-min filling itself through per-group
    // weights.

    /**
     * Fair-share weight multiplier for every flow of @p group (> 0,
     * finite; default 1). Composes with the per-flow RTT-bias weight,
     * so a weight of 2 gives the group's flows twice the share they
     * would organically win at every shared resource.
     */
    void setGroupWeight(FlowGroupId group, double weight);

    /**
     * Replace the whole share-cap table with @p caps, which must be
     * sorted by (group, pair) and unique, with non-zero groups and
     * finite caps; a cap left out of @p caps is gone. Each cap
     * becomes a dedicated solver resource, so a group's flows on the
     * pair share *their* allocation max-min among themselves while
     * other groups compete only for the remainder.
     */
    void installShareCaps(const std::vector<GroupPairCap> &caps);

    /** The installed share-cap table, in (group, pair) order. */
    const std::vector<GroupPairCap> &shareCaps() const
    {
        return shareCaps_;
    }

    /** Drop @p group's weight and its entries of the share-cap table. */
    void clearGroupAllocations(FlowGroupId group);

    /** Instantaneous aggregate rate of a group's transfers. */
    Mbps groupRate(FlowGroupId group);

    /** Remaining bytes of a group's active finite transfers. */
    Bytes groupPendingBytes(FlowGroupId group) const;

    /** Active transfers (finite + measurement) tagged with @p group. */
    std::size_t groupTransferCount(FlowGroupId group) const;

    /** Groups with a weight other than 1 or at least one share cap. */
    std::size_t registeredGroupCount() const;

    // --- time -------------------------------------------------------------

    /** Advance simulated time by exactly @p dt, solving a stale state
     *  first (also when @p dt is 0). What the last tick or completion
     *  changes stays unsolved until the next read or advance. */
    void advanceBy(Seconds dt);

    /**
     * Run until every finite transfer completes or @p maxTime elapses.
     * @return The time at which the last finite transfer completed (or
     *         now() if it hit maxTime first).
     */
    Seconds runUntilAllComplete(Seconds maxTime = 1.0e7);

    /** True when no finite transfer remains active. */
    bool allTransfersDone() const;

    /** Retrieve and clear accumulated completion events. */
    std::vector<CompletionRecord> drainCompletions();

    /** The completion events accumulated since the last drain, in
     *  the order they happened. */
    const std::vector<CompletionRecord> &completions() const
    {
        return completions_;
    }

    // --- telemetry ---------------------------------------------------------

    /** Progress of a live transfer; the sim keeps nothing of one that
     *  finished (see completions()) or was stopped. Never solves. */
    TransferStatus status(TransferId id) const;

    /** Instantaneous rate of one transfer (0 when not live). */
    Mbps transferRate(TransferId id);

    /** What limits one transfer's rate (None when not live). */
    Bottleneck transferBottleneck(TransferId id);

    /** Instantaneous aggregate rate between two DCs. */
    Mbps pairRate(DcId src, DcId dst);

    /** Cumulative bytes moved between two DCs since construction. */
    Bytes pairBytes(DcId src, DcId dst) const;

    /** Instantaneous DC-pair rate matrix. */
    Matrix<Mbps> pairRateMatrix();

    /** Effective (fluctuated) path capacity right now. */
    Mbps effectivePathCap(DcId src, DcId dst) const;

    /** Ids of active transfers (incl. measurements) between two DCs. */
    std::vector<TransferId> transfersBetween(DcId src, DcId dst) const;

    /** Remaining bytes of active finite transfers between two DCs. */
    Bytes pendingBytesBetween(DcId src, DcId dst) const;

    /** Number of active transfers (finite + measurement). */
    std::size_t activeTransferCount() const
    {
        return transfers_.size() - stoppedCount_;
    }

    /** Solves and structure builds so far. */
    const SolveCounts &solveCounts() const { return solveCounts_; }

  private:
    static constexpr std::size_t kNoGroupSlot =
        static_cast<std::size_t>(-1);

    struct Transfer
    {
        TransferId id = 0;
        VmId srcVm = 0;
        VmId dstVm = 0;
        DcId srcDc = 0;
        DcId dstDc = 0;
        std::size_t pair = 0; ///< pairs_(srcDc, dstDc)
        int connections = 1;
        bool measurement = false;

        /** Stopped, awaiting removal by the next resolve. */
        bool stopped = false;

        FlowGroupId group = 0;
        std::size_t groupSlot = kNoGroupSlot; ///< groups_ slot
        std::size_t shareCap = kNoShareCap;   ///< shareCaps_ entry
        Bytes remaining = 0.0;
        Bytes moved = 0.0;
        Mbps rate = 0.0;
        Bottleneck bottleneck = Bottleneck::None;
    };

    /** One flow group's slot in the group table (see setGroupWeight). */
    struct GroupSlot
    {
        FlowGroupId id = 0;
        double weight = 1.0;
    };

    /** The map-keyed input build that resolveRates is held
     *  bit-identical to (tests/oracles/solver_inputs.hh) reads the
     *  sim's private state directly. */
    friend struct oracle::MapKeyedSolverInputs;

    /** The pairs_ slot of (src, dst); panics on a DC out of range. */
    std::size_t pairSlot(DcId src, DcId dst) const;

    /** Solve rates if a mutation left them stale. */
    void
    solveIfStale()
    {
        if (structureDirty_ || capacityDirty_)
            resolveRates();
    }

    /** Solve rates for the current state: rebuild the specs and the
     *  solver structure if structureDirty_, then fill. */
    void resolveRates();

    /** Refresh pairWeight_ from the scenario RTT factors. */
    void rebuildPairWeights();

    /** Re-point every transfer at its share-cap entry. */
    void refreshShareCaps();

    /** Copy the share-cap table's caps into the solver inputs. */
    void copyShareCaps();

    /** Drop stopped transfers in one stable pass. */
    void dropStopped();

    /** The active transfer with @p id, or nullptr. */
    const Transfer *findTransfer(TransferId id) const;
    Transfer *findTransfer(TransferId id);

    /** Where @p group's slot is, or would go, in groupsById_. */
    std::vector<std::size_t>::const_iterator
    groupPosition(FlowGroupId group) const;

    /** The slot of @p group, or kNoGroupSlot. */
    std::size_t findGroupSlot(FlowGroupId group) const;

    /** The slot of @p group, appended on first use. */
    std::size_t groupSlot(FlowGroupId group);

    /** The share-cap entry of (group, pair), or kNoShareCap. */
    std::size_t shareCapEntry(FlowGroupId group, std::size_t pair) const;

    /** Earliest finite-transfer completion horizon at current rates. */
    Seconds nextCompletionIn() const;

    /** Progress all transfers by dt at current rates; handle finishes. */
    void progress(Seconds dt);

    TransferId makeTransfer(VmId src, VmId dst, Bytes bytes,
                            int connections, bool measurement,
                            FlowGroupId group);

    Topology topology_;
    NetworkSimConfig config_;
    PairIndex pairs_;
    FluctuationBank fluctuation_;

    /** Per-VM capacity fluctuation (burst arbitration, noisy
     *  neighbours) — gentler than the per-path process. */
    FluctuationBank vmFluctuation_;

    Seconds now_ = 0.0;
    Seconds nextTick_ = 0.0;
    TransferId nextId_ = 1;

    /** The specs and solver structure are stale (see the file
     *  comment); a structure change is a capacity change too. */
    bool structureDirty_ = true;

    /** Rates are stale over a kept structure. */
    bool capacityDirty_ = true;
    SolveCounts solveCounts_;

    /**
     * Active transfers in ascending id. Ids rise with every start, so
     * a start appends and a lookup binary-searches; a stop only marks
     * its entry (stoppedCount_ counts them) and the next resolve drops
     * the marked ones, so stopping a whole mesh stays linear.
     * Completions leave in progress()'s stable pass.
     */
    std::vector<Transfer> transfers_;
    std::size_t stoppedCount_ = 0;

    /** The group table: one slot per group ever named, never moved,
     *  so a transfer keeps the slot it recorded at its start. */
    std::vector<GroupSlot> groups_;
    std::vector<std::size_t> groupsById_; ///< slots by ascending id

    /** Installed share caps, sorted by (group, pair). */
    std::vector<GroupPairCap> shareCaps_;
    std::vector<CompletionRecord> completions_;
    std::vector<Mbps> tcLimits_;      ///< per ordered pair; <=0 = none
    std::vector<double> scenarioCap_; ///< per ordered pair; default 1
    std::vector<double> scenarioRtt_; ///< per ordered pair; default 1
    std::vector<Bytes> pairBytes_;    ///< per ordered pair; cumulative

    // --- flat per-pair hot-path state (see resolveRates) -------------------
    // Immutable topology quantities unpacked once into PairIndex
    // layout, plus the persistent solver inputs/scratch so a resolve
    // in steady state is one branch-free composition pass over
    // contiguous arrays with no allocation. The scratch keeps the
    // solver structure of specs_ between structure changes.
    std::vector<Mbps> basePathCap_;    ///< topology pathCap, flat
    std::vector<Mbps> connCapFlat_;    ///< topology connCap, flat
    std::vector<Seconds> baseRtt_;     ///< topology rttSeconds, flat
    std::vector<double> routeQualityFlat_;
    std::vector<double> pairWeight_;   ///< routeQuality / rtt², flat
    std::vector<Mbps> vmWanCap_;       ///< per-VM WAN cap, unwobbled
    std::vector<Mbps> vmNicCap_;       ///< per-VM NIC cap, unwobbled
    bool weightsDirty_ = true;         ///< pairWeight_ needs rebuild
    bool shareCapKeysDirty_ = false;   ///< share-cap keys changed
    SolverInputs inputs_;
    SolverScratch solverScratch_;
    std::vector<FlowSpec> specs_;
};

} // namespace net
} // namespace wanify

#endif // WANIFY_NET_NETWORK_SIM_HH
