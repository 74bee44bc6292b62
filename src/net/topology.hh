/**
 * @file
 * Geo-distributed cluster topology: DCs (regions) hosting one or more VMs.
 *
 * The topology is the static description of a testbed: which regions take
 * part, what instance types run in each, and the derived pairwise
 * distances, RTTs, and single-connection capacities. The dynamic part
 * (fluctuation, active transfers) lives in NetworkSim.
 */

#ifndef WANIFY_NET_TOPOLOGY_HH
#define WANIFY_NET_TOPOLOGY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/matrix.hh"
#include "common/units.hh"
#include "net/region.hh"
#include "net/rtt_model.hh"
#include "net/vm.hh"

namespace wanify {
namespace net {

/** Index of a DC within a Topology. */
using DcId = std::size_t;

/** Global index of a VM within a Topology. */
using VmId = std::size_t;

/** A VM instance placed in a DC. */
struct Vm
{
    VmId id = 0;
    DcId dc = 0;
    VmType type;
};

/** A DC: a region plus the VMs deployed there. */
struct Dc
{
    DcId id = 0;
    Region region;
    std::vector<VmId> vms;
};

/**
 * Immutable cluster topology.
 *
 * Build with TopologyBuilder. Pairwise quantities are precomputed at
 * DC granularity; VM-level capacities come from the instance types.
 */
class Topology
{
  public:
    Topology() = default;

    std::size_t dcCount() const { return dcs_.size(); }
    std::size_t vmCount() const { return vms_.size(); }

    const Dc &dc(DcId id) const;
    const Vm &vm(VmId id) const;

    /** The VM a DC's WAN traffic leaves from and lands on: its first
     *  (addDc refuses a DC without VMs). Shuffles, probes and bursts
     *  all use it, so they contend on the same VM pairs. */
    VmId endpointVm(DcId id) const { return dc(id).vms.front(); }
    const std::vector<Dc> &dcs() const { return dcs_; }
    const std::vector<Vm> &vms() const { return vms_; }

    /** Great-circle distance between two DCs (0 for i == j). */
    Kilometers distanceKm(DcId i, DcId j) const;

    /** Round-trip time between two DCs. */
    Seconds rttSeconds(DcId i, DcId j) const;

    /** Single-connection achievable throughput between two DCs. */
    Mbps connCap(DcId i, DcId j) const;

    /**
     * Inter-DC backbone path capacity (per direction, per DC pair).
     * This is what parallel connections can in aggregate reach before the
     * provider's path limits bind (Section 2.2's observation that BW
     * stops improving past ~8 connections).
     */
    Mbps pathCap(DcId i, DcId j) const;

    /**
     * Route quality in (0, 1]: a persistent per-pair property of the
     * provider's backbone path (peering congestion, loss). A
     * low-quality route behaves normally in isolation but is *timid*
     * under contention — its TCP flows back off harder and claim a
     * smaller share. This is why statically (independently) measured
     * BWs mis-rank links at runtime (Section 2.2's observation that
     * the slowest DC from SA East flips between AP SE and EU West).
     */
    double routeQuality(DcId i, DcId j) const;

    /** Dense index of an ordered DC pair for per-pair state banks. */
    std::size_t pairIndex(DcId src, DcId dst) const;

    /** Number of ordered DC pairs (n * n). */
    std::size_t pairCount() const { return dcCount() * dcCount(); }

    friend class TopologyBuilder;

  private:
    std::vector<Dc> dcs_;
    std::vector<Vm> vms_;
    Matrix<Kilometers> distance_;
    Matrix<Seconds> rtt_;
    Matrix<Mbps> connCap_;
    Matrix<Mbps> pathCap_;
    Matrix<double> routeQuality_;
};

/** Fluent builder for Topology. */
class TopologyBuilder
{
  public:
    explicit TopologyBuilder(RttModelParams rttParams = {});

    /** Add a DC in @p region with @p count VMs of @p type. */
    TopologyBuilder &addDc(const Region &region, const VmType &type,
                           std::size_t count = 1);

    /** Add one more VM to an existing DC (heterogeneous VM counts). */
    TopologyBuilder &addVm(DcId dc, const VmType &type);

    /** Finalize; at least 1 DC required. */
    Topology build();

    /**
     * Convenience: the paper's standard testbed — first @p n paper
     * regions, @p vmsPerDc VMs of @p type in each. Beyond 8 DCs the
     * paper regions are cycled into deterministic metro zones
     * (RegionCatalog::scaledMesh), enabling 128-256-DC scale runs.
     */
    static Topology paperTestbed(std::size_t n, const VmType &type,
                                 std::size_t vmsPerDc = 1);

  private:
    struct PendingVm { DcId dc; VmType type; };

    RttModelParams rttParams_;
    std::vector<Region> regions_;
    std::vector<PendingVm> pendingVms_;
};

} // namespace net
} // namespace wanify

#endif // WANIFY_NET_TOPOLOGY_HH
