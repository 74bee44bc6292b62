#include "net/topology.hh"

#include <algorithm>
#include <cstdint>

#include "common/error.hh"
#include "common/rng.hh"

namespace wanify {
namespace net {

namespace {

/** Inter-DC backbone path capacity (Mbps, per direction, per pair). */
constexpr Mbps kBackboneCap = 2900.0;

} // namespace

const Dc &
Topology::dc(DcId id) const
{
    panicIf(id >= dcs_.size(), "Topology::dc: id out of range");
    return dcs_[id];
}

const Vm &
Topology::vm(VmId id) const
{
    panicIf(id >= vms_.size(), "Topology::vm: id out of range");
    return vms_[id];
}

Kilometers
Topology::distanceKm(DcId i, DcId j) const
{
    return distance_.at(i, j);
}

Seconds
Topology::rttSeconds(DcId i, DcId j) const
{
    return rtt_.at(i, j);
}

Mbps
Topology::connCap(DcId i, DcId j) const
{
    return connCap_.at(i, j);
}

Mbps
Topology::pathCap(DcId i, DcId j) const
{
    return pathCap_.at(i, j);
}

double
Topology::routeQuality(DcId i, DcId j) const
{
    return routeQuality_.at(i, j);
}

std::size_t
Topology::pairIndex(DcId src, DcId dst) const
{
    panicIf(src >= dcCount() || dst >= dcCount(),
            "Topology::pairIndex: DC out of range");
    return src * dcCount() + dst;
}

TopologyBuilder::TopologyBuilder(RttModelParams rttParams)
    : rttParams_(rttParams)
{}

TopologyBuilder &
TopologyBuilder::addDc(const Region &region, const VmType &type,
                       std::size_t count)
{
    fatalIf(count == 0, "addDc: need at least one VM per DC");
    const DcId id = regions_.size();
    regions_.push_back(region);
    for (std::size_t i = 0; i < count; ++i)
        pendingVms_.push_back({id, type});
    return *this;
}

TopologyBuilder &
TopologyBuilder::addVm(DcId dc, const VmType &type)
{
    fatalIf(dc >= regions_.size(), "addVm: unknown DC");
    pendingVms_.push_back({dc, type});
    return *this;
}

Topology
TopologyBuilder::build()
{
    fatalIf(regions_.empty(), "TopologyBuilder: no DCs added");

    Topology topo;
    const RttModel rttModel(rttParams_);

    const std::size_t n = regions_.size();
    topo.dcs_.reserve(n);
    for (DcId i = 0; i < n; ++i)
        topo.dcs_.push_back({i, regions_[i], {}});

    topo.vms_.reserve(pendingVms_.size());
    for (const auto &pv : pendingVms_) {
        const VmId vid = topo.vms_.size();
        topo.vms_.push_back({vid, pv.dc, pv.type});
        topo.dcs_[pv.dc].vms.push_back(vid);
    }

    topo.distance_ = Matrix<Kilometers>::square(n, 0.0);
    topo.rtt_ = Matrix<Seconds>::square(n, 0.0);
    topo.connCap_ = Matrix<Mbps>::square(n, 0.0);
    topo.pathCap_ = Matrix<Mbps>::square(n, 0.0);
    topo.routeQuality_ = Matrix<double>::square(n, 1.0);

    // Route quality: a persistent hash of the region-id pair, so the
    // same pair always has the same quality regardless of which other
    // regions are in the cluster.
    auto pairQuality = [](const Region &a, const Region &b) {
        std::uint64_t h = 1469598103934665603ULL;
        for (char c : a.id + "->" + b.id) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
        std::uint64_t s = h;
        const double u =
            static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
        return 0.55 + 0.45 * u; // in [0.55, 1.0]
    };

    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j) {
                // Intra-DC: LAN latency; a single connection saturates
                // the NIC (Section 2.1), so the conn cap is the NIC cap.
                topo.rtt_.at(i, j) = rttModel.params().baseRtt / 4.0;
                topo.connCap_.at(i, j) = rttModel.params().maxConnCap;
                topo.pathCap_.at(i, j) = 10000.0;
                continue;
            }
            const Kilometers km =
                distanceKm(regions_[i], regions_[j]);
            topo.distance_.at(i, j) = km;
            topo.rtt_.at(i, j) = rttModel.rtt(km);
            topo.connCap_.at(i, j) = rttModel.connCap(topo.rtt_.at(i, j));
            topo.pathCap_.at(i, j) = kBackboneCap;
            topo.routeQuality_.at(i, j) =
                pairQuality(regions_[i], regions_[j]);
        }
    }
    return topo;
}

Topology
TopologyBuilder::paperTestbed(std::size_t n, const VmType &type,
                              std::size_t vmsPerDc)
{
    TopologyBuilder builder;
    for (const auto &region : RegionCatalog::scaledMesh(n))
        builder.addDc(region, type, vmsPerDc);
    return builder.build();
}

} // namespace net
} // namespace wanify
