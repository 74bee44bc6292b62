#include "core/heterogeneity.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace wanify {
namespace core {

Matrix<double>
providerRvec(const net::Topology &topo)
{
    const std::size_t n = topo.dcCount();
    Matrix<double> rvec = Matrix<double>::square(n, 1.0);

    // A DC's capability is its endpoint VM's WAN cap (probes run there).
    std::vector<Mbps> capability(n, 0.0);
    for (net::DcId i = 0; i < n; ++i)
        capability[i] = topo.vm(topo.endpointVm(i)).type.wanCapMbps;
    const Mbps reference =
        *std::max_element(capability.begin(), capability.end());

    for (net::DcId i = 0; i < n; ++i) {
        for (net::DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            // Pairs limited by a weaker endpoint scale down
            // proportionally; homogeneous clusters stay at 1.
            const Mbps weaker =
                std::min(capability[i], capability[j]);
            rvec.at(i, j) = weaker / reference;
        }
    }
    return rvec;
}

BwMatrix
associateBw(const net::Topology &topo, const BwMatrix &perVmBw)
{
    const std::size_t n = topo.dcCount();
    fatalIf(perVmBw.rows() != n || perVmBw.cols() != n,
            "associateBw: shape mismatch");

    BwMatrix combined = perVmBw;
    for (net::DcId i = 0; i < n; ++i) {
        for (net::DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const double vmFactor = static_cast<double>(
                std::min(topo.dc(i).vms.size(), topo.dc(j).vms.size()));
            combined.at(i, j) = std::min(
                perVmBw.at(i, j) * vmFactor, topo.pathCap(i, j));
        }
    }
    return combined;
}

std::vector<ConnMatrix>
chunkConnections(const net::Topology &topo, const ConnMatrix &dcPlan)
{
    const std::size_t n = topo.dcCount();
    fatalIf(dcPlan.rows() != n || dcPlan.cols() != n,
            "chunkConnections: shape mismatch");

    std::size_t maxVms = 1;
    for (const auto &dc : topo.dcs())
        maxVms = std::max(maxVms, dc.vms.size());

    std::vector<ConnMatrix> perWorker(
        maxVms, ConnMatrix::square(n, 1));
    for (net::DcId i = 0; i < n; ++i) {
        const auto workers = topo.dc(i).vms.size();
        for (net::DcId j = 0; j < n; ++j) {
            const int share = std::max(
                1, static_cast<int>(std::ceil(
                       static_cast<double>(dcPlan.at(i, j)) /
                       static_cast<double>(workers))));
            for (std::size_t k = 0; k < maxVms; ++k) {
                perWorker[k].at(i, j) =
                    k < workers ? share : 0;
            }
        }
    }
    return perWorker;
}

} // namespace core
} // namespace wanify
