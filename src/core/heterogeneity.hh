/**
 * @file
 * Heterogeneity handling (Section 3.3.3): refactoring vectors for
 * multi-cloud providers and association for DCs hosting multiple VMs.
 *
 * Refactoring: BWs between different providers / machine types vary
 * proportionally; a per-pair multiplier matrix (rvec) generated a priori
 * rescales determined BWs. Refactoring is optional — the default rvec of
 * all ones is a no-op.
 *
 * Association: when the DC-VM mapping is one-to-many, per-VM BWs are
 * summed to reflect a DC's combined BW; connection plans computed for
 * the "one large VM" view are then chunked proportionally across the
 * DC's workers.
 */

#ifndef WANIFY_CORE_HETEROGENEITY_HH
#define WANIFY_CORE_HETEROGENEITY_HH

#include <vector>

#include "core/bw.hh"
#include "net/topology.hh"

namespace wanify {
namespace core {

/**
 * Build an rvec from the topology's providers and VM types: pairs whose
 * endpoints differ in provider or WAN capability are scaled by the
 * ratio of their capabilities, reflecting the proportional BW variation
 * observed empirically.
 */
Matrix<double> providerRvec(const net::Topology &topo);

/**
 * Association: scale a probe-measured (per-VM) BW matrix to DC-level
 * combined BW by multiplying each pair with the smaller endpoint's VM
 * count (aggregate parallel NICs), clamped by the pair's backbone
 * capacity.
 */
BwMatrix associateBw(const net::Topology &topo, const BwMatrix &perVmBw);

/**
 * Chunk a DC-level connection plan across a DC's workers: worker k of
 * DC i receives ceil(plan / vmCount) connections toward each peer,
 * never less than one.
 */
std::vector<ConnMatrix> chunkConnections(const net::Topology &topo,
                                         const ConnMatrix &dcPlan);

} // namespace core
} // namespace wanify

#endif // WANIFY_CORE_HETEROGENEITY_HH
