/**
 * @file
 * VM instance type catalog.
 *
 * Cloud providers limit network performance by instance type and size and
 * throttle WAN traffic to roughly half the NIC capacity (Section 2.1's
 * m5.large example: 10 Gbps NIC, 5 Gbps WAN). The paper uses t2.large for
 * the Spark master, t2.medium for workers, t3.nano for monitoring probes,
 * and GCP e2-medium in the multi-cloud test.
 */

#ifndef WANIFY_NET_VM_HH
#define WANIFY_NET_VM_HH

#include <string>

#include "common/units.hh"

namespace wanify {
namespace net {

/** Instance-type capabilities relevant to the simulation. */
struct VmType
{
    std::string name;
    int vcpus = 2;
    double memoryGb = 4.0;

    /** Total NIC capacity (sum of inbound and outbound). */
    Mbps nicCapMbps = 4000.0;

    /** WAN throttle applied by the provider (per direction). */
    Mbps wanCapMbps = 2000.0;

    /**
     * Relative compute rate in work-units per second. A work-unit is
     * normalized so that one t2.medium vCPU processes one unit of task
     * work per second.
     */
    double computeRate = 2.0;

    /** On-demand price, $/hour. */
    Dollars pricePerHour = 0.0464;
};

/** Known instance types. */
class VmTypeCatalog
{
  public:
    static VmType t3nano();
    static VmType t2medium();
    static VmType t2large();
    static VmType m5large();
    static VmType e2medium(); ///< GCP, for the multi-cloud experiment
};

} // namespace net
} // namespace wanify

#endif // WANIFY_NET_VM_HH
