#include "net/vm.hh"

namespace wanify {
namespace net {

VmType
VmTypeCatalog::t3nano()
{
    // Unlimited-burst t3.nano as used by the monitoring probes; NIC
    // bursts to ~5.8 Gbps (sum of in and out), WAN throttled to half.
    return {"t3.nano", 2, 0.5, 5800.0, 2900.0, 1.2, 0.0052};
}

VmType
VmTypeCatalog::t2medium()
{
    return {"t2.medium", 2, 4.0, 4000.0, 2000.0, 2.0, 0.0464};
}

VmType
VmTypeCatalog::t2large()
{
    return {"t2.large", 2, 8.0, 5000.0, 2500.0, 2.0, 0.0928};
}

VmType
VmTypeCatalog::m5large()
{
    // Section 2.1's example: 10 Gbps NIC (in + out), 5 Gbps WAN.
    return {"m5.large", 2, 8.0, 10000.0, 5000.0, 2.6, 0.096};
}

VmType
VmTypeCatalog::e2medium()
{
    return {"e2-medium", 2, 4.0, 4000.0, 2000.0, 1.9, 0.0335};
}

} // namespace net
} // namespace wanify
