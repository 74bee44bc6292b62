#include "monitor/iftop.hh"

#include "common/error.hh"

namespace wanify {
namespace monitor {

using net::DcId;

IfTop::IfTop(const net::NetworkSim &sim, DcId sourceDc)
    : sim_(sim), sourceDc_(sourceDc)
{
    if (sourceDc >= sim.topology().dcCount())
        fatal("IfTop: source DC out of range");
}

void
IfTop::beginWindow()
{
    const std::size_t n = sim_.topology().dcCount();
    bytesAtStart_.assign(n, 0.0);
    for (DcId j = 0; j < n; ++j)
        bytesAtStart_[j] = sim_.pairBytes(sourceDc_, j);
    windowStart_ = sim_.now();
    windowOpen_ = true;
}

std::vector<Mbps>
IfTop::endWindow()
{
    if (!windowOpen_)
        panic("IfTop::endWindow without beginWindow");
    windowOpen_ = false;
    const std::size_t n = sim_.topology().dcCount();
    std::vector<Mbps> rates(n, 0.0);
    const Seconds dt = sim_.now() - windowStart_;
    if (dt <= 0.0)
        return rates;
    for (DcId j = 0; j < n; ++j) {
        if (j == sourceDc_)
            continue;
        const Bytes moved =
            sim_.pairBytes(sourceDc_, j) - bytesAtStart_[j];
        rates[j] = units::rateFor(moved, dt);
    }
    return rates;
}

} // namespace monitor
} // namespace wanify
