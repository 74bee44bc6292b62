/**
 * @file
 * ifTop-like node-level runtime traffic monitor.
 *
 * WANify's local agents use a lightweight per-node monitor (the paper
 * cites ifTop) to observe the achieved egress rate toward every peer DC
 * during query execution. This implementation differences the
 * simulator's cumulative per-pair byte counters across a sampling
 * window, which mirrors how ifTop computes rates from interface
 * counters.
 */

#ifndef WANIFY_MONITOR_IFTOP_HH
#define WANIFY_MONITOR_IFTOP_HH

#include <vector>

#include "common/matrix.hh"
#include "common/units.hh"
#include "net/network_sim.hh"

namespace wanify {
namespace monitor {

/** Windowed rate monitor for one source DC. */
class IfTop
{
  public:
    /** Monitor egress of @p sourceDc on @p sim. */
    IfTop(const net::NetworkSim &sim, net::DcId sourceDc);

    /** Begin a sampling window at the current sim time. */
    void beginWindow();

    /**
     * Close the window and return the average egress rate to every
     * destination DC (index = DcId; the source's own entry is 0).
     * Returns zeros if no time elapsed.
     */
    std::vector<Mbps> endWindow();

    net::DcId sourceDc() const { return sourceDc_; }

  private:
    const net::NetworkSim &sim_;
    net::DcId sourceDc_;
    Seconds windowStart_ = 0.0;
    std::vector<Bytes> bytesAtStart_;
    bool windowOpen_ = false;
};

} // namespace monitor
} // namespace wanify

#endif // WANIFY_MONITOR_IFTOP_HH
