/**
 * @file
 * WANify local agent (Section 4.1.3): WAN Monitor + Local Optimizer +
 * Connections Manager for one DC.
 *
 * One agent runs per VM-hosting DC. Each epoch it reads the ifTop
 * window, feeds the AIMD optimizer, and pushes the resulting target
 * connection counts into the active transfers of its DC (the
 * connections-manager role: transfers sharing a destination split the
 * per-pair target evenly, never below one connection each).
 */

#ifndef WANIFY_CORE_LOCAL_AGENT_HH
#define WANIFY_CORE_LOCAL_AGENT_HH

#include <memory>
#include <vector>

#include "core/local_optimizer.hh"
#include "monitor/iftop.hh"
#include "net/network_sim.hh"

namespace wanify {
namespace core {

class LocalAgent
{
  public:
    /**
     * @param sim         live simulator the agent's DC sends through
     * @param sourceDc    the agent's DC
     * @param plan        global optimization output
     * @param predictedBw predicted BW row for sourceDc
     * @param cfg         AIMD configuration
     */
    LocalAgent(net::NetworkSim &sim, net::DcId sourceDc,
               const GlobalPlan &plan, std::vector<Mbps> predictedBw,
               AimdConfig cfg = {}, bool dynamicThrottling = false);

    /**
     * Run one AIMD epoch: close the monitoring window, update targets,
     * apply connection counts, and reopen the window.
     */
    void onEpoch();

    /** Apply current targets to active transfers without an update. */
    void applyTargets();

    /**
     * Restart the monitoring window at the current sim time. Call when
     * a new shuffle begins after a network-idle phase, so the first
     * epoch's monitored rates do not average over the idle period.
     */
    void resetWindow();

    const LocalOptimizer &optimizer() const { return optimizer_; }
    net::DcId sourceDc() const { return sourceDc_; }

    /** Target-BW standard deviation across destinations (Fig. 9). */
    double targetBwStddev() const;

    /** Monitored-BW standard deviation from the last closed window. */
    double monitoredBwStddev() const;

    /** Mean |target - monitored| across destinations (Mbps) — how far
     *  the AIMD targets sit from what the network actually delivers. */
    double meanTrackingError() const;

  private:
    /**
     * Dynamic BW throttling (Section 3.2.2): every epoch, compute the
     * threshold T as the mean monitored egress toward peers with
     * pending data and tc-cap BW-rich destinations at T. Applied
     * iteratively this drains capacity hogged by nearby DCs toward the
     * weak links until the row approaches balance — the WANify-TC
     * behaviour of Fig. 5.
     */
    void updateThrottles(const std::vector<Mbps> &monitored,
                         const std::vector<Bytes> &pending);

    net::NetworkSim &sim_;
    net::DcId sourceDc_;
    monitor::IfTop iftop_;
    LocalOptimizer optimizer_;
    std::vector<Mbps> lastMonitored_;
    bool dynamicThrottling_;

    /** Destinations currently identified as BW-rich (hysteresis: a
     *  capped pair's monitored rate equals its cap, so membership must
     *  be sticky or caps would oscillate epoch to epoch). */
    std::vector<bool> capped_;
};

} // namespace core
} // namespace wanify

#endif // WANIFY_CORE_LOCAL_AGENT_HH
