/**
 * @file
 * Dynamic local optimization (Section 3.2.2): AIMD fine-tuning of the
 * per-destination connection counts and target BWs within the range the
 * global optimizer provided.
 *
 * Every epoch (5 s) the optimizer compares the monitored egress rate to
 * the current target. If the monitored BW falls short by more than the
 * significance threshold (100 Mbps — congestion), it enters
 * multiplicative-decrease mode: connections and target BW drop to the
 * max of the configured minimum and half the previous value. Otherwise
 * it additively increases: +1 connection and a linear BW bump (target BW
 * tracks predicted-BW x connections, the same linearity the global
 * optimizer relies on) until the maximum configuration is reached.
 * Pairs with less than 1 MB pending skip the update entirely (their
 * monitored rate says nothing about the network).
 */

#ifndef WANIFY_CORE_LOCAL_OPTIMIZER_HH
#define WANIFY_CORE_LOCAL_OPTIMIZER_HH

#include <vector>

#include "core/global_optimizer.hh"

namespace wanify {
namespace core {

/** AIMD tunables. */
struct AimdConfig
{
    /** Epoch between target updates (Fig. 9 uses 5 s). */
    Seconds epoch = 5.0;

    /** Congestion significance threshold (Mbps). */
    Mbps significantDelta = 100.0;

    /** Pairs with fewer pending bytes than this are skipped. */
    Bytes minTransferSize = 1024.0 * 1024.0;
};

/**
 * AIMD controller for one source DC.
 *
 * Targets start at the *maximum* configuration (the system begins from
 * maximum throughput and backs off on congestion, reducing RTT bias).
 */
class LocalOptimizer
{
  public:
    /**
     * @param sourceDc    DC this agent runs in
     * @param plan        global plan (whole matrices; rows for sourceDc
     *                    are used)
     * @param predictedBw predicted runtime BW row for sourceDc,
     *                    indexed by destination DC
     */
    LocalOptimizer(std::size_t sourceDc, const GlobalPlan &plan,
                   std::vector<Mbps> predictedBw, AimdConfig cfg = {});

    /**
     * One AIMD epoch.
     *
     * @param monitoredBw  achieved egress rate per destination DC
     *                     (ifTop window average)
     * @param pendingBytes bytes still queued per destination DC
     */
    void epochUpdate(const std::vector<Mbps> &monitoredBw,
                     const std::vector<Bytes> &pendingBytes);

    int targetConnections(std::size_t dst) const;
    Mbps targetBw(std::size_t dst) const;

    std::size_t sourceDc() const { return sourceDc_; }
    std::size_t dcCount() const { return cons_.size(); }
    const AimdConfig &config() const { return cfg_; }

  private:
    std::size_t sourceDc_;
    AimdConfig cfg_;

    std::vector<int> minCons_, maxCons_;
    std::vector<Mbps> minBw_, maxBw_;
    std::vector<Mbps> predictedBw_;

    std::vector<int> cons_;
    std::vector<Mbps> bw_;
};

} // namespace core
} // namespace wanify

#endif // WANIFY_CORE_LOCAL_OPTIMIZER_HH
