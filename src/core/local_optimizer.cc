#include "core/local_optimizer.hh"

#include <algorithm>

#include "common/error.hh"

namespace wanify {
namespace core {

LocalOptimizer::LocalOptimizer(std::size_t sourceDc,
                               const GlobalPlan &plan,
                               std::vector<Mbps> predictedBw,
                               AimdConfig cfg)
    : sourceDc_(sourceDc), cfg_(cfg), predictedBw_(std::move(predictedBw))
{
    const std::size_t n = plan.minCons.rows();
    if (sourceDc >= n)
        fatal("LocalOptimizer: sourceDc out of range");
    if (predictedBw_.size() != n)
        fatal("LocalOptimizer: predicted BW row size mismatch");

    minCons_.resize(n);
    maxCons_.resize(n);
    minBw_.resize(n);
    maxBw_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        minCons_[j] = plan.minCons.at(sourceDc, j);
        maxCons_[j] = plan.maxCons.at(sourceDc, j);
        minBw_[j] = plan.minBw.at(sourceDc, j);
        maxBw_[j] = plan.maxBw.at(sourceDc, j);
    }

    // Start from the maximum configuration (Section 3.2.2).
    cons_ = maxCons_;
    bw_ = maxBw_;
}

void
LocalOptimizer::epochUpdate(const std::vector<Mbps> &monitoredBw,
                            const std::vector<Bytes> &pendingBytes)
{
    const std::size_t n = cons_.size();
    if (monitoredBw.size() != n || pendingBytes.size() != n)
        fatal("LocalOptimizer::epochUpdate: vector size mismatch");

    for (std::size_t j = 0; j < n; ++j) {
        // Skip the agent's own DC, and tiny transfers: they say
        // nothing about network state, and updating on them would
        // thrash between increase and decrease (Section 3.2.2).
        if (j == sourceDc_ || pendingBytes[j] < cfg_.minTransferSize)
            continue;

        if (monitoredBw[j] < bw_[j] - cfg_.significantDelta) {
            // Multiplicative decrease: congestion detected.
            cons_[j] = std::max(minCons_[j], cons_[j] / 2);
            bw_[j] = std::max(minBw_[j], bw_[j] / 2.0);
        } else if (cons_[j] < maxCons_[j]) {
            // Additive increase: +1 connection, linear BW bump toward
            // predicted x connections.
            cons_[j] = std::min(maxCons_[j], cons_[j] + 1);
            const Mbps linear = predictedBw_[j] * cons_[j];
            bw_[j] = std::clamp(linear, minBw_[j], maxBw_[j]);
        }
    }
}

int
LocalOptimizer::targetConnections(std::size_t dst) const
{
    if (dst >= cons_.size())
        panic("targetConnections: out of range");
    return cons_[dst];
}

Mbps
LocalOptimizer::targetBw(std::size_t dst) const
{
    if (dst >= bw_.size())
        panic("targetBw: out of range");
    return bw_[dst];
}

} // namespace core
} // namespace wanify
