#include "core/global_optimizer.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "core/dc_relations.hh"

namespace wanify {
namespace core {

GlobalOptimizer::GlobalOptimizer(GlobalOptimizerConfig config)
    : config_(config)
{
    if (config_.maxConnections < 1)
        fatal("GlobalOptimizer: maxConnections must be >= 1");
    if (config_.absoluteMaxConnections < config_.maxConnections)
        fatal("GlobalOptimizer: absolute clamp below maxConnections");
}

GlobalPlan
GlobalOptimizer::optimize(const BwMatrix &predictedBw,
                          const std::vector<double> &skewWeights,
                          const Matrix<double> &rvec) const
{
    if (predictedBw.rows() != predictedBw.cols())
        fatal("GlobalOptimizer: non-square BW matrix");
    const std::size_t n = predictedBw.rows();
    if (n < 2)
        fatal("GlobalOptimizer: need at least 2 DCs");
    if (!skewWeights.empty() && skewWeights.size() != n)
        fatal("GlobalOptimizer: skew weight size mismatch");
    if (!rvec.empty() && (rvec.rows() != n || rvec.cols() != n))
        fatal("GlobalOptimizer: rvec shape mismatch");

    GlobalPlan plan;
    plan.dcRel = inferDcRelations(predictedBw, config_.minDifference);

    // Eq. 2: sumall skips closeness index 1 on the diagonal; maxri is
    // the row-wise maximum closeness.
    double sumAll = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            sumAll += plan.dcRel.at(i, j);
    sumAll -= static_cast<double>(n);
    if (sumAll <= 0.0)
        panic("GlobalOptimizer: degenerate DCrel matrix");

    std::vector<double> maxRow(n, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        maxRow[i] = static_cast<double>(plan.dcRel.rowMax(i));

    const int m = config_.maxConnections;
    plan.minCons = ConnMatrix::square(n, 1);
    plan.maxCons = ConnMatrix::square(n, 1);
    plan.minBw = BwMatrix::square(n, 0.0);
    plan.maxBw = BwMatrix::square(n, 0.0);

    auto pairWeight = [&](std::size_t i, std::size_t j) {
        if (skewWeights.empty())
            return 1.0;
        return std::max(skewWeights[i], skewWeights[j]);
    };
    auto pairRvec = [&](std::size_t i, std::size_t j) {
        return rvec.empty() ? 1.0 : rvec.at(i, j);
    };
    auto clampCons = [&](double c) {
        return std::clamp(static_cast<int>(std::lround(c)), 1,
                          config_.absoluteMaxConnections);
    };

    // Skew weights *re-allocate* the per-row connection budget
    // (Section 3.3.1) — data-heavy DCs' links gain connections at the
    // expense of the rest, but the row's total budget (and hence the
    // host's congestion exposure) stays what Eq. 3 computed.
    for (std::size_t i = 0; i < n; ++i) {
        double rawMinSum = 0.0, rawMaxSum = 0.0;
        double weightedMinSum = 0.0, weightedMaxSum = 0.0;
        std::vector<double> rawMin(n, 1.0), rawMax(n, 1.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double rel =
                static_cast<double>(plan.dcRel.at(i, j));
            // Eq. 3: minCandidate / minCons (unweighted).
            const double minCandidate =
                std::floor(rel / sumAll * static_cast<double>(m - 1));
            rawMin[j] = std::max(minCandidate, 1.0);
            // Eq. 3: maxCons; diagonal pairs need one connection only
            // (a single connection saturates intra-DC links).
            rawMax[j] =
                i == j ? 1.0
                       : std::ceil(static_cast<double>(m) * rel /
                                   maxRow[i]);
            if (i != j) {
                rawMinSum += rawMin[j];
                rawMaxSum += rawMax[j];
                weightedMinSum += rawMin[j] * pairWeight(i, j);
                weightedMaxSum += rawMax[j] * pairWeight(i, j);
            }
        }

        const double minScale =
            weightedMinSum > 0.0 ? rawMinSum / weightedMinSum : 1.0;
        const double maxScale =
            weightedMaxSum > 0.0 ? rawMaxSum / weightedMaxSum : 1.0;

        for (std::size_t j = 0; j < n; ++j) {
            int minCons = 1, maxCons = 1;
            if (i == j) {
                minCons = clampCons(rawMin[j]);
            } else {
                const double ws = pairWeight(i, j);
                minCons = clampCons(rawMin[j] * ws * minScale);
                maxCons = clampCons(rawMax[j] * ws * maxScale);
            }
            maxCons = std::max(maxCons, minCons);

            plan.minCons.at(i, j) = minCons;
            plan.maxCons.at(i, j) = maxCons;

            // Achievable BW grows linearly with connections (empirical
            // observation backing Eq. 3), modulated by rvec.
            const double rv = pairRvec(i, j);
            plan.minBw.at(i, j) =
                predictedBw.at(i, j) * minCons * rv;
            plan.maxBw.at(i, j) =
                predictedBw.at(i, j) * maxCons * rv;
        }
    }
    return plan;
}

} // namespace core
} // namespace wanify
