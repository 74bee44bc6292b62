/**
 * @file
 * Bagged Random Forest regressor.
 *
 * The paper's WAN Prediction Model: an ensemble of CART trees trained on
 * bootstrap samples with optional feature subsampling; predictions are
 * ensemble means. The bias-variance trade-off of bagging is what lets
 * the model generalize across the WAN's dynamics (Section 5.8.2). The
 * forest supports warm start — retraining on additional data while
 * keeping already-grown trees — used when Nmax changes (Section 3.3.2)
 * or the drift detector flags the model as out of date (Section 3.3.4).
 */

#ifndef WANIFY_ML_RANDOM_FOREST_HH
#define WANIFY_ML_RANDOM_FOREST_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/compiled_forest.hh"
#include "ml/decision_tree.hh"

namespace wanify {
namespace ml {

/** Forest hyperparameters. */
struct ForestConfig
{
    /** Paper: 100 estimators yielded the best training accuracy. */
    std::size_t nEstimators = 100;

    TreeConfig tree;

    /** Bootstrap sample size as a fraction of the training set
     *  (each tree draws its bag with replacement). */
    double bootstrapFraction = 1.0;

    /**
     * Training parallelism: 0 = grow trees on the process-wide
     * ThreadPool, 1 = grow sequentially on the calling thread, k > 1
     * = at most k threads (a private pool of k - 1 workers plus the
     * caller). Every mode produces bit-identical forests: per-tree
     * seeds are derived up front (splitmix64 from the caller's seed)
     * and each tree is written to its fixed slot.
     */
    std::size_t nThreads = 0;
};

/**
 * Fitted trees and the compiled snapshot are immutable and held by
 * shared pointer, so copying a forest copies pointers, not nodes: a
 * copy shares every tree and the compiled forest with its source,
 * and a later fit() or warmStart() on either side replaces only that
 * side's pointers. The defaulted copy and move operations are
 * therefore cheap and correct.
 */
class RandomForestRegressor
{
  public:
    explicit RandomForestRegressor(ForestConfig config = {});

    /**
     * Train from scratch, replacing any existing trees only once the
     * new ones are grown and compiled: a fit that throws keeps the
     * prior forest. @p data, here and in warmStart(), must have
     * exactly one target.
     */
    void fit(const Dataset &data, std::uint64_t seed);

    /**
     * Warm start: keep existing trees and grow @p extraTrees new ones
     * on @p data (typically the union of old and newly collected
     * samples, which the caller maintains). On an untrained forest
     * this is the initial fit: the extra trees become the whole
     * ensemble and @p data locks in the feature count, which later
     * warm starts must match. extraTrees must be > 0 — a
     * tree-less "retrain" would silently keep reporting the stale
     * model's accuracy. oobR2() afterwards covers the newly grown
     * batch only. The new trees are compiled by extending the
     * current compiled forest; if growing or compiling throws, the
     * forest keeps its prior trees and compiled forest.
     */
    void warmStart(const Dataset &data, std::size_t extraTrees,
                   std::uint64_t seed);

    /**
     * The inference engine: the ensemble mean of the current trees,
     * compiled by fit()/warmStart() together with them (empty, so its
     * predictions panic, until the forest is trained). Safe for
     * concurrent readers; the reference stays valid until the next
     * fit()/warmStart() on this forest. tests/oracles/forest_predict.hh
     * keeps the interpreted ensemble mean it is held bit-identical to.
     */
    const CompiledForest &compiled() const;

    bool trained() const { return !trees_.empty(); }
    std::size_t treeCount() const { return trees_.size(); }

    /** The fitted ensemble (parity oracles and benches walk the
     *  trees through this view). */
    const SharedTrees &trees() const { return trees_; }

    /**
     * Out-of-bag R^2 estimate from the most recent fit()/warmStart()
     * call (samples never drawn by a tree's bootstrap vote on it).
     * Returns NaN when OOB coverage is insufficient.
     */
    double oobR2() const { return oobR2_; }

    /** Normalized impurity feature importances (sums to 1). */
    std::vector<double> featureImportances() const;

    const ForestConfig &config() const { return config_; }

  private:
    /**
     * Grow @p count trees on @p data after the current ones, compile
     * them onto the current compiled forest, and only then publish
     * trees, compiled forest and OOB R^2 together.
     */
    void growTrees(const Dataset &data, std::size_t count,
                   std::uint64_t seed);

    ForestConfig config_;
    SharedTrees trees_;
    std::size_t featureCount_ = 0;
    double oobR2_ = 0.0;

    /** Compiled trees_; null while the forest is untrained. */
    std::shared_ptr<const CompiledForest> compiled_;
};

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_RANDOM_FOREST_HH
