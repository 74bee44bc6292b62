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
#include <mutex>
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

    /** Bootstrap sample size as a fraction of the training set. */
    double bootstrapFraction = 1.0;

    /** Draw bootstrap samples with replacement. */
    bool bootstrap = true;

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

class RandomForestRegressor
{
  public:
    explicit RandomForestRegressor(ForestConfig config = {});

    /**
     * Copies share the (immutable) compiled snapshot; the tree
     * ensemble itself is deep-copied. Needed explicitly because the
     * lazy-compile guard is not copyable.
     */
    RandomForestRegressor(const RandomForestRegressor &other);
    RandomForestRegressor &operator=(const RandomForestRegressor &other);

    /** Train from scratch, replacing any existing trees. */
    void fit(const Dataset &data, std::uint64_t seed);

    /**
     * Warm start: keep existing trees and grow @p extraTrees new ones
     * on @p data (typically the union of old and newly collected
     * samples, which the caller maintains). On an untrained forest
     * this is the initial fit: the extra trees become the whole
     * ensemble and @p data locks in the feature and output counts,
     * which later warm starts must match. extraTrees must be > 0 — a
     * tree-less "retrain" would silently keep reporting the stale
     * model's accuracy. oobR2() afterwards covers the newly grown
     * batch only.
     */
    void warmStart(const Dataset &data, std::size_t extraTrees,
                   std::uint64_t seed);

    /**
     * Ensemble-mean prediction — the interpreted reference path. Hot
     * paths should go through compiled() instead; both produce
     * bit-identical results.
     */
    std::vector<double> predict(const std::vector<double> &x) const;

    /** Single-output shortcut. */
    double predictScalar(const std::vector<double> &x) const;

    /**
     * The compiled inference engine for the current ensemble, built
     * lazily on first use after fit()/warmStart() and invalidated
     * whenever trees regrow. Thread-safe against concurrent readers;
     * the reference stays valid until the next (non-const) refit.
     */
    const CompiledForest &compiled() const;

    bool trained() const { return !trees_.empty(); }
    std::size_t treeCount() const { return trees_.size(); }

    /** The fitted ensemble (reference path; benches emulate legacy
     *  per-call-allocating inference through this view). */
    const std::vector<DecisionTreeRegressor> &trees() const
    {
        return trees_;
    }

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
    void growTrees(const Dataset &data, std::size_t count,
                   std::uint64_t seed);
    void computeOob(const Dataset &data,
                    const std::vector<std::vector<std::size_t>> &bags);
    void invalidateCompiled();

    ForestConfig config_;
    std::vector<DecisionTreeRegressor> trees_;
    std::size_t featureCount_ = 0;
    double oobR2_ = 0.0;

    /**
     * Lazily built compiled snapshot, guarded by compiledMu_. Shared
     * (not deep-copied) across forest copies: a CompiledForest is
     * immutable once built.
     */
    mutable std::shared_ptr<const CompiledForest> compiled_;
    mutable std::mutex compiledMu_;
};

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_RANDOM_FOREST_HH
