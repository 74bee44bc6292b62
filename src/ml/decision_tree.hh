/**
 * @file
 * CART regression tree over one target.
 *
 * Splits minimize the within-node sum of squared errors; leaves
 * predict the mean target of their training samples. Trees are robust
 * to the outliers that plague parametric regressions on WAN bandwidth
 * data (Section 3.1's motivation for tree-based learners).
 *
 * Splits are found by a presorted engine: one argsort per feature
 * per fit (shared across a forest's trees via TrainingContext), with
 * per-feature index arrays partitioned down the tree. Samples follow
 * one canonical order — feature value ascending, ties broken by
 * sample index — so results do not depend on the standard library's
 * sort implementation. tests/oracles/node_sort.hh keeps the legacy
 * per-node-sorting splitter the engine is held bit-identical to.
 */

#ifndef WANIFY_ML_DECISION_TREE_HH
#define WANIFY_ML_DECISION_TREE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "ml/dataset.hh"

namespace wanify {
namespace ml {

class TrainingContext;
struct TreeScratch;

/** Tree growth limits. */
struct TreeConfig
{
    std::size_t maxDepth = 14;
    std::size_t minSamplesSplit = 4;
    std::size_t minSamplesLeaf = 2;

    /**
     * Features considered per split; 0 = all (CART default for
     * regression). The forest sets this for feature bagging.
     */
    std::size_t maxFeatures = 0;
};

class DecisionTreeRegressor
{
  public:
    explicit DecisionTreeRegressor(TreeConfig config = {});

    /**
     * Fit on the rows of @p data selected by @p sampleIndices (the
     * forest passes bootstrap samples; pass all indices for a plain
     * tree). @p rng drives feature subsampling. Builds a private
     * TrainingContext, which refuses a dataset without exactly one
     * target; forests share one context across all trees via the
     * overload below.
     */
    void fit(const Dataset &data,
             const std::vector<std::size_t> &sampleIndices, Rng &rng);

    /** Fit on the full dataset. */
    void fit(const Dataset &data, Rng &rng);

    /**
     * Fit against a shared, immutable TrainingContext. Safe to call
     * concurrently on distinct trees with the same context —
     * per-node scratch comes from the calling thread's pool.
     */
    void fit(const TrainingContext &ctx,
             const std::vector<std::size_t> &sampleIndices, Rng &rng);

    /** The matched leaf's value for a feature vector. */
    double predict(const std::vector<double> &x) const;

    bool trained() const { return !nodes_.empty(); }
    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t featureCount() const { return featureCount_; }

    /** Nodes on the longest root-to-leaf path (a lone leaf is 1). */
    std::size_t depth() const;

    /** One tree node; leaves have feature == -1. */
    struct Node
    {
        /** -1 for leaves. */
        int feature = -1;
        double threshold = 0.0;
        int left = -1;
        int right = -1;
        double leafValue = 0.0;
    };

    /**
     * The node array in build order (root at index 0). CompiledForest
     * flattens trees through this view.
     */
    const std::vector<Node> &nodes() const { return nodes_; }

    /**
     * Total SSE reduction contributed by each feature across all splits
     * (unnormalized impurity importance).
     */
    const std::vector<double> &featureGains() const
    {
        return featureGains_;
    }

  private:
    friend struct TreeGrower;

    struct SplitResult
    {
        bool found = false;
        std::size_t feature = 0;
        double threshold = 0.0;
        double gain = 0.0;
    };

    TreeConfig config_;
    std::size_t featureCount_ = 0;
    std::vector<Node> nodes_;
    std::vector<double> featureGains_;
};

/**
 * A forest's fitted trees in ensemble order. A tree is immutable once
 * grown, so copies of a forest share it by pointer.
 */
using SharedTrees = std::vector<std::shared_ptr<const DecisionTreeRegressor>>;

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_DECISION_TREE_HH
