/**
 * @file
 * Shared per-fit state for fast tree training.
 *
 * The legacy splitter re-sorted the node's whole index set for every
 * candidate feature at every node — O(nodes * features * n log n) —
 * and chased the Dataset's row-major vector-of-vectors for each read.
 * A TrainingContext is built once per fit and shared (immutably)
 * across every tree of the forest: it columnizes the features,
 * copies out the one target per sample, and precomputes one argsort
 * per feature.
 * Trees then derive their bootstrap-bag orderings from the shared
 * argsort in O(n) and partition them down the tree instead of
 * re-sorting per node.
 *
 * TreeScratch holds every per-node buffer a grower needs (index
 * arrays and candidate-feature lists), pooled per thread
 * and reused across nodes, trees, and fits, so steady-state training
 * allocates nothing per node.
 */

#ifndef WANIFY_ML_TRAINING_CONTEXT_HH
#define WANIFY_ML_TRAINING_CONTEXT_HH

#include <cstdint>
#include <vector>

#include "ml/dataset.hh"

namespace wanify {
namespace ml {

class TrainingContext
{
  public:
    /**
     * Columnize and presort @p data. The context only reads @p data
     * during construction.
     */
    explicit TrainingContext(const Dataset &data);

    std::size_t sampleCount() const { return sampleCount_; }
    std::size_t featureCount() const { return featureCount_; }

    /** Feature @p f of sample @p i (column-major storage). */
    double
    x(std::size_t i, std::size_t f) const
    {
        return features_[f * sampleCount_ + i];
    }

    /** Target of sample @p i. */
    double y(std::size_t i) const { return targets_[i]; }

    /**
     * Sample indices sorted by (feature value, sample index) — the
     * canonical tie order the node-sort oracle follows too.
     */
    const std::uint32_t *
    order(std::size_t f) const
    {
        return order_.data() + f * sampleCount_;
    }

  private:
    std::size_t sampleCount_ = 0;
    std::size_t featureCount_ = 0;
    std::vector<double> features_; // column-major
    std::vector<double> targets_;
    std::vector<std::uint32_t> order_;
};

/**
 * Per-thread grower scratch: every buffer is resized (never shrunk)
 * on use, so repeated fits on a pool worker stop allocating once the
 * buffers reach steady state. Obtain via threadScratch().
 */
struct TreeScratch
{
    /** Bag multiplicity per dataset sample. */
    std::vector<std::uint32_t> bagCount;

    /** Node membership in bag order, partitioned down the tree. */
    std::vector<std::uint32_t> members;

    /** Per-feature bag orderings (featureCount * bagSize, flat). */
    std::vector<std::uint32_t> sorted;

    /** Partition spill buffer (right-side members). */
    std::vector<std::uint32_t> spill;

    /** Candidate feature list of the current node. */
    std::vector<std::size_t> features;
};

/** The calling thread's pooled scratch. */
TreeScratch &threadScratch();

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_TRAINING_CONTEXT_HH
