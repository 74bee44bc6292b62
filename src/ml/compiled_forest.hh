/**
 * @file
 * Compiled, allocation-free batched inference for the Random Forest.
 *
 * The interpreted ensemble walks per-tree `Node` structs one feature
 * vector at a time: fine for training-time OOB accounting, far too
 * heavy for the predict→plan hot path, which evaluates the WAN
 * Prediction Model once per DC pair, per AIMD epoch, per trial
 * (Sections 3.3, 4.1.1: runtime gauging must stay cheap).
 * CompiledForest flattens every tree into one contiguous packed array
 * — one 16-byte record per node (threshold + both child references,
 * each carrying the child's feature index), with each leaf's value
 * parked in its own record — so a prediction is a pure pointer-free
 * array walk: zero allocations, no per-node indirection,
 * cache-friendly, and branch-free on the random 50/50 splits that
 * defeat branch prediction.
 *
 * A compiled forest is immutable and is built by extension only: the
 * packed arrays of an existing compiled forest, then the trees that
 * follow it. RandomForestRegressor compiles at fit() and, on a warm
 * start, copies its current arrays and flattens just the new batch,
 * so a drift retrain never recompiles the trees it keeps.
 *
 * predictRow() evaluates one feature row; predictBatch() evaluates a
 * row-major matrix of rows, optionally chunked across the process-wide
 * ThreadPool. Every row writes a fixed output slot, so the parallel
 * batch is bit-identical to the sequential one, and both are
 * bit-identical to the interpreted ensemble mean kept in
 * tests/oracles/forest_predict.hh: trees are accumulated in the same
 * order with the same arithmetic.
 */

#ifndef WANIFY_ML_COMPILED_FOREST_HH
#define WANIFY_ML_COMPILED_FOREST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/decision_tree.hh"

namespace wanify {
namespace ml {

class CompiledForest
{
  public:
    /** An empty compiled forest; predictions panic. */
    CompiledForest() = default;

    /**
     * Copy the packed arrays of @p prefix and flatten @p trees (all
     * fitted, with the prefix's feature count) after them: the
     * result predicts the ensemble "prefix's trees, then @p trees".
     * A one-shot compile extends an empty prefix. Only the new trees'
     * shapes are checked (the prefix's were checked when it was
     * built); the 32-bit child-reference limit covers the whole node
     * count, prefix included.
     */
    CompiledForest(const CompiledForest &prefix,
                   const SharedTrees &trees);

    bool empty() const { return treeCount_ == 0; }
    std::size_t treeCount() const { return treeCount_; }
    std::size_t featureCount() const { return featureCount_; }
    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t leafCount() const { return leafCount_; }

    /**
     * Ensemble-mean prediction of one feature row; @p x must hold
     * featureCount() values. Allocation-free and safe to call
     * concurrently.
     */
    double predictRow(const double *x) const;

    /**
     * Predict @p rows feature rows from the row-major matrix @p X
     * (rows x featureCount()) into @p Y (rows values). With
     * @p parallel the rows are chunked across the process-wide
     * ThreadPool; each row writes only its own output slot, so the
     * result is bit-identical to the sequential path.
     */
    void predictBatch(const double *X, std::size_t rows, double *Y,
                      bool parallel = true) const;

  private:
    /** Tree-major evaluation of rows [begin, end) into Y. */
    void predictRange(const double *X, std::size_t begin,
                      std::size_t end, double *Y) const;
    /**
     * One packed 16-byte record per node, trees laid out back to
     * back in build order (each tree's root first): the split
     * threshold plus both child references. A child reference packs
     * the child's node index with the *child's own* feature index
     * (childIdx * featureCount + childFeature), so on arriving at a
     * node the walk already knows which feature to compare — one
     * 16-byte load and one feature load per step, no separate
     * feature array on the hot path.
     *
     * Leaves are compiled branchless: both child references point
     * back to the leaf itself, so a lockstep walk can overshoot a
     * shallow leaf safely (the self-loop absorbs surplus steps) and
     * batches walk several rows per tree in lockstep to hide the
     * dependent-load latency. Because the select lands on the leaf
     * whichever way its comparison goes, a leaf's threshold field is
     * dead, so it stores the leaf value and accumulation never leaves
     * the node array.
     */
    struct PackedNode
    {
        double threshold = 0.0;
        std::uint32_t left = 0;
        std::uint32_t right = 0;
    };
    static_assert(sizeof(PackedNode) == 16,
                  "PackedNode must stay a quarter of a cache line");

    std::vector<PackedNode> nodes_;

    /**
     * Per tree: the root's packed reference (rootIdx << featShift_ |
     * rootFeature) and walk steps to the deepest leaf.
     */
    std::vector<std::uint32_t> rootRef_;
    std::vector<std::int32_t> depth_;

    /** Child-reference packing: ref = (idx << featShift_) | feature. */
    std::uint32_t featShift_ = 0;
    std::uint32_t featMask_ = 0;

    std::size_t treeCount_ = 0;
    std::size_t featureCount_ = 0;
    std::size_t leafCount_ = 0;
};

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_COMPILED_FOREST_HH
