#include "ml/decision_tree.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "ml/training_context.hh"

namespace wanify {
namespace ml {

/**
 * Grows one tree against a shared TrainingContext. A node is a
 * contiguous range [lo, hi) of the scratch arrays: `members` holds the
 * node's samples in bootstrap-bag order (the canonical accumulation
 * order for node sums and leaf means, matching the node-sort oracle's
 * inherited order), and `sorted` holds one bag ordering per feature —
 * derived once per tree from the context's dataset argsort —
 * partitioned alongside the members, so no node ever sorts anything.
 */
struct TreeGrower
{
    DecisionTreeRegressor &tree;
    const TrainingContext &ctx;
    TreeScratch &s;
    Rng &rng;
    std::size_t bagSize = 0;

    using SplitResult = DecisionTreeRegressor::SplitResult;

    void
    grow(const std::vector<std::size_t> &bag)
    {
        bagSize = bag.size();
        const std::size_t n = ctx.sampleCount();
        s.members.resize(bagSize);
        for (std::size_t i = 0; i < bagSize; ++i) {
            if (bag[i] >= n)
                fatal("DecisionTree: sample index out of range");
            s.members[i] = static_cast<std::uint32_t>(bag[i]);
        }

        // Per-feature bag orderings in the canonical (value, sample
        // index) order, derived in O(n) per feature from the
        // context's shared argsort: emit each dataset sample as many
        // times as the bag drew it. Duplicates of one sample are
        // interchangeable (identical feature and target values), so
        // this order is FP-equivalent to stably sorting the bag
        // itself.
        s.bagCount.assign(n, 0);
        for (std::uint32_t id : s.members)
            ++s.bagCount[id];
        const std::size_t f = ctx.featureCount();
        s.sorted.resize(f * bagSize);
        for (std::size_t feat = 0; feat < f; ++feat) {
            const std::uint32_t *order = ctx.order(feat);
            std::uint32_t *out = s.sorted.data() + feat * bagSize;
            std::size_t w = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint32_t id = order[i];
                for (std::uint32_t c = s.bagCount[id]; c > 0; --c)
                    out[w++] = id;
            }
            if (w != bagSize)
                panic("DecisionTree: bag ordering size mismatch");
        }

        s.spill.resize(bagSize);
        build(0, bagSize, 0);
    }

    /** Candidate features into s.features (same draws as the oracle). */
    void
    candidateFeatures()
    {
        const std::size_t f = ctx.featureCount();
        const std::size_t maxF = tree.config_.maxFeatures;
        if (maxF == 0 || maxF >= f) {
            s.features.resize(f);
            for (std::size_t i = 0; i < f; ++i)
                s.features[i] = i;
        } else {
            rng.sampleWithoutReplacementInto(f, maxF, s.features);
        }
    }

    SplitResult
    bestSplit(std::size_t lo, std::size_t hi)
    {
        SplitResult best;
        const std::size_t n = hi - lo;
        if (n < tree.config_.minSamplesSplit)
            return best;

        // Node sums over members (bag order) -> parent SSE.
        double sum = 0.0, sumSq = 0.0;
        for (std::size_t pos = lo; pos < hi; ++pos) {
            const double y = ctx.y(s.members[pos]);
            sum += y;
            sumSq += y * y;
        }
        const double parentSse =
            sumSq - sum * sum / static_cast<double>(n);
        if (parentSse <= 1.0e-12)
            return best; // pure node

        candidateFeatures();

        for (std::size_t f : s.features) {
            const std::uint32_t *ord =
                s.sorted.data() + f * bagSize + lo;
            double leftSum = 0.0, leftSumSq = 0.0;

            for (std::size_t pos = 0; pos + 1 < n; ++pos) {
                const std::uint32_t id = ord[pos];
                const double y = ctx.y(id);
                leftSum += y;
                leftSumSq += y * y;
                const double xHere = ctx.x(id, f);
                const double xNext = ctx.x(ord[pos + 1], f);
                if (xNext <= xHere)
                    continue; // ties: no threshold between equals

                const std::size_t nl = pos + 1;
                const std::size_t nr = n - nl;
                if (nl < tree.config_.minSamplesLeaf ||
                    nr < tree.config_.minSamplesLeaf)
                    continue;

                const double rs = sum - leftSum;
                const double rss = sumSq - leftSumSq;
                double childSse =
                    leftSumSq -
                    leftSum * leftSum / static_cast<double>(nl);
                childSse += rss - rs * rs / static_cast<double>(nr);
                const double gain = parentSse - childSse;
                if (gain > best.gain + 1.0e-12) {
                    best.found = true;
                    best.feature = f;
                    best.threshold = 0.5 * (xHere + xNext);
                    best.gain = gain;
                }
            }
        }
        return best;
    }

    /**
     * Stable in-place partition of [lo, hi) of @p arr by the split
     * predicate (feature value <= threshold) via the spill buffer;
     * returns the left-side count.
     */
    std::size_t
    partitionRange(std::uint32_t *arr, std::size_t lo, std::size_t hi,
                   const SplitResult &split)
    {
        std::size_t w = lo, spilled = 0;
        for (std::size_t pos = lo; pos < hi; ++pos) {
            const std::uint32_t id = arr[pos];
            if (ctx.x(id, split.feature) <= split.threshold)
                arr[w++] = id;
            else
                s.spill[spilled++] = id;
        }
        std::copy(s.spill.begin(),
                  s.spill.begin() + static_cast<std::ptrdiff_t>(spilled),
                  arr + w);
        return w - lo;
    }

    void
    makeLeaf(std::size_t nodeIdx, std::size_t lo, std::size_t hi)
    {
        double mean = 0.0;
        for (std::size_t pos = lo; pos < hi; ++pos)
            mean += ctx.y(s.members[pos]);
        mean /= static_cast<double>(hi - lo);
        tree.nodes_[nodeIdx].leafValue = mean;
    }

    int
    build(std::size_t lo, std::size_t hi, std::size_t depth)
    {
        const int nodeIdx = static_cast<int>(tree.nodes_.size());
        tree.nodes_.emplace_back();

        SplitResult split;
        if (depth < tree.config_.maxDepth)
            split = bestSplit(lo, hi);

        if (!split.found) {
            makeLeaf(static_cast<std::size_t>(nodeIdx), lo, hi);
            return nodeIdx;
        }

        tree.featureGains_[split.feature] += split.gain;

        const std::size_t nl =
            partitionRange(s.members.data(), lo, hi, split);
        if (nl == 0 || nl == hi - lo)
            panic("DecisionTree: degenerate split");
        // Every per-feature ordering partitions by the same predicate,
        // so children keep one shared [lo, hi) range and stay sorted
        // (stable partition preserves order).
        for (std::size_t f = 0; f < ctx.featureCount(); ++f) {
            const std::size_t got = partitionRange(
                s.sorted.data() + f * bagSize, lo, hi, split);
            if (got != nl)
                panic("DecisionTree: inconsistent partition");
        }

        auto &node = tree.nodes_[static_cast<std::size_t>(nodeIdx)];
        node.feature = static_cast<int>(split.feature);
        node.threshold = split.threshold;
        const int left = build(lo, lo + nl, depth + 1);
        const int right = build(lo + nl, hi, depth + 1);
        tree.nodes_[static_cast<std::size_t>(nodeIdx)].left = left;
        tree.nodes_[static_cast<std::size_t>(nodeIdx)].right = right;
        return nodeIdx;
    }
};

DecisionTreeRegressor::DecisionTreeRegressor(TreeConfig config)
    : config_(config)
{}

void
DecisionTreeRegressor::fit(const Dataset &data, Rng &rng)
{
    std::vector<std::size_t> all(data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        all[i] = i;
    fit(data, all, rng);
}

void
DecisionTreeRegressor::fit(const Dataset &data,
                           const std::vector<std::size_t> &sampleIndices,
                           Rng &rng)
{
    fatalIf(data.empty(), "DecisionTreeRegressor::fit: empty dataset");
    fatalIf(sampleIndices.empty(),
            "DecisionTreeRegressor::fit: no sample indices");

    // Standalone fit: build a private context. Forests build one
    // shared context per grow batch and use the overload directly.
    const TrainingContext ctx(data);
    fit(ctx, sampleIndices, rng);
}

void
DecisionTreeRegressor::fit(const TrainingContext &ctx,
                           const std::vector<std::size_t> &sampleIndices,
                           Rng &rng)
{
    fatalIf(sampleIndices.empty(),
            "DecisionTreeRegressor::fit: no sample indices");
    featureCount_ = ctx.featureCount();
    nodes_.clear();
    featureGains_.assign(featureCount_, 0.0);

    TreeGrower grower{*this, ctx, threadScratch(), rng, 0};
    grower.grow(sampleIndices);
}

double
DecisionTreeRegressor::predict(const std::vector<double> &x) const
{
    panicIf(nodes_.empty(), "DecisionTree::predict before fit");
    fatalIf(x.size() != featureCount_,
            "DecisionTree::predict: feature count mismatch");
    int idx = 0;
    while (nodes_[static_cast<std::size_t>(idx)].feature >= 0) {
        const Node &node = nodes_[static_cast<std::size_t>(idx)];
        idx = x[static_cast<std::size_t>(node.feature)] <= node.threshold
                  ? node.left
                  : node.right;
    }
    return nodes_[static_cast<std::size_t>(idx)].leafValue;
}

std::size_t
DecisionTreeRegressor::depth() const
{
    // Build order is pre-order (TreeGrower::build appends a node
    // before growing its children), so every child sits after its
    // parent and one forward pass settles each node's depth.
    std::vector<std::size_t> level(nodes_.size(), 1);
    std::size_t deepest = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &node = nodes_[i];
        if (node.feature < 0) {
            deepest = std::max(deepest, level[i]);
            continue;
        }
        level[static_cast<std::size_t>(node.left)] = level[i] + 1;
        level[static_cast<std::size_t>(node.right)] = level[i] + 1;
    }
    return deepest;
}

} // namespace ml
} // namespace wanify
