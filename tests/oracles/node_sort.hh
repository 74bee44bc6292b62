/**
 * @file
 * Parity oracle for the presorted tree trainer: the legacy splitter
 * that re-sorts the node's index set for every candidate feature at
 * every node — O(nodes * features * n log n) — kept verbatim from the
 * library so tests can hold ml::RandomForestRegressor bit-identical to
 * it, and bench_perf_training can time it as the "before" arm.
 *
 * NodeSortForest grows its trees the way RandomForestRegressor does:
 * per-tree seeds from deriveSeeds(seed, count), each tree's bootstrap
 * bag drawn first from that tree's own Rng, the same executor
 * (ForestConfig::nThreads: global pool, sequential, or a private
 * pool), warm starts seeded with seed ^ 0xa5a5a5a5a5a5a5a5, and the
 * out-of-bag R^2 over the newly grown batch. A change to any of these
 * in the library must be mirrored here.
 *
 * Header-only because CMake builds each tests/<name>.cc as its own
 * suite, so a shared oracle cannot live in a separate source file.
 */

#ifndef WANIFY_TESTS_ORACLES_NODE_SORT_HH
#define WANIFY_TESTS_ORACLES_NODE_SORT_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "ml/dataset.hh"
#include "ml/decision_tree.hh"
#include "ml/random_forest.hh"

namespace wanify {
namespace oracle {

/** One CART tree grown by the node-sorting splitter. */
class NodeSortTree
{
  public:
    using Node = ml::DecisionTreeRegressor::Node;

    explicit NodeSortTree(ml::TreeConfig config) : config_(config) {}

    /** Fit on the rows of @p data selected by @p sampleIndices. */
    void
    fit(const ml::Dataset &data,
        const std::vector<std::size_t> &sampleIndices, Rng &rng)
    {
        featureCount_ = data.featureCount();
        nodes_.clear();
        featureGains_.assign(featureCount_, 0.0);
        std::vector<std::size_t> indices = sampleIndices;
        buildNodeSort(data, indices, 0, rng);
    }

    /** The matched leaf's value (the library's tree walk). */
    double
    predict(const std::vector<double> &x) const
    {
        panicIf(nodes_.empty(), "DecisionTree::predict before fit");
        fatalIf(x.size() != featureCount_,
                "DecisionTree::predict: feature count mismatch");
        int idx = 0;
        while (nodes_[static_cast<std::size_t>(idx)].feature >= 0) {
            const Node &node = nodes_[static_cast<std::size_t>(idx)];
            idx = x[static_cast<std::size_t>(node.feature)] <=
                          node.threshold
                      ? node.left
                      : node.right;
        }
        return nodes_[static_cast<std::size_t>(idx)].leafValue;
    }

    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<double> &featureGains() const
    {
        return featureGains_;
    }

  private:
    struct SplitResult
    {
        bool found = false;
        std::size_t feature = 0;
        double threshold = 0.0;
        double gain = 0.0;
    };

    int buildNodeSort(const ml::Dataset &data,
                      std::vector<std::size_t> &indices,
                      std::size_t depth, Rng &rng);

    SplitResult bestSplitNodeSort(const ml::Dataset &data,
                                  const std::vector<std::size_t> &indices,
                                  Rng &rng) const;

    double meanTarget(const ml::Dataset &data,
                      const std::vector<std::size_t> &indices) const;

    ml::TreeConfig config_;
    std::size_t featureCount_ = 0;
    std::vector<Node> nodes_;
    std::vector<double> featureGains_;
};

inline double
NodeSortTree::meanTarget(
    const ml::Dataset &data, const std::vector<std::size_t> &indices) const
{
    double mean = 0.0;
    for (std::size_t i : indices)
        mean += data.y(i);
    mean /= static_cast<double>(indices.size());
    return mean;
}

inline NodeSortTree::SplitResult
NodeSortTree::bestSplitNodeSort(
    const ml::Dataset &data, const std::vector<std::size_t> &indices,
    Rng &rng) const
{
    SplitResult best;
    const std::size_t n = indices.size();
    if (n < config_.minSamplesSplit)
        return best;

    // Parent SSE via sum and sum of squares.
    double sum = 0.0, sumSq = 0.0;
    for (std::size_t i : indices) {
        const double y = data.y(i);
        sum += y;
        sumSq += y * y;
    }
    const double parentSse =
        sumSq - sum * sum / static_cast<double>(n);
    if (parentSse <= 1.0e-12)
        return best; // pure node

    // Candidate features (all, or a random subset for feature bagging).
    std::vector<std::size_t> features;
    if (config_.maxFeatures == 0 ||
        config_.maxFeatures >= featureCount_) {
        features.resize(featureCount_);
        for (std::size_t f = 0; f < featureCount_; ++f)
            features[f] = f;
    } else {
        features = rng.sampleWithoutReplacement(featureCount_,
                                                config_.maxFeatures);
    }

    std::vector<std::size_t> sorted(indices);

    for (std::size_t f : features) {
        // Canonical order: feature value, ties by sample index —
        // the same total order the presorted exact engine inherits
        // from the dataset argsort, so the two engines accumulate
        // identical floating-point sums.
        std::sort(sorted.begin(), sorted.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double xa = data.x(a)[f];
                      const double xb = data.x(b)[f];
                      return xa < xb || (xa == xb && a < b);
                  });
        double leftSum = 0.0, leftSumSq = 0.0;

        for (std::size_t pos = 0; pos + 1 < n; ++pos) {
            const double y = data.y(sorted[pos]);
            leftSum += y;
            leftSumSq += y * y;
            const double xHere = data.x(sorted[pos])[f];
            const double xNext = data.x(sorted[pos + 1])[f];
            if (xNext <= xHere)
                continue; // ties: no valid threshold between equal values

            const std::size_t nl = pos + 1;
            const std::size_t nr = n - nl;
            if (nl < config_.minSamplesLeaf ||
                nr < config_.minSamplesLeaf)
                continue;

            const double rs = sum - leftSum;
            const double rss = sumSq - leftSumSq;
            double childSse =
                leftSumSq - leftSum * leftSum / static_cast<double>(nl);
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

inline int
NodeSortTree::buildNodeSort(const ml::Dataset &data,
                            std::vector<std::size_t> &indices,
                            std::size_t depth, Rng &rng)
{
    const int nodeIdx = static_cast<int>(nodes_.size());
    nodes_.emplace_back();

    SplitResult split;
    if (depth < config_.maxDepth)
        split = bestSplitNodeSort(data, indices, rng);

    if (!split.found) {
        nodes_[nodeIdx].leafValue = meanTarget(data, indices);
        return nodeIdx;
    }

    featureGains_[split.feature] += split.gain;

    std::vector<std::size_t> left, right;
    left.reserve(indices.size());
    right.reserve(indices.size());
    for (std::size_t i : indices) {
        if (data.x(i)[split.feature] <= split.threshold)
            left.push_back(i);
        else
            right.push_back(i);
    }
    panicIf(left.empty() || right.empty(),
            "DecisionTree: degenerate split");

    indices.clear();
    indices.shrink_to_fit();

    nodes_[nodeIdx].feature = static_cast<int>(split.feature);
    nodes_[nodeIdx].threshold = split.threshold;
    nodes_[nodeIdx].left = buildNodeSort(data, left, depth + 1, rng);
    nodes_[nodeIdx].right = buildNodeSort(data, right, depth + 1, rng);
    return nodeIdx;
}

/**
 * A forest of NodeSortTrees seeded, bagged and scheduled like
 * ml::RandomForestRegressor (see the file comment).
 */
class NodeSortForest
{
  public:
    explicit NodeSortForest(ml::ForestConfig config) : config_(config) {}

    /** Train from scratch, replacing any existing trees. */
    void
    fit(const ml::Dataset &data, std::uint64_t seed)
    {
        trees_.clear();
        growTrees(data, config_.nEstimators, seed);
    }

    /** Keep existing trees and grow @p extraTrees new ones. */
    void
    warmStart(const ml::Dataset &data, std::size_t extraTrees,
              std::uint64_t seed)
    {
        growTrees(data, extraTrees, seed ^ 0xa5a5a5a5a5a5a5a5ULL);
    }

    const std::vector<NodeSortTree> &trees() const { return trees_; }

    /** Out-of-bag R^2 of the most recent fit() or warmStart(). */
    double oobR2() const { return oobR2_; }

  private:
    void
    growTrees(const ml::Dataset &data, std::size_t count,
              std::uint64_t seed)
    {
        const std::size_t n = data.size();
        const auto bagSize = static_cast<std::size_t>(
            std::max(1.0, config_.bootstrapFraction *
                              static_cast<double>(n)));

        const auto treeSeeds = deriveSeeds(seed, count);
        const std::size_t firstNew = trees_.size();
        trees_.resize(firstNew + count, NodeSortTree(config_.tree));
        std::vector<std::vector<std::size_t>> bags(count);

        auto growOne = [&](std::size_t t) {
            Rng treeRng(treeSeeds[t]);
            std::vector<std::size_t> bag =
                treeRng.sampleWithReplacement(n, bagSize);
            NodeSortTree tree(config_.tree);
            tree.fit(data, bag, treeRng);
            trees_[firstNew + t] = std::move(tree);
            bags[t] = std::move(bag);
        };

        if (config_.nThreads == 0) {
            ThreadPool::global().parallelFor(count, growOne);
        } else if (config_.nThreads == 1) {
            for (std::size_t t = 0; t < count; ++t)
                growOne(t);
        } else {
            ThreadPool local(config_.nThreads);
            local.parallelFor(count, growOne);
        }
        computeOob(data, bags);
    }

    void
    computeOob(
        const ml::Dataset &data,
        const std::vector<std::vector<std::size_t>> &bags)
    {
        // OOB over the trees grown in this batch only.
        const std::size_t n = data.size();
        const std::size_t firstNew = trees_.size() - bags.size();

        std::vector<std::vector<bool>> inBag(
            bags.size(), std::vector<bool>(n, false));
        for (std::size_t t = 0; t < bags.size(); ++t)
            for (std::size_t i : bags[t])
                if (i < n)
                    inBag[t][i] = true;

        double ssRes = 0.0, ssTot = 0.0, meanY = 0.0;
        std::size_t covered = 0;
        for (std::size_t i = 0; i < n; ++i)
            meanY += data.y(i);
        meanY /= static_cast<double>(n);

        for (std::size_t i = 0; i < n; ++i) {
            double pred = 0.0;
            std::size_t votes = 0;
            for (std::size_t t = 0; t < bags.size(); ++t) {
                if (inBag[t][i])
                    continue;
                pred += trees_[firstNew + t].predict(data.x(i));
                ++votes;
            }
            if (votes == 0)
                continue;
            pred /= static_cast<double>(votes);
            const double yi = data.y(i);
            ssRes += (yi - pred) * (yi - pred);
            ssTot += (yi - meanY) * (yi - meanY);
            ++covered;
        }
        if (covered < 2 || ssTot <= 0.0) {
            oobR2_ = std::numeric_limits<double>::quiet_NaN();
            return;
        }
        oobR2_ = 1.0 - ssRes / ssTot;
    }

    ml::ForestConfig config_;
    std::vector<NodeSortTree> trees_;
    double oobR2_ = 0.0;
};

/**
 * The first difference between @p tree and @p ref, or "" when they
 * match bit for bit: node count, then each node's feature,
 * threshold, children and leaf values, then the feature gains.
 */
inline std::string
treeMismatch(const ml::DecisionTreeRegressor &tree,
             const NodeSortTree &ref)
{
    const auto &got = tree.nodes();
    const auto &want = ref.nodes();
    if (got.size() != want.size())
        return "node count " + std::to_string(got.size()) +
               " != " + std::to_string(want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &a = got[i];
        const auto &b = want[i];
        const char *field =
            a.feature != b.feature       ? "feature"
            : a.threshold != b.threshold ? "threshold"
            : a.left != b.left || a.right != b.right ? "children"
            : a.leafValue != b.leafValue             ? "leaf value"
                                                     : nullptr;
        if (field != nullptr)
            return "node " + std::to_string(i) + ": " + field;
    }
    if (tree.featureGains() != ref.featureGains())
        return "feature gains";
    return "";
}

/**
 * treeMismatch over every tree of @p forest against @p ref, then the
 * out-of-bag R^2 (NaN matches NaN); "" when all match.
 */
inline std::string
forestMismatch(const ml::RandomForestRegressor &forest,
               const NodeSortForest &ref)
{
    if (forest.treeCount() != ref.trees().size())
        return "tree count " + std::to_string(forest.treeCount()) +
               " != " + std::to_string(ref.trees().size());
    for (std::size_t t = 0; t < forest.treeCount(); ++t) {
        const std::string diff =
            treeMismatch(*forest.trees()[t], ref.trees()[t]);
        if (!diff.empty())
            return "tree " + std::to_string(t) + " " + diff;
    }
    const double a = forest.oobR2();
    const double b = ref.oobR2();
    if (!(a == b || (std::isnan(a) && std::isnan(b))))
        return "OOB R^2";
    return "";
}

} // namespace oracle
} // namespace wanify

#endif // WANIFY_TESTS_ORACLES_NODE_SORT_HH
