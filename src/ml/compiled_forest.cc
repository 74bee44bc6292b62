#include "ml/compiled_forest.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/thread_pool.hh"

namespace wanify {
namespace ml {

CompiledForest::CompiledForest(const CompiledForest &prefix,
                               const SharedTrees &trees)
{
    if (trees.empty()) {
        *this = prefix;
        return;
    }
    featureCount_ = prefix.empty() ? trees.front()->featureCount()
                                   : prefix.featureCount_;

    std::size_t totalNodes = prefix.nodes_.size();
    for (const auto &tree : trees) {
        if (!tree->trained())
            fatal("CompiledForest: unfitted tree in ensemble");
        if (tree->featureCount() != featureCount_)
            fatal("CompiledForest: tree shape mismatch");
        totalNodes += tree->nodeCount();
    }

    // Child references pack (node index, child feature) into 32 bits.
    featShift_ = 0;
    while ((1ull << featShift_) < featureCount_)
        ++featShift_;
    featMask_ = (1u << featShift_) - 1u;
    if (totalNodes >= (1ull << (32u - featShift_)))
        fatal("CompiledForest: ensemble too large for packed 32-bit "
              "child references");

    // The prefix's records stay valid verbatim: its references are
    // absolute indices into the front of the same arrays.
    auto extend = [](auto &dst, const auto &src, std::size_t total) {
        dst.reserve(total);
        dst.insert(dst.end(), src.begin(), src.end());
    };
    treeCount_ = prefix.treeCount_ + trees.size();
    leafCount_ = prefix.leafCount_;
    extend(nodes_, prefix.nodes_, totalNodes);
    extend(rootRef_, prefix.rootRef_, treeCount_);
    extend(depth_, prefix.depth_, treeCount_);

    for (const auto &tree : trees) {
        const auto &src = tree->nodes();
        const auto base = static_cast<std::uint32_t>(nodes_.size());

        // ref = (absolute index << featShift_) | node's own feature:
        // a step lands with the next comparison's feature in hand.
        auto packRef = [&](int local) {
            const int feat =
                src[static_cast<std::size_t>(local)].feature;
            return ((base + static_cast<std::uint32_t>(local))
                    << featShift_) |
                   static_cast<std::uint32_t>(feat < 0 ? 0 : feat);
        };

        rootRef_.push_back(packRef(0));
        // Fixed walk length: a leaf at depth d absorbs the remaining
        // steps via its self-loop, so depth() - 1 steps land every
        // row on its leaf.
        depth_.push_back(static_cast<std::int32_t>(tree->depth()) - 1);

        for (std::size_t local = 0; local < src.size(); ++local) {
            const auto &node = src[local];
            PackedNode packed;
            if (node.feature < 0) {
                // Branchless leaf: both children loop back to self,
                // so the walk parks here whichever way the comparison
                // goes — which leaves the threshold field dead. It
                // carries the leaf value instead, so accumulation
                // reads the node already in cache.
                packed.threshold = node.leafValue;
                packed.left = packRef(static_cast<int>(local));
                packed.right = packed.left;
                ++leafCount_;
            } else {
                packed.threshold = node.threshold;
                packed.left = packRef(node.left);
                packed.right = packRef(node.right);
            }
            nodes_.push_back(packed);
        }
    }
}

double
CompiledForest::predictRow(const double *x) const
{
    if (empty())
        panic("CompiledForest::predictRow on empty forest");

    // Same accumulation order and arithmetic as the interpreted
    // ensemble mean: per-tree leaf sums in tree order, one divide.
    const PackedNode *nodes = nodes_.data();
    const std::uint32_t shift = featShift_;
    const std::uint32_t mask = featMask_;

    double sum = 0.0;
    for (std::size_t t = 0; t < treeCount_; ++t) {
        std::uint32_t ref = rootRef_[t];
        for (;;) {
            const PackedNode &node = nodes[ref >> shift];
            const auto goLeft = static_cast<std::uint32_t>(
                x[ref & mask] <= node.threshold);
            const std::uint32_t next =
                node.right ^
                ((node.left ^ node.right) & (0u - goLeft));
            if (next == ref)
                break; // leaf self-loop
            ref = next;
        }
        // The leaf value lives in the parked node.
        sum += nodes[ref >> shift].threshold;
    }
    return sum / static_cast<double>(treeCount_);
}

void
CompiledForest::predictRange(const double *X, std::size_t begin,
                             std::size_t end, double *Y) const
{
    const std::size_t f = featureCount_;
    for (std::size_t r = begin; r < end; ++r)
        Y[r] = 0.0;

    const PackedNode *nodes = nodes_.data();
    const std::uint32_t shift = featShift_;
    const std::uint32_t mask = featMask_;

    // One walk step: land on the node, compare its feature value,
    // take a child reference. The child select is computed with mask
    // arithmetic — a ternary here compiles to a branch that random
    // 50/50 splits mispredict constantly.
    auto step = [&](std::uint32_t ref, const double *xrow) {
        const PackedNode &node = nodes[ref >> shift];
        const double v = xrow[ref & mask];
        const auto goLeft =
            static_cast<std::uint32_t>(v <= node.threshold);
        return node.right ^
               ((node.left ^ node.right) & (0u - goLeft));
    };

    // Walk a lane to its leaf (parks on the leaf's self-loop).
    auto finish = [&](std::uint32_t ref, const double *xrow) {
        for (;;) {
            const std::uint32_t next = step(ref, xrow);
            if (next == ref)
                return ref;
            ref = next;
        }
    };

    // Tree-major, lane-interleaved: walking one tree across a block
    // of eight rows keeps that tree's nodes cache-hot, and stepping
    // eight independent walks per round hides the dependent-load
    // latency a single walk serializes on. The lanes are individual
    // locals (not an array) so they live in registers. The walk runs
    // in two phases: a branch-free lockstep march to the typical
    // leaf depth (self-looping leaves absorb surplus steps), then a
    // per-lane early-exit finish for the few deep lanes, so shallow
    // leaves don't pay for the tree's maximum depth. Each row still
    // accumulates its leaves in tree order and divides once, so the
    // result is bit-identical to predictRow on that row.
    constexpr std::size_t kLanes = 8;
    const std::size_t blockEnd =
        begin + (end - begin) / kLanes * kLanes;

    for (std::size_t t = 0; t < treeCount_; ++t) {
        const std::uint32_t rootRef = rootRef_[t];
        const std::int32_t rounds = depth_[t];
        for (std::size_t r = begin; r < blockEnd; r += kLanes) {
            const double *x0 = X + r * f;
            const double *x1 = x0 + f;
            const double *x2 = x1 + f;
            const double *x3 = x2 + f;
            const double *x4 = x3 + f;
            const double *x5 = x4 + f;
            const double *x6 = x5 + f;
            const double *x7 = x6 + f;
            std::uint32_t r0 = rootRef, r1 = rootRef;
            std::uint32_t r2 = rootRef, r3 = rootRef;
            std::uint32_t r4 = rootRef, r5 = rootRef;
            std::uint32_t r6 = rootRef, r7 = rootRef;
            // Phase 1: lockstep to the typical leaf depth. Lanes
            // whose leaf sits shallower park on its self-loop.
            const std::int32_t lockstep =
                std::min<std::int32_t>(rounds, 9);
            for (std::int32_t d = lockstep; d > 0; --d) {
                r0 = step(r0, x0);
                r1 = step(r1, x1);
                r2 = step(r2, x2);
                r3 = step(r3, x3);
                r4 = step(r4, x4);
                r5 = step(r5, x5);
                r6 = step(r6, x6);
                r7 = step(r7, x7);
            }
            // Phase 2: finish the deep lanes individually instead of
            // marching every lane to the tree's maximum depth.
            if (lockstep < rounds) {
                r0 = finish(r0, x0);
                r1 = finish(r1, x1);
                r2 = finish(r2, x2);
                r3 = finish(r3, x3);
                r4 = finish(r4, x4);
                r5 = finish(r5, x5);
                r6 = finish(r6, x6);
                r7 = finish(r7, x7);
            }
            // Leaf values live in the parked nodes, already
            // cache-hot from the walk.
            const std::uint32_t refs[kLanes] = {r0, r1, r2, r3,
                                                r4, r5, r6, r7};
            for (std::size_t l = 0; l < kLanes; ++l)
                Y[r + l] += nodes[refs[l] >> shift].threshold;
        }
    }

    const double inv = static_cast<double>(treeCount_);
    for (std::size_t r = begin; r < blockEnd; ++r)
        Y[r] /= inv;

    // Tail rows (fewer than a full lane block): the single-row walk,
    // which is bit-identical by construction.
    for (std::size_t r = blockEnd; r < end; ++r)
        Y[r] = predictRow(X + r * f);
}

void
CompiledForest::predictBatch(const double *X, std::size_t rows,
                             double *Y, bool parallel) const
{
    if (empty())
        panic("CompiledForest::predictBatch on empty forest");
    if (rows == 0)
        return;

    // Chunked fan-out: each chunk owns a fixed row range and each row
    // a fixed output slot, so scheduling cannot change the result.
    // Chunks are multiples of the 8-row lane block (only the final
    // chunk may carry a sub-block tail, so no chunk boundary forces
    // rows through the slow single-row finish), sized for ~4 per pool
    // thread so an unlucky straggler costs a quarter-chunk of idle
    // time rather than half, with a 64-row floor below which the
    // tree-major walk stops amortizing its node loads. On a 1-thread
    // pool (single-core runners: the committed BENCH_inference
    // baseline's speedup_predict_batch_pool ~= 1.0 is exactly this
    // case) the fan-out is skipped and the batch walks one range.
    ThreadPool &pool = ThreadPool::global();
    const std::size_t threads = pool.threadCount();
    constexpr std::size_t kLaneBlock = 8;
    const std::size_t perChunk =
        (rows + 4 * threads - 1) / (4 * threads);
    const std::size_t chunk = std::max<std::size_t>(
        64, (perChunk + kLaneBlock - 1) / kLaneBlock * kLaneBlock);
    const std::size_t chunks = (rows + chunk - 1) / chunk;
    if (!parallel || threads == 1 || chunks < 2) {
        predictRange(X, 0, rows, Y);
        return;
    }
    pool.parallelFor(chunks, [&](std::size_t c) {
        predictRange(X, c * chunk,
                     std::min(rows, (c + 1) * chunk), Y);
    });
}

} // namespace ml
} // namespace wanify
