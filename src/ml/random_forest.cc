#include "ml/random_forest.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/error.hh"
#include "common/thread_pool.hh"
#include "ml/training_context.hh"

namespace wanify {
namespace ml {

namespace {

/**
 * Out-of-bag R^2 of one grown batch (@p bags[t] is @p batch[t]'s
 * bootstrap sample); NaN when OOB coverage is insufficient.
 */
double
batchOobR2(const Dataset &data, const SharedTrees &batch,
           const std::vector<std::vector<std::size_t>> &bags)
{
    const std::size_t n = data.size();

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
            pred += batch[t]->predict(data.x(i));
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
    if (covered < 2 || ssTot <= 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return 1.0 - ssRes / ssTot;
}

} // namespace

RandomForestRegressor::RandomForestRegressor(ForestConfig config)
    : config_(config)
{
    fatalIf(config_.nEstimators == 0,
            "RandomForest: nEstimators must be > 0");
    fatalIf(config_.bootstrapFraction <= 0.0 ||
                config_.bootstrapFraction > 1.0,
            "RandomForest: bootstrapFraction must be in (0, 1]");
}

const CompiledForest &
RandomForestRegressor::compiled() const
{
    static const CompiledForest untrained;
    return compiled_ != nullptr ? *compiled_ : untrained;
}

void
RandomForestRegressor::fit(const Dataset &data, std::uint64_t seed)
{
    fatalIf(data.empty(), "RandomForest::fit: empty dataset");
    // Adopted only when whole: a throw leaves this forest untouched.
    RandomForestRegressor fresh(config_);
    fresh.growTrees(data, config_.nEstimators, seed);
    *this = std::move(fresh);
}

void
RandomForestRegressor::warmStart(const Dataset &data,
                                 std::size_t extraTrees,
                                 std::uint64_t seed)
{
    fatalIf(data.empty(), "RandomForest::warmStart: empty dataset");
    fatalIf(extraTrees == 0, "RandomForest::warmStart: extraTrees == 0");
    fatalIf(!trees_.empty() && data.featureCount() != featureCount_,
            "RandomForest::warmStart: feature count changed");
    growTrees(data, extraTrees, seed ^ 0xa5a5a5a5a5a5a5a5ULL);
}

void
RandomForestRegressor::growTrees(const Dataset &data, std::size_t count,
                                 std::uint64_t seed)
{
    const std::size_t n = data.size();
    const auto bagSize = static_cast<std::size_t>(
        std::max(1.0, config_.bootstrapFraction *
                          static_cast<double>(n)));

    // Shared per-batch training state, built once and read-only
    // across the parallel tree tasks: the columnized data and the
    // per-feature presort.
    const TrainingContext ctx(data);

    // Per-tree seeds are fixed before any tree grows, and each tree
    // lands in a pre-assigned slot: the trained forest is identical
    // whether the loop below runs sequentially or on the pool.
    const auto treeSeeds = deriveSeeds(seed, count);
    SharedTrees batch(count);
    std::vector<std::vector<std::size_t>> bags(count);

    auto growOne = [&](std::size_t t) {
        Rng treeRng(treeSeeds[t]);
        std::vector<std::size_t> bag =
            treeRng.sampleWithReplacement(n, bagSize);
        auto tree = std::make_shared<DecisionTreeRegressor>(config_.tree);
        tree->fit(ctx, bag, treeRng);
        batch[t] = std::move(tree);
        bags[t] = std::move(bag);
    };

    // The batch grows, is scored and is compiled off to the side: a
    // throw anywhere before the publish below leaves the forest in
    // its prior state.
    if (config_.nThreads == 0) {
        ThreadPool::global().parallelFor(count, growOne);
    } else if (config_.nThreads == 1) {
        for (std::size_t t = 0; t < count; ++t)
            growOne(t);
    } else {
        ThreadPool local(config_.nThreads);
        local.parallelFor(count, growOne);
    }
    const double oob = batchOobR2(data, batch, bags);
    auto extended = std::make_shared<const CompiledForest>(compiled(),
                                                           batch);
    trees_.reserve(trees_.size() + count);

    // Publish; nothing below throws.
    trees_.insert(trees_.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
    compiled_ = std::move(extended);
    featureCount_ = data.featureCount();
    oobR2_ = oob;
}

std::vector<double>
RandomForestRegressor::featureImportances() const
{
    std::vector<double> gains(featureCount_, 0.0);
    for (const auto &tree : trees_) {
        const auto &treeGains = tree->featureGains();
        for (std::size_t f = 0; f < featureCount_; ++f)
            gains[f] += treeGains[f];
    }
    double total = 0.0;
    for (double g : gains)
        total += g;
    if (total > 0.0) {
        for (auto &g : gains)
            g /= total;
    }
    return gains;
}

} // namespace ml
} // namespace wanify
