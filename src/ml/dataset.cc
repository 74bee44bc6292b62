#include "ml/dataset.hh"

#include "common/error.hh"

namespace wanify {
namespace ml {

Dataset::Dataset(std::size_t featureCount, std::size_t targetCount)
    : featureCount_(featureCount)
{
    fatalIf(featureCount == 0, "Dataset: featureCount must be > 0");
    fatalIf(targetCount != 1, "Dataset: a sample has one target");
}

void
Dataset::add(std::vector<double> features, double target)
{
    if (featureCount_ == 0)
        featureCount_ = features.size();
    fatalIf(features.size() != featureCount_,
            "Dataset::add: feature count mismatch");
    features_.push_back(std::move(features));
    targets_.push_back(target);
}

const std::vector<double> &
Dataset::x(std::size_t i) const
{
    panicIf(i >= size(), "Dataset::x out of range");
    return features_[i];
}

double
Dataset::y(std::size_t i) const
{
    panicIf(i >= size(), "Dataset::y out of range");
    return targets_[i];
}

void
Dataset::append(const Dataset &other)
{
    fatalIf(other.featureCount_ != featureCount_,
            "Dataset::append: shape mismatch");
    // Reserve once instead of reallocating per row. The row count is
    // read before the loop, so d.append(d) doubles d; the reserve
    // keeps other.x(i) valid while rows are added.
    const std::size_t rows = other.size();
    features_.reserve(features_.size() + rows);
    targets_.reserve(targets_.size() + rows);
    for (std::size_t i = 0; i < rows; ++i)
        add(other.x(i), other.y(i));
}

std::pair<Dataset, Dataset>
Dataset::split(double trainFraction, Rng &rng) const
{
    fatalIf(trainFraction <= 0.0 || trainFraction >= 1.0,
            "Dataset::split: trainFraction must be in (0, 1)");
    std::vector<std::size_t> indices(size());
    for (std::size_t i = 0; i < size(); ++i)
        indices[i] = i;
    rng.shuffle(indices);
    const auto cut = static_cast<std::size_t>(
        trainFraction * static_cast<double>(size()));
    std::vector<std::size_t> trainIdx(indices.begin(),
                                      indices.begin() + cut);
    std::vector<std::size_t> testIdx(indices.begin() + cut,
                                     indices.end());
    return {subset(trainIdx), subset(testIdx)};
}

Dataset
Dataset::subset(const std::vector<std::size_t> &indices) const
{
    Dataset out(featureCount_);
    for (std::size_t i : indices)
        out.add(x(i), y(i));
    return out;
}

} // namespace ml
} // namespace wanify
