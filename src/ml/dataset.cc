#include "ml/dataset.hh"

#include "common/error.hh"

namespace wanify {
namespace ml {

Dataset::Dataset(std::size_t featureCount, std::size_t outputCount)
    : featureCount_(featureCount), outputCount_(outputCount)
{
    fatalIf(featureCount == 0, "Dataset: featureCount must be > 0");
    fatalIf(outputCount == 0, "Dataset: outputCount must be > 0");
}

void
Dataset::add(std::vector<double> features, std::vector<double> targets)
{
    if (featureCount_ == 0 && outputCount_ == 0) {
        featureCount_ = features.size();
        outputCount_ = targets.size();
    }
    fatalIf(features.size() != featureCount_,
            "Dataset::add: feature count mismatch");
    fatalIf(targets.size() != outputCount_,
            "Dataset::add: target count mismatch");
    features_.push_back(std::move(features));
    targets_.push_back(std::move(targets));
}

void
Dataset::add(std::vector<double> features, double target)
{
    add(std::move(features), std::vector<double>{target});
}

const std::vector<double> &
Dataset::x(std::size_t i) const
{
    panicIf(i >= size(), "Dataset::x out of range");
    return features_[i];
}

const std::vector<double> &
Dataset::y(std::size_t i) const
{
    panicIf(i >= size(), "Dataset::y out of range");
    return targets_[i];
}

double
Dataset::target(std::size_t i) const
{
    panicIf(outputCount_ != 1, "Dataset::target needs single output");
    return y(i)[0];
}

void
Dataset::append(const Dataset &other)
{
    fatalIf(other.featureCount_ != featureCount_ ||
                other.outputCount_ != outputCount_,
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
    Dataset out(featureCount_, outputCount_);
    for (std::size_t i : indices)
        out.add(x(i), y(i));
    return out;
}

} // namespace ml
} // namespace wanify
