/**
 * @file
 * Feature/target dataset container for the regression stack.
 *
 * Samples are rows; features and targets are stored densely. The
 * forests train on one target per sample (TrainingContext refuses any
 * other count); a row may carry several targets only so that the
 * trace CSV layout (scenario::BwTrace, per-pair capacity and RTT
 * columns per timestamp) can round-trip through the CSV reader.
 */

#ifndef WANIFY_ML_DATASET_HH
#define WANIFY_ML_DATASET_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.hh"

namespace wanify {
namespace ml {

class Dataset
{
  public:
    Dataset() = default;

    /** Create an empty dataset with fixed dimensionality. */
    Dataset(std::size_t featureCount, std::size_t outputCount);

    /** Append one sample; sizes must match the dataset's shape. */
    void add(std::vector<double> features, std::vector<double> targets);

    /** Convenience for single-output problems. */
    void add(std::vector<double> features, double target);

    std::size_t size() const { return features_.size(); }
    std::size_t featureCount() const { return featureCount_; }
    std::size_t outputCount() const { return outputCount_; }
    bool empty() const { return features_.empty(); }

    const std::vector<double> &x(std::size_t i) const;
    const std::vector<double> &y(std::size_t i) const;

    /** Single-output shortcut: y(i)[0]. */
    double target(std::size_t i) const;

    /** Append all samples of another dataset (shapes must match). */
    void append(const Dataset &other);

    /** Random split into (train, test) with trainFraction in (0, 1). */
    std::pair<Dataset, Dataset> split(double trainFraction,
                                      Rng &rng) const;

    /** Dataset restricted to the given sample indices. */
    Dataset subset(const std::vector<std::size_t> &indices) const;

  private:
    std::size_t featureCount_ = 0;
    std::size_t outputCount_ = 0;
    std::vector<std::vector<double>> features_;
    std::vector<std::vector<double>> targets_;
};

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_DATASET_HH
