/**
 * @file
 * Feature/target dataset container for the regression stack.
 *
 * Samples are rows; features are stored densely and each sample has
 * one target, the one number every tree in the library regresses.
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

    /** Create an empty dataset with fixed dimensionality;
     *  @p targetCount must be 1. */
    explicit Dataset(std::size_t featureCount,
                     std::size_t targetCount = 1);

    /** Append one sample; its feature count must match the dataset's. */
    void add(std::vector<double> features, double target);

    std::size_t size() const { return features_.size(); }
    std::size_t featureCount() const { return featureCount_; }
    bool empty() const { return features_.empty(); }

    const std::vector<double> &x(std::size_t i) const;
    double y(std::size_t i) const;

    /** Append all samples of another dataset (shapes must match). */
    void append(const Dataset &other);

    /** Random split into (train, test) with trainFraction in (0, 1). */
    std::pair<Dataset, Dataset> split(double trainFraction,
                                      Rng &rng) const;

    /** Dataset restricted to the given sample indices. */
    Dataset subset(const std::vector<std::size_t> &indices) const;

  private:
    std::size_t featureCount_ = 0;
    std::vector<std::vector<double>> features_;
    std::vector<double> targets_;
};

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_DATASET_HH
