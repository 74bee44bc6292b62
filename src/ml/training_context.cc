#include "ml/training_context.hh"

#include <algorithm>
#include <limits>

#include "common/error.hh"

namespace wanify {
namespace ml {

TrainingContext::TrainingContext(const Dataset &data)
    : sampleCount_(data.size()), featureCount_(data.featureCount())
{
    fatalIf(data.empty(), "TrainingContext: empty dataset");
    fatalIf(sampleCount_ >=
                std::numeric_limits<std::uint32_t>::max(),
            "TrainingContext: dataset too large for 32-bit indices");

    features_.resize(sampleCount_ * featureCount_);
    targets_.resize(sampleCount_);
    for (std::size_t i = 0; i < sampleCount_; ++i) {
        const auto &x = data.x(i);
        for (std::size_t f = 0; f < featureCount_; ++f)
            features_[f * sampleCount_ + i] = x[f];
        targets_[i] = data.y(i);
    }

    // One argsort per feature, ties broken by sample index — the
    // canonical order the node-sort oracle agrees on. Trees derive
    // their bootstrap-bag orderings from these in O(n).
    order_.resize(featureCount_ * sampleCount_);
    for (std::size_t f = 0; f < featureCount_; ++f) {
        std::uint32_t *order = order_.data() + f * sampleCount_;
        for (std::size_t i = 0; i < sampleCount_; ++i)
            order[i] = static_cast<std::uint32_t>(i);
        const double *col = features_.data() + f * sampleCount_;
        std::sort(order, order + sampleCount_,
                  [col](std::uint32_t a, std::uint32_t b) {
                      return col[a] < col[b] ||
                             (col[a] == col[b] && a < b);
                  });
    }
}

TreeScratch &
threadScratch()
{
    thread_local TreeScratch scratch;
    return scratch;
}

} // namespace ml
} // namespace wanify
