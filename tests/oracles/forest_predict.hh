/**
 * @file
 * Parity oracle for ml::CompiledForest: the interpreted ensemble mean
 * RandomForestRegressor computed before inference moved to the
 * compiled forest, kept verbatim so tests can hold the compiled walk
 * bit-identical to it.
 *
 * It walks every fitted tree through DecisionTreeRegressor::predict
 * and sums their leaf values in ensemble order, then divides by the
 * tree count; the compiled forest must reproduce exactly these
 * floating-point operations.
 *
 * Header-only because CMake builds each tests/<name>.cc as its own
 * suite, so a shared oracle cannot live in a separate source file.
 */

#ifndef WANIFY_TESTS_ORACLES_FOREST_PREDICT_HH
#define WANIFY_TESTS_ORACLES_FOREST_PREDICT_HH

#include <vector>

#include "common/error.hh"
#include "ml/random_forest.hh"

namespace wanify {
namespace oracle {

/** Ensemble-mean prediction of @p forest for feature vector @p x. */
inline double
forestPredict(const ml::RandomForestRegressor &forest,
              const std::vector<double> &x)
{
    panicIf(forest.trees().empty(), "RandomForest::predict before fit");
    double mean = 0.0;
    for (const auto &tree : forest.trees())
        mean += tree->predict(x);
    mean /= static_cast<double>(forest.trees().size());
    return mean;
}

} // namespace oracle
} // namespace wanify

#endif // WANIFY_TESTS_ORACLES_FOREST_PREDICT_HH
