#include "core/predictor.hh"

#include <algorithm>

#include "common/error.hh"

namespace wanify {
namespace core {

RuntimeBwPredictor::RuntimeBwPredictor(ml::ForestConfig config)
    : forest_(config)
{}

void
RuntimeBwPredictor::train(const ml::Dataset &data, std::uint64_t seed)
{
    fatalIf(data.featureCount() != monitor::kFeatureCount,
            "RuntimeBwPredictor: dataset feature count mismatch");
    forest_.fit(data, seed);
}

void
RuntimeBwPredictor::retrain(const ml::Dataset &data,
                            std::size_t extraTrees, std::uint64_t seed)
{
    fatalIf(data.featureCount() != monitor::kFeatureCount,
            "RuntimeBwPredictor: dataset feature count mismatch");
    forest_.warmStart(data, extraTrees, seed);
}

Mbps
RuntimeBwPredictor::predictPair(
    const std::vector<double> &features) const
{
    panicIf(!forest_.trained(), "RuntimeBwPredictor: not trained");
    const ml::CompiledForest &compiled = forest_.compiled();
    fatalIf(features.size() != compiled.featureCount(),
            "RuntimeBwPredictor: feature count mismatch");
    return std::max(0.0, compiled.predictRow(features.data()));
}

BwMatrix
RuntimeBwPredictor::predictMatrix(const net::Topology &topo,
                                  const BwMatrix &snapshotBw,
                                  const monitor::HostLoad &load) const
{
    PredictScratch scratch;
    return predictMatrix(topo, snapshotBw, scratch, load);
}

BwMatrix
RuntimeBwPredictor::predictMatrix(const net::Topology &topo,
                                  const BwMatrix &snapshotBw,
                                  PredictScratch &scratch,
                                  const monitor::HostLoad &load) const
{
    panicIf(!forest_.trained(), "RuntimeBwPredictor: not trained");
    const std::size_t n = topo.dcCount();
    fatalIf(snapshotBw.rows() != n || snapshotBw.cols() != n,
            "predictMatrix: snapshot shape mismatch");

    // One row-major feature matrix for all n*(n-1) ordered pairs,
    // one batched inference over it: the per-pair allocations of the
    // interpreted path (feature vector + a leaf vector per tree) are
    // gone, and the batch fans out across the process-wide pool while
    // staying bit-identical to a sequential per-pair loop.
    const ml::CompiledForest &compiled = forest_.compiled();
    panicIf(compiled.featureCount() != monitor::kFeatureCount,
            "predictMatrix: forest shape mismatch");
    const std::size_t pairs = n * (n - 1);
    scratch.features.resize(pairs * monitor::kFeatureCount);
    scratch.outputs.resize(pairs);
    std::vector<double> &features = scratch.features;
    std::vector<double> &outputs = scratch.outputs;

    const std::size_t rows =
        monitor::matrixFeaturesInto(topo, snapshotBw, load,
                                    features.data());
    panicIf(rows != pairs, "predictMatrix: pair row count mismatch");
    compiled.predictBatch(features.data(), pairs, outputs.data());

    BwMatrix predicted = BwMatrix::square(n, 0.0);
    std::size_t row = 0;
    for (net::DcId i = 0; i < n; ++i) {
        for (net::DcId j = 0; j < n; ++j) {
            predicted.at(i, j) = i == j
                                     ? snapshotBw.at(i, j)
                                     : std::max(0.0, outputs[row++]);
        }
    }
    return predicted;
}

} // namespace core
} // namespace wanify
