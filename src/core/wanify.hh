/**
 * @file
 * The WANify facade (Section 4.1) — the interface GDA systems invoke
 * (asynchronously in the paper; synchronously here, the simulator has no
 * real concurrency to hide).
 *
 * Offline: train the WAN Prediction Model from Bandwidth Analyzer
 * datasets. Online: snapshot the live network, predict the runtime BW
 * matrix, run global optimization, install throttles, and hand local
 * agents to the engine. Feature toggles allow the ablation variants of
 * Fig. 5 and Fig. 8 (global-only, local-only, no throttling, uniform
 * parallelism).
 */

#ifndef WANIFY_CORE_WANIFY_HH
#define WANIFY_CORE_WANIFY_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/bandwidth_analyzer.hh"
#include "core/drift.hh"
#include "core/global_optimizer.hh"
#include "core/heterogeneity.hh"
#include "core/local_agent.hh"
#include "core/predictor.hh"
#include "core/throttle.hh"

namespace wanify {
namespace core {

/** Which WANify mechanisms are active (ablation switches). */
struct WanifyFeatures
{
    bool globalOptimization = true;
    bool localOptimization = true;
    bool throttling = true;

    /** Use skew weights in global optimization (Section 3.3.1). */
    bool skewAware = true;

    /** Everything on (the paper's WANify-TC default). */
    static WanifyFeatures all() { return {}; }

    /** Global optimization only (Fig. 8 ablation). */
    static WanifyFeatures globalOnly();

    /** Local optimization only with static 1..M range (Fig. 8). */
    static WanifyFeatures localOnly();
};

/** Facade configuration. */
struct WanifyConfig
{
    WanifyFeatures features;
    GlobalOptimizerConfig global;
    AimdConfig aimd;
    monitor::MeasurementConfig measurement;
    ml::ForestConfig forest;
    DriftConfig drift;

    /**
     * Trees added per warm-start retrain (Section 3.3.4). The
     * retrained ensemble averages the stale trees with the new ones,
     * so a quarter of the paper's 100-tree forest pulls predictions
     * toward the freshly gauged regime without discarding what the
     * offline campaign learned.
     */
    std::size_t retrainExtraTrees = 25;
};

class Wanify
{
  public:
    explicit Wanify(WanifyConfig config = {});

    // --- offline module ---------------------------------------------------

    /** Train the predictor with the Bandwidth Analyzer. */
    void train(const AnalyzerConfig &analyzerCfg, std::uint64_t seed);

    /** Adopt an externally trained predictor (shared across benches). */
    void setPredictor(std::shared_ptr<const RuntimeBwPredictor> p);

    bool trained() const;

    /**
     * Reference to the currently published predictor — for offline,
     * single-threaded use (training scripts, benches, examples). The
     * reference is only guaranteed to outlive concurrent publishing
     * retrains while the caller also holds a predictorSnapshot();
     * code that runs alongside publishRetrainedModel trials must use
     * predictorSnapshot() instead.
     */
    const RuntimeBwPredictor &predictor() const;

    /**
     * The currently published predictor (null before training). The
     * snapshot stays valid and immutable however many retrains swap
     * the facade's predictor afterwards — engine runs pin one at
     * start so concurrent trials never see a model change mid-run.
     */
    std::shared_ptr<const RuntimeBwPredictor> predictorSnapshot() const;

    /**
     * Warm-start retraining (Section 3.3.4): copy @p base (null = the
     * currently published predictor; an untrained facade starts from
     * an empty forest), grow retrainExtraTrees new trees on @p data
     * via RandomForestRegressor::warmStart, and — when @p publish —
     * atomically swap the facade's shared predictor so *future* runs
     * adopt the update while concurrent trials keep the snapshot they
     * pinned. Returns the retrained predictor. Safe to call from
     * parallel trials; deterministic in (base, data, seed).
     *
     * Under histogram-mode forests (forest.tree.splitMode) the base
     * model's shared ml::BinIndex rides the copy and the warm start
     * extends it with the newly gauged rows — campaign datasets only
     * ever append, so mid-run retrains skip re-binning entirely and
     * the pinned base's index is never mutated. The engine reports
     * the wall time of each retrain in QueryResult::retrainLatencies;
     * that stall is what bounds the adaptation cadence.
     */
    std::shared_ptr<const RuntimeBwPredictor>
    retrain(const ml::Dataset &data, std::uint64_t seed,
            std::shared_ptr<const RuntimeBwPredictor> base = nullptr,
            bool publish = true) const;

    // --- online module ----------------------------------------------------

    /**
     * Snapshot the live network and predict the runtime BW matrix
     * (Runtime Bandwidth Determination, Section 4.1.2).
     */
    BwMatrix predictRuntimeBw(net::NetworkSim &sim, Rng &rng) const;

    /** Same, but through an explicitly pinned model. */
    BwMatrix predictRuntimeBw(net::NetworkSim &sim, Rng &rng,
                              const RuntimeBwPredictor &model) const;

    /**
     * One mid-run gauge of the Section 3.3.4 retraining path: a
     * 1-second snapshot plus the observed stable BW over one AIMD
     * epoch on the live simulator, and @p model's prediction from
     * that snapshot. The (snapshot, stable) pair becomes warm-start
     * training rows; (predicted, stable) measures the model's error
     * under current conditions.
     */
    struct RuntimeGauge
    {
        BwMatrix snapshot;
        BwMatrix stable;
        BwMatrix predicted;

        /** The (snapshot, stable) pair as warm-start training input. */
        CollectedMesh
        mesh() const
        {
            return {snapshot.rows(), snapshot, stable};
        }
    };
    RuntimeGauge gaugeRuntime(net::NetworkSim &sim, Rng &rng,
                              const RuntimeBwPredictor &model) const;

    /**
     * Global Optimizer (Section 4.1.2): plan heterogeneous connection
     * ranges from a predicted BW matrix.
     *
     * @param skewWeights per-DC input-data skew weights (empty =
     *                    uniform); ignored unless features.skewAware
     * @param rvec        refactoring matrix (empty = identity)
     */
    GlobalPlan plan(const BwMatrix &predictedBw,
                    const std::vector<double> &skewWeights = {},
                    const Matrix<double> &rvec = {}) const;

    /**
     * One run's worth of online state: the local agents plus the
     * throttles installed on that run's simulator. Owned by the
     * caller (one per engine run) so a single Wanify instance can
     * serve many concurrent runs — the experiment runner's parallel
     * trials share one facade across threads.
     */
    struct Deployment
    {
        std::vector<std::unique_ptr<LocalAgent>> agents;
        ThrottleController throttles;

        /** Remove the throttles this deployment installed. */
        void
        clear(net::NetworkSim &sim)
        {
            throttles.clear(sim);
        }
    };

    /**
     * Deploy on a live simulator: install throttles (if enabled) and
     * create one local agent per DC. The caller drives the agents'
     * onEpoch() at aimd.epoch intervals (the engine does this) and
     * clears the deployment when the run ends.
     */
    Deployment deploy(net::NetworkSim &sim, const GlobalPlan &plan,
                      const BwMatrix &predictedBw) const;

    ModelDriftDetector &driftDetector() { return drift_; }
    const WanifyConfig &config() const { return config_; }

  private:
    WanifyConfig config_;

    /**
     * Published predictor, guarded by predictorMu_: readers take
     * shared_ptr snapshots, retrain() swaps the pointer atomically.
     * Mutable because swapping the published model is logically a
     * service update, not an observable mutation of any pinned
     * snapshot — the facade stays const-shareable across trials.
     */
    mutable std::shared_ptr<const RuntimeBwPredictor> predictor_;
    mutable std::mutex predictorMu_;

    ModelDriftDetector drift_;
};

} // namespace core
} // namespace wanify

#endif // WANIFY_CORE_WANIFY_HH
