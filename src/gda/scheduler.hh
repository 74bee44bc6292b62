/**
 * @file
 * Scheduler interface: where a stage's work runs and hence which bytes
 * cross which WAN links.
 *
 * A scheduler receives the stage context — the current geo-distribution
 * of the stage's input, the BW matrix it *believes* (static-independent,
 * static-simultaneous, or WANify-predicted: the experiment variable of
 * Table 4), compute rates, and egress prices — and returns the
 * assignment matrix A where A(i, j) is the bytes of input resident at
 * DC i to be processed at DC j. Off-diagonal entries become WAN
 * transfers.
 */

#ifndef WANIFY_GDA_SCHEDULER_HH
#define WANIFY_GDA_SCHEDULER_HH

#include <map>
#include <string>
#include <vector>

#include "common/matrix.hh"
#include "common/units.hh"
#include "core/forecast.hh"
#include "gda/job.hh"
#include "net/topology.hh"

namespace wanify {
namespace gda {

/**
 * Caller-owned warm-start memory for the fraction-search schedulers.
 *
 * Tetrium/Kimchi seed the search from the fractions they found the
 * last time they placed the same stage (re-plans on retrain, repeat
 * placements under drifted beliefs) instead of searching from
 * scratch. The memory lives with the caller — the engine keeps one
 * per run, the serve layer one per query — because scheduler
 * instances are shared across concurrently running trials and must
 * stay stateless.
 */
struct PlanMemory
{
    /** Best fractions found per stage index. */
    std::map<std::size_t, std::vector<double>> fractionsByStage;

    /** Improvement iterations the most recent search used. */
    std::size_t lastIterations = 0;
};

/** Everything a scheduler may consider for one stage. */
struct StageContext
{
    const net::Topology *topo = nullptr;

    /** BW matrix the scheduler believes (Mbps). */
    const Matrix<Mbps> *bw = nullptr;

    /** Stage input bytes currently resident per DC. */
    std::vector<Bytes> inputByDc;

    /** Aggregate compute rate per DC (work units / s). */
    std::vector<double> computeRate;

    /** Egress price per DC ($ / GB). */
    std::vector<Dollars> egressPrice;

    const StageSpec *stage = nullptr;
    std::size_t stageIndex = 0;

    /**
     * Fraction of each pair's believed BW this query may assume, in
     * (0, 1]: the cross-query WAN share granted by the serve layer's
     * BandwidthAllocator. The single-query default of 1 claims whole
     * links, which is exactly the one-shot engine's semantics; under
     * a resident service the fraction search plans with the share it
     * was actually allocated, so placement stops assuming bandwidth
     * that concurrent queries are consuming.
     */
    double wanShare = 1.0;

    /**
     * Optional per-pair bandwidth forecast. When set (and non-empty),
     * estimateStageTime integrates each transfer across the forecast
     * segments starting at planTime instead of dividing by the single
     * believed snapshot rate — so placement sees the maintenance
     * window that starts mid-shuffle. Null keeps snapshot planning.
     */
    const core::BwForecast *forecast = nullptr;

    /** Absolute time the plan is made (forecast integration start). */
    Seconds planTime = 0.0;

    /** Optional warm-start memory (see PlanMemory). */
    PlanMemory *memory = nullptr;
};

/**
 * Planned time to move @p bytes from DC @p i to DC @p j when the
 * query may use @p share of the pair's bandwidth: integrated across
 * @p forecast from @p start when it is non-null and non-empty, else
 * bytes over the believed rate @p bw(i, j) x share. The snapshot rate
 * is floored at kMinFeasibleMbps, not 1 Mbps: a zero/near-zero pair
 * (outage) must look infeasible — astronomically slow yet finite, so
 * the fraction search keeps a gradient away from it and a straggler
 * budget on it is huge — rather than like a slow-but-usable link.
 * The planner and the serve layer's straggler budgets both use it.
 */
Seconds plannedTransferTime(const Matrix<Mbps> &bw,
                            const core::BwForecast *forecast,
                            net::DcId i, net::DcId j, Bytes bytes,
                            double share, Seconds start);

/** Estimated completion time of an assignment under the believed BW. */
Seconds estimateStageTime(const StageContext &ctx,
                          const Matrix<Bytes> &assignment);

/** Egress cost ($) of an assignment. */
Dollars estimateStageCost(const StageContext &ctx,
                          const Matrix<Bytes> &assignment);

/** Assignment from per-destination fractions: A(i,j) = in_i * r_j. */
Matrix<Bytes> assignmentFromFractions(const std::vector<Bytes> &inputByDc,
                                      const std::vector<double> &fractions);

/**
 * In-place variant: overwrite @p out with the assignment, reshaping
 * it only when its shape differs. The fraction search evaluates up to
 * maxIterations x dcCount^2 candidate moves per stage; reusing one
 * scratch matrix keeps that inner loop allocation-free.
 */
void assignmentFromFractionsInto(const std::vector<Bytes> &inputByDc,
                                 const std::vector<double> &fractions,
                                 Matrix<Bytes> &out);

class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual std::string name() const = 0;

    /** Decide the stage assignment matrix. */
    virtual Matrix<Bytes> placeStage(const StageContext &ctx) = 0;
};

} // namespace gda
} // namespace wanify

#endif // WANIFY_GDA_SCHEDULER_HH
