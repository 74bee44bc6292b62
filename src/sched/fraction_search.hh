/**
 * @file
 * Shared greedy fraction search used by the Tetrium and Kimchi
 * schedulers.
 *
 * Both schedulers choose per-DC processing fractions r on the simplex;
 * they differ only in the objective (Tetrium: estimated stage
 * completion time; Kimchi: time plus weighted egress cost). The search
 * starts from a compute-balanced allocation and repeatedly shifts a
 * small fraction of work from the DC whose marginal removal helps most
 * to the DC whose marginal addition hurts least, until no move
 * improves the objective — a deterministic projected coordinate
 * descent.
 */

#ifndef WANIFY_SCHED_FRACTION_SEARCH_HH
#define WANIFY_SCHED_FRACTION_SEARCH_HH

#include <functional>
#include <vector>

#include "gda/scheduler.hh"

namespace wanify {
namespace sched {

/** Objective over an assignment matrix; lower is better. */
using AssignmentObjective =
    std::function<double(const Matrix<Bytes> &)>;

/** Search tunables. */
struct FractionSearchConfig
{
    /** Fraction moved per step. */
    double step = 0.02;

    /** Maximum improvement iterations. */
    std::size_t maxIterations = 400;

    /** Minimum relative improvement to keep iterating. */
    double tolerance = 1.0e-4;
};

/** Outcome of one fraction search. */
struct FractionSearchResult
{
    std::vector<double> fractions;

    /** Improvement iterations executed (warm starts use fewer). */
    std::size_t iterations = 0;

    /** Objective value of the returned fractions. */
    double objective = 0.0;
};

/**
 * Minimize @p objective over fractions r (sum 1, r >= 0), returning
 * the best fractions found with the iterations and final objective
 * (the warm-start effectiveness surface). @p seedFractions is the
 * starting point (normalized internally).
 */
FractionSearchResult searchFractionsDetailed(
    const gda::StageContext &ctx, const AssignmentObjective &objective,
    std::vector<double> seedFractions,
    const FractionSearchConfig &cfg = {});

/**
 * Replace @p seed with the fractions remembered for ctx.stageIndex
 * when ctx.memory holds a size-matching entry — the incremental
 * re-plan warm start. Returns true when the warm start applied.
 */
bool applyWarmStart(const gda::StageContext &ctx,
                    std::vector<double> &seed);

/** Store a search outcome into ctx.memory (no-op without memory). */
void rememberResult(const gda::StageContext &ctx,
                    const FractionSearchResult &result);

} // namespace sched
} // namespace wanify

#endif // WANIFY_SCHED_FRACTION_SEARCH_HH
