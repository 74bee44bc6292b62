/**
 * @file
 * One query's stage execution, shared by the one-shot engine and the
 * resident service.
 *
 * Both drivers run the per-stage loop of a GDA system (paper §4.1):
 * place the stage, shuffle its off-diagonal bytes over the WAN, then
 * compute where the bytes landed. QueryExecution holds one query's
 * side of that loop — stage index and input, the assignment, the
 * in-flight transfers, the delivered parts of stopped ones, and the
 * warm-start plan memory — plus the mechanics both drivers share.
 *
 * Both route a transfer's completion, stop and abandonment through
 * it, and the service its straggler re-dispatch. Recovery policy stays
 * with the drivers: gda::Engine retries an aborted transfer with
 * backoff, replans its residual, and steps the predictor degradation
 * ladder; serve::Service kills and requeues the whole query and picks
 * which stragglers to re-dispatch. Iteration orders are part
 * of the contract — pending transfers are kept in TransferId order and
 * placements start i-major then j — because the float sums and minima
 * over them feed every golden.
 */

#ifndef WANIFY_GDA_QUERY_EXECUTION_HH
#define WANIFY_GDA_QUERY_EXECUTION_HH

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/forecast.hh"
#include "fault/fault.hh"
#include "gda/job.hh"
#include "gda/scheduler.hh"
#include "net/network_sim.hh"

namespace wanify {

namespace scenario {
class Dynamics;
} // namespace scenario

namespace gda {

/**
 * The fault plan a run consumes: @p explicitPlan, else the one
 * @p dynamics carries, else one shared empty plan; an explicit empty
 * plan still overrides the dynamics' plan. Fails, naming @p owner,
 * when a non-empty plan was compiled for other than @p dcCount DCs.
 */
const fault::FaultPlan &resolveFaultPlan(
    const fault::FaultPlan *explicitPlan,
    const scenario::Dynamics *dynamics, std::size_t dcCount,
    const std::string &owner);

/** One shuffle transfer of a query's current stage. */
struct ShuffleTransfer
{
    net::DcId src = 0;
    net::DcId dst = 0;
    Bytes bytes = 0.0;
    Seconds started = 0.0;

    /** When its last byte landed or it was stopped; 0 while pending. */
    Seconds done = 0.0;

    /** Planned duration (the service's straggler budget). */
    Seconds expected = 0.0;

    int connections = 1;

    /** 0-based send attempt (engine retries increment it). */
    std::size_t attempt = 0;

    /** Straggler re-dispatches this transfer already consumed. */
    int redispatches = 0;
};

class QueryExecution
{
  public:
    using Transfers = std::map<net::TransferId, ShuffleTransfer>;

    /** Execute @p job from stage zero on @p input. Keeps pointers to
     *  @p topo and @p job, which must outlive the execution. */
    QueryExecution(const net::Topology &topo, const JobSpec &job,
                   std::vector<Bytes> input);

    /** Start over from stage zero on @p input. Plan memory survives,
     *  so a re-run warm-starts from the plans found before. */
    void restart(std::vector<Bytes> input);

    std::size_t stage() const { return stage_; }
    bool done() const { return stage_ >= job_->stages.size(); }
    const StageSpec &stageSpec() const { return job_->stages[stage_]; }
    const std::vector<Bytes> &stageInput() const { return input_; }

    /** A(i, j): bytes resident at DC i processed at DC j this stage. */
    Matrix<Bytes> &assignment() { return assignment_; }

    /** Transfers of this stage not yet completed, stopped or
     *  abandoned. The engine routes completions at clock pops, so one
     *  that finished inside a retrain window waits for the next pop. */
    const Transfers &pending() const { return pending_; }

    /** The ordered DC pairs (net::PairIndex layout) that pending()
     *  transfers cross, ascending and each once. */
    const std::vector<std::size_t> &pendingPairs() const
    {
        return pendingPairs_;
    }

    /** Transfers stopped this stage, done at their stop: parts stop()
     *  kept and ones abandon() retired whole. */
    const std::vector<ShuffleTransfer> &retired() const
    {
        return retired_;
    }

    /**
     * Context for placing @p input of the current stage under the
     * believed @p bw, warm-started from this query's plan memory:
     * compute rates and egress prices come from the topology.
     * ctx.wanShare is left at its single-query default (1); the
     * service scales it to the query's allocated share.
     */
    StageContext context(const std::vector<Bytes> &input,
                         const Matrix<Mbps> &bw);

    /** Place @p ctx; a non-empty @p forecast is integrated from
     *  @p now. */
    Matrix<Bytes> place(Scheduler &scheduler, StageContext ctx,
                        const core::BwForecast &forecast, Seconds now);

    /**
     * Open the current stage's shuffle at @p now: @p placed becomes
     * the assignment, and each off-diagonal cell of at least one byte
     * starts through @p start(src, dst, bytes).
     */
    template <typename Start>
    void
    beginShuffle(Matrix<Bytes> placed, Seconds now, Start &&start)
    {
        landed_.assign(computeRate_.size(), now);
        assignment_ = std::move(placed);
        startCells(assignment_, start);
    }

    /**
     * Join a residual placement to the running shuffle: @p placed's
     * cells of at least one byte add to the assignment, and the
     * off-diagonal ones start through @p start(src, dst, bytes).
     */
    template <typename Start>
    void
    launch(const Matrix<Bytes> &placed, Start &&start)
    {
        for (net::DcId i = 0; i < placed.rows(); ++i)
            for (net::DcId j = 0; j < placed.cols(); ++j)
                if (placed.at(i, j) >= 1.0)
                    assignment_.at(i, j) += placed.at(i, j);
        startCells(placed, start);
    }

    /** Start a transfer of @p bytes from DC @p src to @p dst on
     *  @p sim now, and track it as pending. */
    ShuffleTransfer &start(net::NetworkSim &sim, net::DcId src,
                           net::DcId dst, Bytes bytes, int connections,
                           net::FlowGroupId group = 0,
                           std::size_t attempt = 0);

    /** Route completion @p rec: take the transfer out of pending(),
     *  stamp its done time and land its bytes. Nothing when @p rec
     *  is not one of this query's pending transfers. */
    std::optional<ShuffleTransfer>
    complete(const net::CompletionRecord &rec);

    /**
     * Stop pending transfer @p id unless under one byte of it is left.
     * Its undelivered bytes leave the assignment; its delivered part
     * stays, as a retired transfer landed now, when it moved at least
     * @p minKept bytes. Returns the stopped transfer with bytes set to
     * the undelivered part.
     */
    std::optional<ShuffleTransfer> stop(net::NetworkSim &sim,
                                        net::TransferId id,
                                        Bytes minKept);

    /**
     * Re-dispatch pending transfer @p id: stop it and restart what it
     * has left on the same pair with @p connections, as one more
     * re-dispatch of the same planned transfer. The assignment does
     * not change. Returns the restarted transfer, or nothing when
     * @p id is not pending or under one byte of it was left (it then
     * leaves pending() without landing).
     */
    std::optional<ShuffleTransfer> redispatch(net::NetworkSim &sim,
                                              net::TransferId id,
                                              int connections,
                                              net::FlowGroupId group);

    /** Stop every transfer still in flight, keeping each delivered
     *  part; returns the undelivered bytes by source DC. */
    std::vector<Bytes> stopInFlight(net::NetworkSim &sim);

    /** Stop every pending transfer and retire it whole, landed now:
     *  it is billed as if it finished at the cut. */
    void abandon(net::NetworkSim &sim);

    /** Pending transfers @p fault kills, in TransferId order. */
    std::vector<net::TransferId>
    killedBy(const fault::FaultEvent &fault) const;

    /**
     * End the shuffle at @p now: each DC computes its assigned bytes
     * after its last byte landed. Returns when the slowest DC is done
     * and keeps the next stage's input.
     */
    Seconds computeEnd(Seconds now);

    /** Move to the next stage, on the input computeEnd() kept. */
    void nextStage();

  private:
    /** Bytes bound for DC @p dst landed at @p at. */
    void
    landed(net::DcId dst, Seconds at)
    {
        landed_[dst] = std::max(landed_[dst], at);
    }

    /** Take @p it out of pending(), and its pair out of
     *  pendingPairs() with the pair's last transfer. */
    void erasePending(Transfers::iterator it);

    /** Empty pending() and pendingPairs(). */
    void clearPending();

    template <typename Start>
    void
    startCells(const Matrix<Bytes> &placed, Start &start)
    {
        for (net::DcId i = 0; i < placed.rows(); ++i) {
            for (net::DcId j = 0; j < placed.cols(); ++j) {
                const Bytes bytes = placed.at(i, j);
                if (i != j && bytes >= 1.0)
                    start(i, j, bytes);
            }
        }
    }

    const net::Topology *topo_;
    const JobSpec *job_;
    std::vector<double> computeRate_; ///< per DC, topology-fixed
    std::size_t stage_ = 0;
    std::vector<Bytes> input_;
    std::vector<Bytes> nextInput_;
    Matrix<Bytes> assignment_;
    Transfers pending_;
    net::PairIndex pairs_;
    std::vector<std::size_t> pendingPairs_;
    std::vector<std::size_t> pendingPerPair_; ///< per pair: transfers
    std::vector<ShuffleTransfer> retired_;
    std::vector<Seconds> landed_; ///< per DC: last shuffle byte in
    PlanMemory memory_;
};

} // namespace gda
} // namespace wanify

#endif // WANIFY_GDA_QUERY_EXECUTION_HH
