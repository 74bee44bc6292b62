/**
 * @file
 * Bandwidth trace record and replay.
 *
 * A BwTrace is a time series of effective per-pair capacity
 * multipliers sampled from a live simulation (OU fluctuation ×
 * scenario factors), plus the per-pair RTT factors and the background
 * burst events active over the recording. Persisted as CSV through
 * the dataset round-trip in ml/csv.* (one feature column `t`; per
 * sample one capacity-multiplier column and one RTT-factor column per
 * ordered DC pair; burst events ride along as marker rows with t < 0;
 * written at max_digits10 so doubles survive the round trip exactly),
 * a captured timeline can be re-run: TraceReplay plays the samples
 * back through the NetworkSim scenario hooks on a fluctuation-free
 * simulator, reproducing each recorded effective capacity to within
 * one floating-point rounding (the nominal cap is divided out on
 * record and multiplied back on replay) and re-launching the recorded
 * bursts through Dynamics::burstsIn. Sample timestamps mark interval
 * *ends*: replay holds row k over (t_{k-1}, t_k]. Legacy traces
 * (capacity columns only) still load: their RTT factors default to 1
 * and their burst list is empty. Two caveats: replaying a replayed
 * trace IS bit-exact (the medium is closed under replay), and a
 * replay's *drift telemetry* is recomputed on the replayed medium —
 * recorded OU noise rides in the multipliers and reads as scenario
 * capacity there, so a replay can report slightly different drift
 * fractions than the original run while the trace itself matches.
 */

#ifndef WANIFY_SCENARIO_TRACE_HH
#define WANIFY_SCENARIO_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ml/dataset.hh"
#include "scenario/scenario.hh"

namespace wanify {
namespace scenario {

/** A recorded timeline of per-pair capacity multipliers, RTT factors,
 *  and background burst events. */
struct BwTrace
{
    /** Cluster size; rows hold dcs * dcs multipliers (src * n + dst). */
    std::size_t dcs = 0;

    std::vector<Seconds> times;
    std::vector<std::vector<double>> rows;

    /** Per-sample RTT factors, parallel to `rows` (src * n + dst). */
    std::vector<std::vector<double>> rttRows;

    /** Background flows recorded over the trace's horizon. */
    std::vector<BurstFlow> bursts;

    /**
     * Hard-fault events riding along with the trace. Store resolved
     * times (startJitter = 0) when recording: replay compiles them
     * with a fixed seed, so unresolved jitter would not reproduce
     * the recorded run.
     */
    std::vector<fault::FaultEvent> faults;

    /**
     * Append one sample; multipliers.size() must equal dcs * dcs.
     * An empty @p rttFactors means "no inflation" (all factors 1).
     */
    void add(Seconds t, std::vector<double> multipliers,
             std::vector<double> rttFactors = {});

    std::size_t size() const { return times.size(); }
    bool empty() const { return times.empty(); }

    /** Exact (bitwise) equality with another trace. */
    bool identical(const BwTrace &other) const;

    /** Order-sensitive splitmix64 digest of every sample bit. */
    std::uint64_t hash() const;

    /**
     * Convert to a dataset: feature `t`, 2 n^2 targets (capacity
     * multipliers then RTT factors, both src * n + dst). Burst events
     * are appended as marker rows with t < 0 carrying (start,
     * duration, src, dst, connections) in the first five targets;
     * fault events follow as marker rows whose sixth target is the
     * fault kind + 1 (nonzero — burst markers leave it 0).
     */
    ml::Dataset toDataset() const;

    /** Rebuild from a dataset written by toDataset(). Also accepts
     *  the legacy capacity-only layout (n^2 targets, no markers).
     *  A bad row is named by its file line from @p rowLines (as
     *  ml::readCsv fills it) when given, else as "row N" from 1. */
    static BwTrace fromDataset(
        const ml::Dataset &data,
        const std::vector<std::size_t> *rowLines = nullptr);
};

/** Write a trace as CSV; throws FatalError on I/O failure. */
void writeTraceCsv(const std::string &path, const BwTrace &trace);

/** Read a trace written by writeTraceCsv; throws FatalError naming
 *  @p path on a missing, truncated, or malformed file. */
BwTrace readTraceCsv(const std::string &path);

/**
 * Sample the effective capacity multiplier of every ordered pair of
 * @p sim right now (effectivePathCap / nominal pathCap; 1 on the
 * diagonal and wherever the nominal capacity is not positive).
 */
std::vector<double> capturedMultipliers(const net::NetworkSim &sim);

/** Replays a recorded trace through the scenario-override hooks. */
class TraceReplay : public Dynamics
{
  public:
    explicit TraceReplay(BwTrace trace);

    std::size_t dcCount() const override { return trace_.dcs; }

    /** Install the capacity and RTT row covering time @p t
     *  (interval-end semantics: the earliest sample with time > t;
     *  the last row once t is at or beyond the final timestamp). */
    void applyAt(net::NetworkSim &sim, Seconds t) const override;

    /**
     * Recorded capacity multiplier at the exact instant @p t: the row
     * held over (t_{k-1}, t_k] with closed-right boundaries (t = t_k
     * reads row k, not k+1), the first row at or before t_0, the last
     * row past t_last. This is the forecast-sampling view; applyAt
     * keeps its microsecond forward slack because it answers "what
     * governs the interval starting at t" for bit-exact replay.
     */
    double capFactorAt(net::DcId i, net::DcId j,
                       Seconds t) const override;

    /** Recorded burst events starting inside (t0, t1]. */
    std::vector<BurstFlow> burstsIn(Seconds t0,
                                    Seconds t1) const override;

    /** Sample timestamps (row boundaries) and burst edges in
     *  (t0, t1] — every instant the replayed medium changes. */
    void changePointsIn(Seconds t0, Seconds t1,
                        std::vector<ChangePoint> &out) const override;

    /** Fault plan compiled from the trace's recorded fault events
     *  (fixed seed: recorded times are already resolved). */
    const fault::FaultPlan *faultPlan() const override;

    const BwTrace &trace() const { return trace_; }

  private:
    BwTrace trace_;
    fault::FaultPlan faults_;
};

} // namespace scenario
} // namespace wanify

#endif // WANIFY_SCENARIO_TRACE_HH
