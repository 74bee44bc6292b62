/**
 * @file
 * Bandwidth trace record and replay.
 *
 * A BwTrace is a time series of effective per-pair capacity
 * multipliers sampled from a live simulation (OU fluctuation ×
 * scenario factors), plus the per-pair RTT factors, background burst
 * events and hard faults of the recording. Persisted as CSV (see
 * writeTraceCsv), a captured timeline can be re-run: TraceReplay
 * plays the samples back through the NetworkSim scenario hooks on a
 * fluctuation-free simulator, reproducing each recorded effective
 * capacity to within one floating-point rounding (the nominal cap is
 * divided out on record and multiplied back on replay) and
 * re-launching the recorded bursts through Dynamics::burstsIn.
 * Sample timestamps mark interval *ends*: replay holds row k over
 * (t_{k-1}, t_k]. Two caveats: replaying a replayed trace IS
 * bit-exact (the medium is closed under replay), and a replay's
 * *drift telemetry* is recomputed on the replayed medium — recorded
 * OU noise rides in the multipliers and reads as scenario capacity
 * there, so a replay can report slightly different drift fractions
 * than the original run while the trace itself matches.
 */

#ifndef WANIFY_SCENARIO_TRACE_HH
#define WANIFY_SCENARIO_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

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
};

/**
 * Write a trace as CSV; throws FatalError on I/O failure or a trace
 * of fewer than 2 DCs. The layout, for n = dcs:
 *
 * - the header `t,y0,...,y{2n^2-1}`;
 * - one row per sample: its time t >= 0, the n^2 capacity
 *   multipliers, then the n^2 RTT factors (both src * n + dst);
 * - one marker row per burst, with t = -1, -2, ...: start, duration,
 *   src, dst and connections, then zeros;
 * - one marker row per fault, numbered on after the bursts: time,
 *   duration, src, dst, dc, kind + 1 (nonzero, which tells it from a
 *   burst marker) and startJitter, then zeros.
 *
 * Cells are written at max_digits10, so every double survives the
 * round trip exactly.
 */
void writeTraceCsv(const std::string &path, const BwTrace &trace);

/**
 * Read a trace written by writeTraceCsv; throws FatalError naming
 * @p path on a missing, truncated, or malformed file, and the file
 * line of a malformed row. CRLF endings are accepted, blank lines
 * skipped, and a cell may have spaces around its number.
 */
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
