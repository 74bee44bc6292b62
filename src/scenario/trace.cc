#include "scenario/trace.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hh"
#include "common/rng.hh"
#include "ml/csv.hh"

namespace wanify {
namespace scenario {

namespace {

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "64-bit doubles");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** True when marker cell @p v is a whole number in [lo, hi], so that
 *  casting it to an integer is defined. */
bool
wholeIn(double v, double lo, double hi)
{
    return v >= lo && v <= hi && v == std::floor(v);
}

/**
 * The struct's fields are public (hand-built traces predate the RTT
 * schema), so every consumer that indexes rttRows parallel to rows
 * validates the invariant first instead of walking off the end.
 */
void
checkParallelRows(const BwTrace &trace, const char *who)
{
    fatalIf(trace.rows.size() != trace.times.size() ||
                trace.rttRows.size() != trace.rows.size(),
            std::string(who) +
                ": times/rows/rttRows must stay parallel (build "
                "traces through BwTrace::add)");
}

} // namespace

void
BwTrace::add(Seconds t, std::vector<double> multipliers,
             std::vector<double> rttFactors)
{
    fatalIf(dcs == 0, "BwTrace::add: dcs not set");
    fatalIf(multipliers.size() != dcs * dcs,
            "BwTrace::add: multiplier count mismatch");
    if (rttFactors.empty())
        rttFactors.assign(dcs * dcs, 1.0);
    fatalIf(rttFactors.size() != dcs * dcs,
            "BwTrace::add: RTT factor count mismatch");
    fatalIf(!times.empty() && t <= times.back(),
            "BwTrace::add: times must be strictly increasing");
    times.push_back(t);
    rows.push_back(std::move(multipliers));
    rttRows.push_back(std::move(rttFactors));
}

namespace {

bool
sameBursts(const std::vector<BurstFlow> &a,
           const std::vector<BurstFlow> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k].start != b[k].start ||
            a[k].duration != b[k].duration || a[k].src != b[k].src ||
            a[k].dst != b[k].dst ||
            a[k].connections != b[k].connections)
            return false;
    }
    return true;
}

} // namespace

namespace {

bool
sameFaults(const std::vector<fault::FaultEvent> &a,
           const std::vector<fault::FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k].kind != b[k].kind || a[k].src != b[k].src ||
            a[k].dst != b[k].dst || a[k].dc != b[k].dc ||
            a[k].time != b[k].time ||
            a[k].duration != b[k].duration ||
            a[k].startJitter != b[k].startJitter)
            return false;
    }
    return true;
}

} // namespace

bool
BwTrace::identical(const BwTrace &other) const
{
    return dcs == other.dcs && times == other.times &&
           rows == other.rows && rttRows == other.rttRows &&
           sameBursts(bursts, other.bursts) &&
           sameFaults(faults, other.faults);
}

std::uint64_t
BwTrace::hash() const
{
    checkParallelRows(*this, "BwTrace::hash");
    std::uint64_t state = 0x77414e6966790000ULL ^ dcs;
    for (std::size_t k = 0; k < times.size(); ++k) {
        state ^= doubleBits(times[k]);
        splitmix64(state);
        for (double m : rows[k]) {
            state ^= doubleBits(m);
            splitmix64(state);
        }
        for (double f : rttRows[k]) {
            state ^= doubleBits(f);
            splitmix64(state);
        }
    }
    for (const auto &b : bursts) {
        state ^= doubleBits(b.start) ^ doubleBits(b.duration) ^
                 (static_cast<std::uint64_t>(b.src) << 32) ^
                 static_cast<std::uint64_t>(b.dst) ^
                 (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(b.connections))
                  << 16);
        splitmix64(state);
    }
    for (const auto &f : faults) {
        state ^= doubleBits(f.time) ^ doubleBits(f.duration) ^
                 doubleBits(f.startJitter) ^
                 (static_cast<std::uint64_t>(f.kind) << 48) ^
                 (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(f.src)) << 32) ^
                 (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(f.dst)) << 16) ^
                 static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(f.dc));
        splitmix64(state);
    }
    std::uint64_t digest = state;
    return splitmix64(digest);
}

ml::Dataset
BwTrace::toDataset() const
{
    fatalIf(dcs == 0, "BwTrace::toDataset: empty trace");
    checkParallelRows(*this, "BwTrace::toDataset");
    const std::size_t pairs = dcs * dcs;
    ml::Dataset data(1, 2 * pairs);
    for (std::size_t k = 0; k < times.size(); ++k) {
        std::vector<double> y = rows[k];
        y.insert(y.end(), rttRows[k].begin(), rttRows[k].end());
        data.add({times[k]}, std::move(y));
    }
    // Burst markers after the samples: t < 0, payload in the first
    // five target slots (2 n^2 >= 8 for any n >= 2, so they fit).
    for (std::size_t k = 0; k < bursts.size(); ++k) {
        std::vector<double> y(2 * pairs, 0.0);
        y[0] = bursts[k].start;
        y[1] = bursts[k].duration;
        y[2] = static_cast<double>(bursts[k].src);
        y[3] = static_cast<double>(bursts[k].dst);
        y[4] = static_cast<double>(bursts[k].connections);
        data.add({-static_cast<double>(k + 1)}, std::move(y));
    }
    // Fault markers after the bursts: also t < 0, distinguished by a
    // nonzero sixth slot (kind + 1; burst markers leave it 0).
    for (std::size_t k = 0; k < faults.size(); ++k) {
        std::vector<double> y(2 * pairs, 0.0);
        y[0] = faults[k].time;
        y[1] = faults[k].duration;
        y[2] = static_cast<double>(faults[k].src);
        y[3] = static_cast<double>(faults[k].dst);
        y[4] = static_cast<double>(faults[k].dc);
        y[5] = static_cast<double>(
                   static_cast<int>(faults[k].kind)) + 1.0;
        y[6] = faults[k].startJitter;
        data.add({-static_cast<double>(bursts.size() + k + 1)},
                 std::move(y));
    }
    return data;
}

BwTrace
BwTrace::fromDataset(const ml::Dataset &data,
                     const std::vector<std::size_t> *rowLines)
{
    fatalIf(data.featureCount() != 1,
            "BwTrace::fromDataset: expected a single `t` feature");
    // n^2 targets = legacy capacity-only layout; 2 n^2 = capacity +
    // RTT. The two are never ambiguous (n1^2 == 2 n2^2 has no integer
    // solutions).
    const std::size_t out = data.outputCount();
    std::size_t n = 0;
    while (n * n < out)
        ++n;
    bool withRtt = false;
    if (n * n != out) {
        n = 0;
        while (2 * n * n < out)
            ++n;
        withRtt = true;
    }
    fatalIf((withRtt ? 2 * n * n : n * n) != out || n < 2,
            "BwTrace::fromDataset: target count is not a DC-pair "
            "square");
    BwTrace trace;
    trace.dcs = n;
    // A row read from a CSV is named by its file line, else by its
    // position counting from 1.
    auto badRow = [&](const char *what, std::size_t i) {
        fatal(std::string("BwTrace::fromDataset: ") + what +
              (rowLines != nullptr
                   ? " at line " + std::to_string((*rowLines)[i])
                   : " at row " + std::to_string(i + 1)));
    };
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double t = data.x(i)[0];
        const auto &y = data.y(i);
        if (!std::isfinite(t))
            badRow("non-finite t", i);
        if (t < 0.0) {
            fatalIf(!withRtt,
                    "BwTrace::fromDataset: marker row in a legacy "
                    "trace");
            // Marker cells are checked before any integer cast: an
            // out-of-range double cast to an integer is undefined.
            const double lastDc = static_cast<double>(n - 1);
            if (y[5] != 0.0) {
                // Fault marker: kind rides in the sixth slot as
                // kind + 1 so burst markers (slot = 0) stay distinct.
                const double kinds =
                    static_cast<double>(fault::FaultKind::DcBlackout) + 1;
                if (!wholeIn(y[5], 1.0, kinds))
                    badRow("unknown fault kind marker", i);
                if (!wholeIn(y[2], fault::kAnyDc, lastDc) ||
                    !wholeIn(y[3], fault::kAnyDc, lastDc) ||
                    !wholeIn(y[4], 0.0, lastDc))
                    badRow("fault marker DC out of range", i);
                fault::FaultEvent fe;
                fe.kind = static_cast<fault::FaultKind>(
                    static_cast<int>(y[5]) - 1);
                fe.time = y[0];
                fe.duration = y[1];
                fe.src = static_cast<int>(y[2]);
                fe.dst = static_cast<int>(y[3]);
                fe.dc = static_cast<int>(y[4]);
                fe.startJitter = y[6];
                trace.faults.push_back(fe);
                continue;
            }
            if (!wholeIn(y[2], 0.0, lastDc) ||
                !wholeIn(y[3], 0.0, lastDc) || y[2] == y[3])
                badRow("burst DCs must be distinct and in range", i);
            if (!wholeIn(y[4], 1.0, std::numeric_limits<int>::max()))
                badRow("burst connections must be an integer >= 1", i);
            if (!std::isfinite(y[0]) || y[0] < 0.0)
                badRow("burst start must be finite and >= 0", i);
            if (!std::isfinite(y[1]) || y[1] <= 0.0)
                badRow("burst duration must be finite and > 0", i);
            BurstFlow burst;
            burst.start = y[0];
            burst.duration = y[1];
            burst.src = static_cast<net::DcId>(y[2]);
            burst.dst = static_cast<net::DcId>(y[3]);
            burst.connections = static_cast<int>(y[4]);
            trace.bursts.push_back(burst);
            continue;
        }
        for (std::size_t p = 0; p < n * n; ++p)
            if (!std::isfinite(y[p]) || y[p] < 0.0)
                badRow("capacity factor must be finite and >= 0", i);
        if (!withRtt) {
            trace.add(t, y);
            continue;
        }
        for (std::size_t p = n * n; p < 2 * n * n; ++p)
            if (!std::isfinite(y[p]) || y[p] <= 0.0)
                badRow("RTT factor must be finite and > 0", i);
        std::vector<double> caps(y.begin(), y.begin() + n * n);
        std::vector<double> rtts(y.begin() + n * n, y.end());
        trace.add(t, std::move(caps), std::move(rtts));
    }
    return trace;
}

void
writeTraceCsv(const std::string &path, const BwTrace &trace)
{
    ml::writeCsvFile(path, trace.toDataset(), {"t"});
}

BwTrace
readTraceCsv(const std::string &path)
{
    // Re-raise parse/layout failures with the file path attached:
    // "unreadable CSV" without a name is useless from the CLI.
    try {
        std::vector<std::size_t> rowLines;
        const ml::Dataset data = ml::readCsvFile(path, &rowLines);
        return BwTrace::fromDataset(data, &rowLines);
    } catch (const FatalError &e) {
        std::string what = e.what();
        const std::string prefix = "fatal: ";
        if (what.rfind(prefix, 0) == 0)
            what = what.substr(prefix.size());
        fatal("cannot read trace '" + path + "': " + what);
    }
}

std::vector<double>
capturedMultipliers(const net::NetworkSim &sim)
{
    const auto &topo = sim.topology();
    const std::size_t n = topo.dcCount();
    std::vector<double> out(n * n, 1.0);
    for (net::DcId i = 0; i < n; ++i) {
        for (net::DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const Mbps nominal = topo.pathCap(i, j);
            if (nominal > 0.0)
                out[i * n + j] =
                    sim.effectivePathCap(i, j) / nominal;
        }
    }
    return out;
}

TraceReplay::TraceReplay(BwTrace trace) : trace_(std::move(trace))
{
    fatalIf(trace_.empty(), "TraceReplay: empty trace");
    checkParallelRows(trace_, "TraceReplay");
    if (!trace_.faults.empty())
        faults_ = fault::FaultPlan(trace_.faults, trace_.dcs, 0);
}

const fault::FaultPlan *
TraceReplay::faultPlan() const
{
    return faults_.empty() ? nullptr : &faults_;
}

void
TraceReplay::applyAt(net::NetworkSim &sim, Seconds t) const
{
    const std::size_t n = trace_.dcs;
    fatalIf(sim.topology().dcCount() != n,
            "TraceReplay: trace recorded for a different cluster "
            "size");
    // Interval-end semantics: the row whose window (t_{k-1}, t_k]
    // contains the *next* instant after t. The microsecond slack
    // absorbs accumulated float error between the recording and the
    // replaying simulator clocks at epoch boundaries.
    const auto it = std::upper_bound(trace_.times.begin(),
                                     trace_.times.end(), t + 1.0e-6);
    const std::size_t k =
        it == trace_.times.end()
            ? trace_.times.size() - 1
            : static_cast<std::size_t>(it - trace_.times.begin());
    const auto &row = trace_.rows[k];
    const auto &rtt = trace_.rttRows[k];
    for (net::DcId i = 0; i < n; ++i) {
        for (net::DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            sim.setScenarioCapFactor(i, j, row[i * n + j]);
            sim.setScenarioRttFactor(i, j, rtt[i * n + j]);
        }
    }
}

double
TraceReplay::capFactorAt(net::DcId i, net::DcId j, Seconds t) const
{
    const std::size_t n = trace_.dcs;
    fatalIf(i >= n || j >= n,
            "TraceReplay::capFactorAt: pair out of range");
    // Row k holds over (t_{k-1}, t_k]: the first sample with time
    // >= t, clamped to the last row past the end of the recording.
    const auto it = std::lower_bound(trace_.times.begin(),
                                     trace_.times.end(), t);
    const std::size_t k =
        it == trace_.times.end()
            ? trace_.times.size() - 1
            : static_cast<std::size_t>(it - trace_.times.begin());
    return trace_.rows[k][i * n + j];
}

std::vector<BurstFlow>
TraceReplay::burstsIn(Seconds t0, Seconds t1) const
{
    std::vector<BurstFlow> out;
    for (const auto &b : trace_.bursts)
        if (b.start > t0 && b.start <= t1)
            out.push_back(b);
    return out;
}

void
TraceReplay::changePointsIn(Seconds t0, Seconds t1,
                            std::vector<ChangePoint> &out) const
{
    // Each sample timestamp ends one hold interval and starts the
    // next, so the medium steps exactly there.
    const auto lo = std::upper_bound(trace_.times.begin(),
                                     trace_.times.end(), t0);
    for (auto it = lo; it != trace_.times.end() && *it <= t1; ++it)
        out.push_back({*it, ChangeKind::Factor});
    for (const auto &b : trace_.bursts) {
        if (b.start > t0 && b.start <= t1)
            out.push_back({b.start, ChangeKind::BurstStart});
        const Seconds end = b.start + b.duration;
        if (end > t0 && end <= t1)
            out.push_back({end, ChangeKind::BurstEnd});
    }
}

} // namespace scenario
} // namespace wanify
