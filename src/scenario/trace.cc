#include "scenario/trace.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "common/error.hh"
#include "common/rng.hh"

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
 * The struct's fields are public, so every consumer that indexes
 * rows and rttRows validates their shape first instead of walking
 * off the end.
 */
void
checkParallelRows(const BwTrace &trace, const char *who)
{
    bool parallel = trace.rows.size() == trace.times.size() &&
                    trace.rttRows.size() == trace.rows.size();
    for (std::size_t k = 0; parallel && k < trace.rows.size(); ++k)
        parallel = trace.rows[k].size() == trace.dcs * trace.dcs &&
                   trace.rttRows[k].size() == trace.dcs * trace.dcs;
    fatalIf(!parallel,
            std::string(who) +
                ": times/rows/rttRows must stay parallel and dcs * dcs "
                "wide (build traces through BwTrace::add)");
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

namespace {

/** Parse the whole of @p cell as a number; std::stod alone stops at
 *  the first bad character, reading "1abc" as 1. Whitespace around
 *  the number is allowed on both sides, as std::stod allows it before. */
bool
parseCell(const std::string &cell, double &out)
{
    try {
        std::size_t used = 0;
        out = std::stod(cell, &used);
        for (; used < cell.size(); ++used)
            if (std::isspace(static_cast<unsigned char>(cell[used])) == 0)
                return false;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

/** std::getline that also drops the '\r' of a CRLF line ending. */
bool
getLine(std::istream &in, std::string &line)
{
    if (!std::getline(in, line))
        return false;
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return true;
}

/** The cause of @p e: its what() without the "fatal: " prefix. */
std::string
causeOf(const FatalError &e)
{
    return std::string(e.what()).substr(std::strlen("fatal: "));
}

/** The header of an @p n-DC trace: `t,y0,...,y{2n^2-1}`. */
std::string
traceHeader(std::size_t n)
{
    std::string header = "t";
    for (std::size_t c = 0; c < 2 * n * n; ++c)
        header += ",y" + std::to_string(c);
    return header;
}

/** The DC count a trace header names; fatal() unless it is
 *  traceHeader(n) for some n >= 2. */
std::size_t
headerDcs(const std::string &header)
{
    const auto cells = static_cast<std::size_t>(
        std::count(header.begin(), header.end(), ',') + 1);
    std::size_t n = 2;
    while (1 + 2 * n * n < cells)
        ++n;
    if (1 + 2 * n * n != cells || header != traceHeader(n))
        fatal("header must be t,y0,...,y{2n^2-1} with n >= 2 DCs");
    return n;
}

/** Add CSV row @p y (the cells after t) of an @p n-DC trace to
 *  @p trace; fatal() naming the first bad cell. */
void
addRow(BwTrace &trace, std::size_t n, double t, const double *y)
{
    const std::size_t pairs = n * n;
    if (t >= 0.0) {
        for (std::size_t p = 0; p < pairs; ++p)
            if (!std::isfinite(y[p]) || y[p] < 0.0)
                fatal("capacity factor must be finite and >= 0");
        for (std::size_t p = pairs; p < 2 * pairs; ++p)
            if (!std::isfinite(y[p]) || y[p] <= 0.0)
                fatal("RTT factor must be finite and > 0");
        trace.add(t, std::vector<double>(y, y + pairs),
                  std::vector<double>(y + pairs, y + 2 * pairs));
        return;
    }
    // A marker uses the first seven cells (n >= 2 gives at least 8).
    // They are checked before any integer cast: an out-of-range
    // double cast to an integer is undefined. A nonzero kind cell
    // (kind + 1) makes the row a fault marker.
    const double lastDc = static_cast<double>(n - 1);
    if (y[5] != 0.0) {
        const double kinds =
            static_cast<double>(fault::FaultKind::DcBlackout) + 1;
        if (!wholeIn(y[5], 1.0, kinds))
            fatal("unknown fault kind marker");
        if (!wholeIn(y[2], fault::kAnyDc, lastDc) ||
            !wholeIn(y[3], fault::kAnyDc, lastDc) ||
            !wholeIn(y[4], 0.0, lastDc))
            fatal("fault marker DC out of range");
        fault::FaultEvent fe;
        fe.kind = static_cast<fault::FaultKind>(static_cast<int>(y[5]) - 1);
        fe.time = y[0];
        fe.duration = y[1];
        fe.src = static_cast<int>(y[2]);
        fe.dst = static_cast<int>(y[3]);
        fe.dc = static_cast<int>(y[4]);
        fe.startJitter = y[6];
        fault::validate(fe, n);
        trace.faults.push_back(fe);
        return;
    }
    if (!wholeIn(y[2], 0.0, lastDc) || !wholeIn(y[3], 0.0, lastDc) ||
        y[2] == y[3])
        fatal("burst DCs must be distinct and in range");
    if (!wholeIn(y[4], 1.0, std::numeric_limits<int>::max()))
        fatal("burst connections must be an integer >= 1");
    if (!std::isfinite(y[0]) || y[0] < 0.0)
        fatal("burst start must be finite and >= 0");
    if (!std::isfinite(y[1]) || y[1] <= 0.0)
        fatal("burst duration must be finite and > 0");
    BurstFlow burst;
    burst.start = y[0];
    burst.duration = y[1];
    burst.src = static_cast<net::DcId>(y[2]);
    burst.dst = static_cast<net::DcId>(y[3]);
    burst.connections = static_cast<int>(y[4]);
    trace.bursts.push_back(burst);
}

/** Parse a whole trace CSV from @p in; a bad row is named by its file
 *  line (the header is line 1). */
BwTrace
parseTrace(std::istream &in)
{
    std::string line;
    if (!getLine(in, line))
        fatal("missing header");
    const std::size_t n = headerDcs(line);
    BwTrace trace;
    trace.dcs = n;
    std::vector<double> cells;
    for (std::size_t lineNo = 2; getLine(in, line); ++lineNo) {
        if (line.empty())
            continue;
        try {
            cells.clear();
            std::stringstream ss(line);
            for (std::string cell; std::getline(ss, cell, ',');) {
                double value = 0.0;
                if (!parseCell(cell, value))
                    fatal("bad number");
                cells.push_back(value);
            }
            if (cells.size() != 1 + 2 * n * n)
                fatal("wrong column count");
            if (!std::isfinite(cells[0]))
                fatal("non-finite t");
            addRow(trace, n, cells[0], cells.data() + 1);
        } catch (const FatalError &e) {
            fatal(causeOf(e) + " at line " + std::to_string(lineNo));
        }
    }
    return trace;
}

} // namespace

void
writeTraceCsv(const std::string &path, const BwTrace &trace)
{
    fatalIf(trace.dcs < 2, "writeTraceCsv: a trace needs at least 2 DCs");
    checkParallelRows(trace, "writeTraceCsv");
    std::ofstream out(path);
    fatalIf(!out, "writeTraceCsv: cannot open " + path);
    const std::size_t cells = 2 * trace.dcs * trace.dcs;
    out << traceHeader(trace.dcs) << "\n";
    out.precision(std::numeric_limits<double>::max_digits10);
    for (std::size_t k = 0; k < trace.size(); ++k) {
        out << trace.times[k];
        for (double m : trace.rows[k])
            out << "," << m;
        for (double f : trace.rttRows[k])
            out << "," << f;
        out << "\n";
    }
    std::size_t markers = 0;
    auto marker = [&](std::initializer_list<double> payload) {
        out << -static_cast<double>(++markers);
        for (double v : payload)
            out << "," << v;
        for (std::size_t c = payload.size(); c < cells; ++c)
            out << ",0";
        out << "\n";
    };
    for (const BurstFlow &b : trace.bursts)
        marker({b.start, b.duration, static_cast<double>(b.src),
                static_cast<double>(b.dst),
                static_cast<double>(b.connections)});
    for (const fault::FaultEvent &f : trace.faults)
        marker({f.time, f.duration, static_cast<double>(f.src),
                static_cast<double>(f.dst), static_cast<double>(f.dc),
                static_cast<double>(static_cast<int>(f.kind)) + 1.0,
                f.startJitter});
    fatalIf(!out, "writeTraceCsv: write failed for " + path);
}

BwTrace
readTraceCsv(const std::string &path)
{
    // Every cause names the file: "bad number" without a name is
    // useless from the CLI.
    try {
        std::ifstream in(path);
        if (!in)
            fatal("cannot open the file");
        return parseTrace(in);
    } catch (const FatalError &e) {
        fatal("cannot read trace '" + path + "': " + causeOf(e));
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
