/**
 * @file
 * Outside-in layer tracing for the end-to-end benchmark.
 *
 * The benchmark times the program only through its public seams: the
 * top-level call (gda::Engine::run or serve::Service::drain) is the
 * parent span, and decorators around the injected gda::Scheduler and
 * scenario::Dynamics record child spans for placeStage, applyAt and
 * changePointsIn. capFactorAt fires over a million times per TeraSort
 * pass, so it is counted and timed in aggregate only. Spans stay in
 * memory and are written as Chrome trace-event JSON on request.
 *
 * A layer's self time is its span minus the time its direct children
 * cover; a child invoked while another child is open is already inside
 * that child's span and is not subtracted twice.
 */

#ifndef WANBENCH_TRACE_HH
#define WANBENCH_TRACE_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gda/scheduler.hh"
#include "scenario/scenario.hh"

namespace wanbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The child layers the decorators can see from outside. */
enum class Layer
{
    Place,       ///< gda::Scheduler::placeStage
    Apply,       ///< scenario::Dynamics::applyAt
    ChangePoint, ///< scenario::Dynamics::changePointsIn
    CapFactor,   ///< scenario::Dynamics::capFactorAt (aggregate only)
    Count,
};

/** Calls and busy seconds of one layer. */
struct LayerTotals
{
    std::size_t calls = 0;
    double seconds = 0.0;
};

class Tracer
{
  public:
    /** @param keepSpans record every span for writeChromeTrace. */
    explicit Tracer(bool keepSpans) : keepSpans_(keepSpans) {}

    /** Open the parent span of one top-level program call. */
    void
    beginCall(const char *name)
    {
        callName_ = name;
        callStart_ = Clock::now();
        callChildSeconds_ = 0.0;
    }

    /** Close the parent span; @p retrainSeconds is the call's own
     *  report of time spent inside Wanify::retrain. */
    void
    endCall(double retrainSeconds)
    {
        const auto end = Clock::now();
        const double seconds =
            std::chrono::duration<double>(end - callStart_).count();
        const double self = seconds - callChildSeconds_ - retrainSeconds;
        minSelfSeconds_ =
            calls_ == 0 ? self : std::min(minSelfSeconds_, self);
        ++calls_;
        callSeconds_ += seconds;
        retrainSeconds_ += retrainSeconds;
        selfSeconds_ += self;
        if (keepSpans_)
            spans_.push_back({callName_, callStart_, end, calls_, 0});
    }

    /** Run @p fn as a child span of the open call. */
    template <typename Fn>
    decltype(auto)
    child(Layer layer, const char *name, Fn &&fn)
    {
        const bool direct = depth_ == 0;
        ++depth_;
        const auto start = Clock::now();
        struct Close
        {
            Tracer &t;
            Layer layer;
            const char *name;
            Clock::time_point start;
            bool direct;
            ~Close()
            {
                const auto end = Clock::now();
                --t.depth_;
                if (!direct)
                    return;
                const double s =
                    std::chrono::duration<double>(end - start).count();
                LayerTotals &tot =
                    t.layers_[static_cast<std::size_t>(layer)];
                ++tot.calls;
                tot.seconds += s;
                t.callChildSeconds_ += s;
                if (t.keepSpans_ && layer != Layer::CapFactor)
                    t.spans_.push_back(
                        {name, start, end, t.calls_ + 1, 1});
            }
        } close{*this, layer, name, start, direct};
        return fn();
    }

    const LayerTotals &
    layer(Layer l) const
    {
        return layers_[static_cast<std::size_t>(l)];
    }

    std::size_t calls() const { return calls_; }
    double callSeconds() const { return callSeconds_; }
    double selfSeconds() const { return selfSeconds_; }
    double retrainSeconds() const { return retrainSeconds_; }

    /** Smallest self time of any call: negative means the children
     *  overlapped and the accounting is broken. */
    double minSelfSeconds() const { return minSelfSeconds_; }

    /** Sum of PlanMemory::lastIterations read after each placement. */
    std::size_t searchIterations = 0;

    /** Placements whose rows do not add up to the stage input. */
    std::size_t badPlacements = 0;

    /**
     * Write the recorded spans as Chrome trace-event JSON ("X"
     * events, microseconds since @p origin). Every span carries the
     * index of the top-level call it belongs to.
     */
    bool
    writeChromeTrace(const std::string &path,
                     Clock::time_point origin) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const double ts =
                std::chrono::duration<double, std::micro>(s.start -
                                                          origin)
                    .count();
            const double dur =
                std::chrono::duration<double, std::micro>(s.end -
                                                          s.start)
                    .count();
            std::fprintf(f,
                         "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"call\": %zu, \"depth\": %d}}%s\n",
                         s.name, ts, dur, s.call, s.depth,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        std::size_t call; ///< 1-based index of the top-level call
        int depth;        ///< 0 = top-level call, 1 = child
    };

    bool keepSpans_;
    std::vector<Span> spans_;
    LayerTotals layers_[static_cast<std::size_t>(Layer::Count)];
    int depth_ = 0;

    const char *callName_ = "";
    Clock::time_point callStart_;
    double callChildSeconds_ = 0.0;
    std::size_t calls_ = 0;
    double callSeconds_ = 0.0;
    double selfSeconds_ = 0.0;
    double minSelfSeconds_ = 0.0;
    double retrainSeconds_ = 0.0;
};

/** Times every placement of the wrapped scheduler. */
class TimedScheduler : public wanify::gda::Scheduler
{
  public:
    TimedScheduler(wanify::gda::Scheduler &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    std::string name() const override { return inner_.name(); }

    wanify::Matrix<wanify::Bytes>
    placeStage(const wanify::gda::StageContext &ctx) override
    {
        auto out = tracer_.child(Layer::Place, "placeStage", [&] {
            return inner_.placeStage(ctx);
        });
        if (ctx.memory != nullptr)
            tracer_.searchIterations += ctx.memory->lastIterations;
        if (!conserves(ctx.inputByDc, out))
            ++tracer_.badPlacements;
        return out;
    }

  private:
    /** Every DC's input is placed exactly once, nowhere negatively. */
    static bool
    conserves(const std::vector<wanify::Bytes> &input,
              const wanify::Matrix<wanify::Bytes> &a)
    {
        const std::size_t n = input.size();
        if (a.rows() != n || a.cols() != n)
            return false;
        for (std::size_t i = 0; i < n; ++i) {
            wanify::Bytes row = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                if (!(a.at(i, j) >= 0.0))
                    return false;
                row += a.at(i, j);
            }
            if (std::abs(row - input[i]) >
                1.0e-9 * std::max(1.0, input[i]))
                return false;
        }
        return true;
    }

    wanify::gda::Scheduler &inner_;
    Tracer &tracer_;
};

/** Times the wrapped dynamics source's per-call hooks. */
class TimedDynamics : public wanify::scenario::Dynamics
{
  public:
    TimedDynamics(const wanify::scenario::Dynamics &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    std::size_t dcCount() const override { return inner_.dcCount(); }

    void
    applyAt(wanify::net::NetworkSim &sim,
            wanify::Seconds t) const override
    {
        tracer_.child(Layer::Apply, "applyAt",
                      [&] { inner_.applyAt(sim, t); });
    }

    double
    capFactorAt(wanify::net::DcId i, wanify::net::DcId j,
                wanify::Seconds t) const override
    {
        return tracer_.child(Layer::CapFactor, "capFactorAt", [&] {
            return inner_.capFactorAt(i, j, t);
        });
    }

    std::vector<wanify::scenario::BurstFlow>
    burstsIn(wanify::Seconds t0, wanify::Seconds t1) const override
    {
        return inner_.burstsIn(t0, t1);
    }

    void
    changePointsIn(
        wanify::Seconds t0, wanify::Seconds t1,
        std::vector<wanify::scenario::ChangePoint> &out) const override
    {
        tracer_.child(Layer::ChangePoint, "changePointsIn",
                      [&] { inner_.changePointsIn(t0, t1, out); });
    }

    const wanify::fault::FaultPlan *
    faultPlan() const override
    {
        return inner_.faultPlan();
    }

  private:
    const wanify::scenario::Dynamics &inner_;
    Tracer &tracer_;
};

} // namespace wanbench

#endif // WANBENCH_TRACE_HH
