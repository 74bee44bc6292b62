/**
 * @file
 * Deterministic event queue for the engine's event-driven clock.
 *
 * Advancing the simulator in fixed epoch strides would apply scenario
 * dynamics at whatever instant a stride happens to end — a scripted
 * outage starting mid-epoch would take effect up to one epoch late,
 * and a flash crowd opening inside a compute phase would be missed
 * entirely. The event clock instead schedules every instant the loop
 * must wake at — epoch ticks, the per-stage guard, the dynamics'
 * discrete change points, fault edges and retry deadlines — as
 * timestamped events popped in order, so conditions change at their
 * true times and bursts can span stage boundaries.
 *
 * Determinism contract (the tie-break rule): events are popped by
 * (time, kind, push sequence), all ascending. Two events at the same
 * instant therefore resolve in a *documented* order — the stage guard
 * fires before a coincident epoch tick (a stage that dies exactly at
 * its guard never runs one extra agent epoch), the tick before any
 * coincident dynamics edge (the edge is then an idempotent no-op, so
 * edges on the tick grid change nothing a tick did not), and same-kind
 * collisions pop in push order. Nothing about the ordering depends on
 * heap internals or pointer values, so sequential and parallel trials
 * see identical schedules.
 */

#ifndef WANIFY_GDA_EVENT_CLOCK_HH
#define WANIFY_GDA_EVENT_CLOCK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace wanify {
namespace gda {

/** What a scheduled wake-up is for. Enumerator order is the same-time
 *  pop order — renumbering changes engine behavior. */
enum class ClockEventKind
{
    StageGuard = 0,    ///< the per-stage safety cap
    EpochTick = 1,     ///< AIMD epoch: agents, drift gauge, retrain
    DynamicsChange = 2,///< a scripted factor window opens or closes
    BurstEdge = 3,     ///< a flash-crowd burst starts or expires
    FaultEdge = 4,     ///< a hard fault fires or its window clears
    RetryDue = 5,      ///< an aborted transfer's backoff expires
};

/** One scheduled wake-up of the stage loop. */
struct ClockEvent
{
    Seconds time = 0.0;
    ClockEventKind kind = ClockEventKind::EpochTick;

    /** Push order, breaking (time, kind) ties deterministically. */
    std::uint64_t seq = 0;
};

/**
 * Min-queue of ClockEvents with the documented (time, kind, seq)
 * pop order. A thin binary heap: push/pop are O(log n) and the
 * container never allocates on pop, so the stage loop's steady state
 * is allocation-free.
 */
class EventClock
{
  public:
    /** Schedule a wake-up; later pushes at the same (time, kind)
     *  pop later. */
    void push(Seconds time, ClockEventKind kind);

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** The next event without removing it; panics when empty. */
    const ClockEvent &top() const;

    /** Remove and return the next event; panics when empty. */
    ClockEvent pop();

    /** Drop every scheduled event (the seq counter keeps running so
     *  cross-stage determinism never depends on clearing). */
    void clear() { heap_.clear(); }

  private:
    std::vector<ClockEvent> heap_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace gda
} // namespace wanify

#endif // WANIFY_GDA_EVENT_CLOCK_HH
