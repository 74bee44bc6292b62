#include "gda/event_clock.hh"

#include <algorithm>

#include "common/error.hh"

namespace wanify {
namespace gda {

namespace {

/** "a pops after b": lexicographic (time, kind, seq), ascending pop
 *  order. Used as the heap comparator (std::push_heap keeps the
 *  *largest* element first under `<`, so the comparator is the pop
 *  order reversed). */
bool
popsAfter(const ClockEvent &a, const ClockEvent &b)
{
    if (a.time != b.time)
        return a.time > b.time;
    if (a.kind != b.kind)
        return a.kind > b.kind;
    return a.seq > b.seq;
}

} // namespace

void
EventClock::push(Seconds time, ClockEventKind kind)
{
    if (!(time == time))
        fatal("EventClock::push: NaN time");
    ClockEvent ev;
    ev.time = time;
    ev.kind = kind;
    ev.seq = nextSeq_++;
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), popsAfter);
}

const ClockEvent &
EventClock::top() const
{
    if (heap_.empty())
        panic("EventClock::top: empty queue");
    return heap_.front();
}

ClockEvent
EventClock::pop()
{
    if (heap_.empty())
        panic("EventClock::pop: empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), popsAfter);
    const ClockEvent ev = heap_.back();
    heap_.pop_back();
    return ev;
}

} // namespace gda
} // namespace wanify
