// The central event queue: an indexed binary heap over (tick, priority,
// rank), where rank is the insertion sequence or the event's order key.
// Each scheduled event knows its heap slot, so descheduling (and
// destroying a scheduled event) removes its entry at once in O(log n): no
// heap entry ever outlives its event.
//
// Insertions and removals sift a hole, not an entry: the entry that will
// fill it travels in registers, every entry moved on the way is written once
// and tells its event its new slot once.
//
// This header stays free of sim/event.hh so that sim/sim_object.hh can
// inline curTick() over it; include sim/event.hh to schedule events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/ticks.hh"

namespace g5r {

class Event;
class SimObserver;

class EventQueue {
public:
    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /// Current simulated time. Monotonically non-decreasing.
    Tick curTick() const { return curTick_; }

    /// Schedule @p ev at absolute tick @p when (>= curTick()).
    void schedule(Event& ev, Tick when);

    /// Remove a scheduled event from the queue.
    void deschedule(Event& ev);

    /// Move an already-scheduled (or idle) event to a new tick.
    void reschedule(Event& ev, Tick when);

    /// True when no events remain.
    bool empty() const { return heap_.empty(); }

    /// Tick of the next event. Queue must not be empty. Non-const by
    /// contract (NextTickRegression pins it): a queue may reorganise
    /// itself on a peek.
    Tick nextTick();

    /// Pop and process the next event, advancing curTick.
    void serviceOne();

    /// Advance to the *end* of tick @p when without servicing anything.
    /// Used by the run loop to land exactly on a finite run bound, so a
    /// fully quiesced system (e.g. every RTL tick gated) still sees
    /// simulated time pass. Marks every priority at @p when as passed.
    /// No-op when @p when is in the past.
    void advanceTo(Tick when) {
        if (when < curTick_) return;
        curTick_ = when;
        passedPriority_ = kAllPriorities;
    }

    /// True when the dispatch position has moved past (@p when,
    /// @p priority, @p rank): a hypothetical event there would already have
    /// run. Lets a wake path decide whether an ungated twin's tick at this
    /// very edge would have fired by now — stimuli injected afterwards
    /// (e.g. an embedder poking a bus between run() slices) must be sampled
    /// at the *next* edge to keep gated and ungated timing identical. The
    /// rank (an order key, Event::setOrderKey) places the twin among
    /// same-priority peers: it has passed once a higher-ranked one ran.
    bool hasPassed(Tick when, int priority, std::uint64_t rank) const {
        if (when != curTick_) return when < curTick_;
        return priority < passedPriority_ ||
               (priority == passedPriority_ && rank <= passedRank_);
    }

    /// Total number of events processed so far.
    std::uint64_t numProcessed() const { return numProcessed_; }

    /// Number of currently scheduled events.
    std::uint64_t numPending() const { return heap_.size(); }

    /// Observer wrapped around every dispatch (nullptr = off, the fast
    /// path: one predictable branch per event). Installed by
    /// Simulation::setObserver().
    void setObserver(SimObserver* observer) { observer_ = observer; }
    SimObserver* observer() const { return observer_; }

private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t rank;  ///< Order key, or insertion sequence if unkeyed.
        Event* event;
    };

    /// True when @p a dispatches after @p b.
    static bool laterThan(const Entry& a, const Entry& b) {
        if (a.when != b.when) return a.when > b.when;
        if (a.priority != b.priority) return a.priority > b.priority;
        return a.rank > b.rank;
    }
    /// Write @p entry into slot @p idx and tell its event where it lives.
    void place(std::size_t idx, const Entry& entry);
    /// Move the empty slot @p hole towards the root past every entry that
    /// dispatches after @p moving, then fill it with @p moving.
    void fillHoleUp(std::size_t hole, const Entry& moving);
    /// Move the empty slot @p hole towards the leaves past every entry that
    /// dispatches before @p moving, then fill it with @p moving.
    void fillHoleDown(std::size_t hole, const Entry& moving);
    /// Remove the entry in slot @p idx, refilling it with the last entry.
    void removeAt(std::size_t idx);

    /// Sentinel for passedPriority_: the whole tick is behind us.
    static constexpr int kAllPriorities = std::numeric_limits<int>::max();
    /// Initial passedPriority_: below every priority, kStatDump's included.
    static constexpr int kNoPriority = std::numeric_limits<int>::min();

    std::vector<Entry> heap_;
    SimObserver* observer_ = nullptr;
    Tick curTick_ = 0;
    /// Highest priority dispatched at curTick_ so far (kNoPriority: none yet).
    /// Within one tick this only grows via dispatch order, except when an
    /// embedder schedules a fresh low-priority event at the current tick —
    /// the high-water mark keeps recording how far the tick had advanced.
    int passedPriority_ = kNoPriority;
    /// Highest rank dispatched at (curTick_, passedPriority_).
    std::uint64_t passedRank_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t numProcessed_ = 0;
};

}  // namespace g5r
