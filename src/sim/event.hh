// Discrete-event primitives.
//
// An Event is something that happens at a simulated tick. Events are owned by
// the objects that schedule them (typically as data members) and must outlive
// any tick at which they are scheduled. The queue orders events by
// (tick, priority, rank), which makes simulation fully deterministic for a
// fixed program. An event's rank is its insertion sequence, unless it has a
// fixed order key (setOrderKey), which then ranks it wherever it is
// rescheduled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "sim/ticks.hh"

namespace g5r {

class EventQueue;

/// Scheduling priority: lower values run first within the same tick.
enum class EventPriority : int {
    kStatDump = -100,   ///< Interval statistic dumps observe pre-tick state.
    kClockTick = 0,     ///< Normal model activity.
    kResponse = 10,     ///< Packet responses, after same-tick requests.
    kRtlTick = 20,      ///< RTL model clock edges sample *after* every
                        ///< same-tick packet delivery and event pulse, so a
                        ///< tick rescheduled by a quiescence wake-up observes
                        ///< exactly the state a free-running tick would.
                        ///< Only keyed events use it: each RTL tick is ranked
                        ///< by its object's order key, never by sequence.
    kSimExit = 100,     ///< Exit checks run after all activity at a tick.
};

/// Base class for all schedulable events.
class Event {
public:
    Event() = default;
    explicit Event(EventPriority prio) : priority_(static_cast<int>(prio)) {}
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;
    virtual ~Event();

    /// Invoked by the event queue when the event's tick is reached.
    virtual void process() = 0;

    /// Human-readable identification used in debug traces.
    virtual std::string name() const { return "anon-event"; }

    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }
    int priority() const { return priority_; }

    /// Rank this event by @p key among same-tick, same-priority events,
    /// wherever and however often it is rescheduled, instead of by its
    /// insertion sequence. Keys and sequences do not mix: give keys only to
    /// events of a priority that no unkeyed event uses (kRtlTick).
    void setOrderKey(std::uint64_t key) { orderKey_ = key; }
    std::uint64_t orderKey() const { return orderKey_; }

    static constexpr std::uint64_t kNoOrderKey = ~std::uint64_t{0};

private:
    friend class EventQueue;
    Tick when_ = 0;
    int priority_ = static_cast<int>(EventPriority::kClockTick);
    std::uint64_t orderKey_ = kNoOrderKey;
    std::size_t heapIndex_ = 0;     ///< Slot in the queue's heap while scheduled.
    bool scheduled_ = false;
    EventQueue* queue_ = nullptr;   ///< Queue the event is currently scheduled on.
};

/// Convenience event that invokes a std::function. Mirrors gem5's
/// EventFunctionWrapper; the typical use is a member `onTick()` bound once in
/// the constructor and rescheduled every cycle.
class CallbackEvent final : public Event {
public:
    CallbackEvent(std::function<void()> callback, std::string eventName,
                  EventPriority prio = EventPriority::kClockTick)
        : Event(prio), callback_(std::move(callback)), name_(std::move(eventName)) {}

    void process() override { callback_(); }
    std::string name() const override { return name_; }

private:
    std::function<void()> callback_;
    std::string name_;
};

}  // namespace g5r
