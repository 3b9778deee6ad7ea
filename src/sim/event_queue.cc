#include "sim/event_queue.hh"

#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/observer.hh"

namespace g5r {

Event::~Event() {
    if (scheduled_ && queue_ != nullptr) queue_->deschedule(*this);
}

void EventQueue::place(std::size_t idx, const Entry& entry) {
    heap_[idx] = entry;
    entry.event->heapIndex_ = idx;
}

void EventQueue::fillHoleUp(std::size_t hole, const Entry& moving) {
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!laterThan(heap_[parent], moving)) break;
        place(hole, heap_[parent]);
        hole = parent;
    }
    place(hole, moving);
}

void EventQueue::fillHoleDown(std::size_t hole, const Entry& moving) {
    const std::size_t n = heap_.size();
    while (true) {
        const std::size_t left = 2 * hole + 1;
        if (left >= n) break;
        const std::size_t right = left + 1;
        const std::size_t child =
            right < n && laterThan(heap_[left], heap_[right]) ? right : left;
        if (!laterThan(moving, heap_[child])) break;
        place(hole, heap_[child]);
        hole = child;
    }
    place(hole, moving);
}

void EventQueue::removeAt(std::size_t idx) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (idx == heap_.size()) return;  // It was the last slot.
    if (idx > 0 && laterThan(heap_[(idx - 1) / 2], last)) {
        fillHoleUp(idx, last);
    } else {
        fillHoleDown(idx, last);
    }
}

void EventQueue::schedule(Event& ev, Tick when) {
    simAssert(!ev.scheduled_, "schedule() on an already-scheduled event");
    simAssert(when >= curTick_, "schedule() into the past");
    ev.when_ = when;
    ev.scheduled_ = true;
    ev.queue_ = this;
    const std::uint64_t rank =
        ev.orderKey_ != Event::kNoOrderKey ? ev.orderKey_ : nextSequence_++;
    const std::size_t hole = heap_.size();
    heap_.emplace_back();
    fillHoleUp(hole, Entry{when, ev.priority_, rank, &ev});
}

void EventQueue::deschedule(Event& ev) {
    simAssert(ev.scheduled_, "deschedule() on an idle event");
    simAssert(ev.queue_ == this, "deschedule() on the wrong queue");
    removeAt(ev.heapIndex_);
    ev.scheduled_ = false;
}

void EventQueue::reschedule(Event& ev, Tick when) {
    if (ev.scheduled_) deschedule(ev);
    schedule(ev, when);
}

Tick EventQueue::nextTick() {
    simAssert(!heap_.empty(), "nextTick() on an empty queue");
    return heap_.front().when;
}

void EventQueue::serviceOne() {
    simAssert(!heap_.empty(), "serviceOne() on an empty queue");
    const Entry top = heap_.front();
    removeAt(0);

    Event& ev = *top.event;
    simAssert(top.when >= curTick_, "event queue went backwards");
    if (top.when > curTick_ || top.priority > passedPriority_) {
        curTick_ = top.when;
        passedPriority_ = top.priority;
        passedRank_ = top.rank;
    } else if (top.priority == passedPriority_ && top.rank > passedRank_) {
        passedRank_ = top.rank;
    }
    ev.scheduled_ = false;
    ++numProcessed_;
    if (observer_ == nullptr) {
        ev.process();
    } else {
        // The observer must cache what it needs at dispatchBegin(): the
        // handler may legally destroy its own event.
        observer_->dispatchBegin(ev, curTick_);
        ev.process();
        observer_->dispatchEnd(curTick_);
    }
}

}  // namespace g5r
