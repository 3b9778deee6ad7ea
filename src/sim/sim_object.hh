// SimObject: the base of every simulated component.
//
// A SimObject is constructed against a Simulation, which provides the shared
// event queue and registers the object for lifecycle hooks. Construction
// order defines wiring order; Simulation::run() calls init() on every object
// (after all wiring is complete) and startup() just before the first event is
// serviced.
#pragma once

#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace g5r {

class Simulation;

class SimObject {
public:
    SimObject(Simulation& sim, std::string name);
    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;
    virtual ~SimObject() = default;

    const std::string& name() const { return name_; }

    /// Called once after the full system is constructed and connected.
    virtual void init() {}

    /// Called once immediately before simulation begins; schedule initial
    /// events here.
    virtual void startup() {}

    /// Bring statistics the object accumulates lazily up to the current
    /// dispatch position. Simulation::run() calls it on every object before
    /// it returns, and the metrics sampler before each sample.
    virtual void settleStats() {}

    Simulation& simulation() { return sim_; }
    EventQueue& eventQueue() { return eventQueue_; }
    Tick curTick() const { return eventQueue_.curTick(); }

    stats::Group& statsGroup() { return stats_; }
    const stats::Group& statsGroup() const { return stats_; }

protected:
    Simulation& sim_;
    stats::Group stats_;

private:
    /// sim_.eventQueue(), cached: every handler reads the clock through it.
    EventQueue& eventQueue_;
    std::string name_;
};

}  // namespace g5r
