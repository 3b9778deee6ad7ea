#include "sim/simulation.hh"

#include <ostream>

#include "exp/json.hh"
#include "sim/logging.hh"
#include "sim/observer.hh"
#include "sim/packet_id.hh"
#include "sim/sim_object.hh"

namespace g5r {

SimObject::SimObject(Simulation& sim, std::string name)
    : sim_(sim), stats_(name), name_(std::move(name)) {
    sim.registerObject(*this);
}

EventQueue& SimObject::eventQueue() { return sim_.eventQueue(); }

Tick SimObject::curTick() const { return sim_.eventQueue().curTick(); }

void Simulation::exitSimLoop(std::string reason) {
    exitRequested_ = true;
    exitMessage_ = std::move(reason);
}

void Simulation::setObserver(SimObserver* observer) {
    simAssert(observer == nullptr || observer_ == nullptr || observer == observer_,
              "a different observer is already attached to this Simulation");
    observer_ = observer;
    const bool dispatches = observer != nullptr && observer->observesDispatches();
    queue_.setObserver(dispatches ? observer : nullptr);
}

RunResult Simulation::run(Tick maxTick) {
    // All packets built while this simulation's events execute draw their
    // IDs from this instance, not a process-wide counter, so the stream is
    // identical whether one or many simulations share the process. The
    // observer rides the same thread-local mechanism so the port layer can
    // report packet lifecycles without a back-pointer to the Simulation.
    const PacketIdScope idScope{packetIdCounter_};
    const ObserverScope obsScope{observer_};
    if (!initialized_) {
        initialized_ = true;
        for (SimObject* obj : objects_) obj->init();
        for (SimObject* obj : objects_) obj->startup();
    }
    exitRequested_ = false;
    exitMessage_.clear();

    if (observer_ != nullptr) observer_->runBegin();
    const RunResult result = runLoop(maxTick);
    if (observer_ != nullptr) observer_->runEnd();
    return result;
}

RunResult Simulation::runLoop(Tick maxTick) {
    while (!queue_.empty()) {
        if (queue_.nextTick() > maxTick) {
            queue_.advanceTo(maxTick);
            return RunResult{ExitCause::kMaxTickReached, maxTick, {}};
        }
        queue_.serviceOne();
        if (exitRequested_) {
            return RunResult{ExitCause::kSimExit, queue_.curTick(), exitMessage_};
        }
    }
    // A bounded run behaves as if an exit event fired at maxTick: simulated
    // time reaches the bound even when every object has quiesced (e.g. all
    // RTL ticks gated), so callers observe the same clock gated or not.
    // Unbounded runs keep the historical queue-exhausted result.
    if (maxTick != kMaxTick) {
        queue_.advanceTo(maxTick);
        return RunResult{ExitCause::kMaxTickReached, maxTick, {}};
    }
    return RunResult{ExitCause::kQueueEmpty, queue_.curTick(), {}};
}

void Simulation::dumpStats(std::ostream& os) const {
    for (const SimObject* obj : objects_) obj->statsGroup().dump(os);
}

exp::Json Simulation::dumpStatsJson() const {
    exp::Json doc = exp::Json::object();
    for (const SimObject* obj : objects_) {
        doc[obj->statsGroup().prefix()] = obj->statsGroup().dumpJson();
    }
    return doc;
}

const stats::Stat* Simulation::findStat(std::string_view fullName) const {
    for (const SimObject* obj : objects_) {
        const std::string& prefix = obj->statsGroup().prefix();
        if (fullName.size() > prefix.size() + 1 && fullName.substr(0, prefix.size()) == prefix &&
            fullName[prefix.size()] == '.') {
            if (const auto* s = obj->statsGroup().find(fullName.substr(prefix.size() + 1))) {
                return s;
            }
        }
    }
    return nullptr;
}

}  // namespace g5r
