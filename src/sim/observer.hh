// Observability hook points for the simulation core.
//
// A SimObserver sees every event-queue dispatch (wrapped around
// Event::process()) and the lifecycle of every timing packet (reported from
// the port layer). The production implementation is obs::ObsSession
// (src/obs/), which fans the callbacks out to the Perfetto trace writer and
// the host-time profiler; the simulation core knows only this interface.
//
// Cost when off: the event loop pays one branch on a null pointer per
// dispatch, and the port layer one thread-local load + branch per hop —
// there is no locking, no allocation, and no string work on the disabled
// path.
//
// The packet hooks are delivered through a *thread-local* channel
// (ObserverScope, installed by Simulation::run() exactly like
// PacketIdScope): ports and packets are plain objects with no back-pointer
// to their Simulation, and one thread drives one Simulation (DESIGN.md), so
// the thread identifies the run.
#pragma once

#include <cstdint>

#include "sim/ticks.hh"

namespace g5r {

class Event;

/// Identifies one logical unit of work flowing through the SoC (an NVDLA
/// job, a DMA descriptor, a PMU script, ...). 0 means "untagged"; real IDs
/// come from Simulation::allocRequestId() and are strictly positive, so a
/// run's ID stream is per-Simulation and deterministic.
using ReqId = std::uint64_t;

/// Stage taxonomy for request span attribution. Each span a component
/// reports is labelled with the stage of the pipeline the request spent
/// those ticks in; the critical-path analysis (src/obs/reqtrace.hh) blames
/// overlapping spans by a fixed precedence. Keep the order stable: the
/// numeric values are serialized into .reqtrace.jsonl sidecars.
enum class ReqStage : std::uint8_t {
    kHostLoad,     ///< Host-side configuration (CSB register writes, PMU readout).
    kDmaStage,     ///< DMA engine staging data into the scratchpad.
    kSpmFill,      ///< SPM miss fill in flight (MSHR occupancy).
    kXbarQueue,    ///< Queued in a crossbar layer waiting for the peer.
    kDramService,  ///< In a DRAM channel queue / being serviced.
    kRtlCompute,   ///< RTL model computing (host poll window).
    kDrain,        ///< Result draining back to main memory.
};

inline constexpr unsigned kNumReqStages = 7;

const char* reqStageName(ReqStage stage);

class SimObserver {
public:
    virtual ~SimObserver() = default;

    /// Bracketing Simulation::run(): wall time between the two calls is the
    /// run's host cost (the profiler's denominator).
    virtual void runBegin() {}
    virtual void runEnd() {}

    /// Wrapped around Event::process(). dispatchEnd() deliberately does not
    /// receive the event again: a handler may destroy its own event, so
    /// implementations must cache whatever they need at dispatchBegin().
    virtual void dispatchBegin(const Event& ev, Tick when) = 0;
    virtual void dispatchEnd(Tick when) = 0;

    /// False for an observer that needs only the run, packet and request
    /// hooks: Simulation::setObserver() then leaves the event queue's
    /// dispatch path unobserved, and the dispatch hooks are never called.
    /// Asked once, when the observer is attached.
    virtual bool observesDispatches() const { return true; }

    /// False for an observer that ignores the four packet hooks below: the
    /// port layer then neither calls them nor marks packets flow-tracked.
    /// Asked once per Simulation::run(), when the observer is installed.
    virtual bool observesPackets() const { return true; }

    /// Packet lifecycle, reported by the port layer (mem/port.hh). "Issued"
    /// fires at the first accepted timing send of a response-needing packet,
    /// "forwarded" at each later accepted request hop, "responded" at each
    /// accepted response hop, and "completed" when the (response) packet is
    /// finally destroyed by its requester. Simulated time is not passed:
    /// the observer tracks the current tick via dispatchBegin().
    virtual void packetIssued(std::uint64_t id, std::uint64_t addr, unsigned size,
                              bool isRead) {
        (void)id; (void)addr; (void)size; (void)isRead;
    }
    virtual void packetForwarded(std::uint64_t id) { (void)id; }
    virtual void packetResponded(std::uint64_t id) { (void)id; }
    virtual void packetCompleted(std::uint64_t id) { (void)id; }

    /// Request lifecycle, reported by the components that own a unit of
    /// work (soc/NvdlaHost, mem/DmaEngine, soc/PmuObserver, ...). A request
    /// begins once, may reference a parent (0 = root), accumulates stage
    /// spans in simulated ticks, and ends once. Components call these
    /// unconditionally when tracing is on; the default implementations cost
    /// nothing so observers that do not care need not override.
    virtual void requestBegin(ReqId id, ReqId parent, const char* kind, Tick when) {
        (void)id; (void)parent; (void)kind; (void)when;
    }
    virtual void requestEnd(ReqId id, Tick when) { (void)id; (void)when; }
    virtual void requestSpan(ReqId id, ReqStage stage, Tick begin, Tick end) {
        (void)id; (void)stage; (void)begin; (void)end;
    }
};

namespace detail {
extern thread_local SimObserver* tlsSimObserver;
extern thread_local SimObserver* tlsPacketObserver;
}  // namespace detail

/// The calling thread's active observer; nullptr when observability is off
/// (the common case — callers branch on this and pay nothing more).
inline SimObserver* threadObserver() { return detail::tlsSimObserver; }

/// The same observer when it observes packets (SimObserver::observesPackets),
/// else nullptr: what the port layer reports packet lifecycles to.
inline SimObserver* threadPacketObserver() { return detail::tlsPacketObserver; }

/// RAII: install @p observer (may be nullptr) as the calling thread's
/// active observer, and as its packet observer if it observes packets.
/// Scopes nest; the previous observers are restored on destruction.
class ObserverScope {
public:
    explicit ObserverScope(SimObserver* observer);
    ~ObserverScope();
    ObserverScope(const ObserverScope&) = delete;
    ObserverScope& operator=(const ObserverScope&) = delete;

private:
    SimObserver* prev_;
    SimObserver* prevPacket_;
};

}  // namespace g5r
