// NvdlaHost: the host-side application driving an NVDLA instance.
//
// Substitutes the paper's "simple user-level application on the simulated
// SoC host cores" that loads an NVDLA trace into main memory, programs the
// accelerator through the CSB, starts it, and waits for completion. The
// host first functionally preloads the trace's data segments (the paper's
// trace-load step — the reason Table 3's Sanity3 overhead is larger), then
// performs the CSB register writes as timing transactions, then polls the
// status register until the done bit rises, and finally reads back the
// datapath checksum for verification.
#pragma once

#include <functional>
#include <memory>

#include "mem/port.hh"
#include "models/nvdla/nvdla_design.hh"
#include "models/nvdla/trace.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace g5r {

class NvdlaHost : public ClockedObject {
public:
    struct Params {
        Addr csbBase = 0;               ///< Where the RTLObject's CSB is mapped.
        Tick clockPeriod = periodFromGHz(2);
        Cycles pollIntervalCycles = 200;  ///< Status-poll spacing.
        bool verifyChecksum = true;
        /// When set, startup() only loads the trace segments; the CSB
        /// programming waits for release() — used by the dmaSpm memory path,
        /// where the SPM prefetch must finish before the accelerator starts.
        bool waitForRelease = false;
    };

    /// The host reads @p trace and never modifies it, so many hosts (and
    /// threads) may share one trace (models::sharedConvTrace).
    NvdlaHost(Simulation& sim, std::string name, const Params& params,
              std::shared_ptr<const models::NvdlaTrace> trace);

    RequestPort& port() { return port_; }

    /// Invoked once when this accelerator finishes (after checksum readback).
    void setDoneCallback(std::function<void()> cb) { doneCallback_ = std::move(cb); }

    /// Start the CSB programming phase (no-op unless waiting for release).
    void release();

    bool finished() const { return state_ == State::kFinished; }
    Tick startTick() const { return startTick_; }
    Tick finishTick() const { return finishTick_; }

    /// The job's causal-tracing root ID (allocated at construction, so
    /// helpers wired before startup — the SPM prefetcher — can parent their
    /// own work under it).
    ReqId requestId() const { return requestId_; }
    std::uint64_t checksumRead() const { return checksumRead_; }
    bool checksumOk() const { return checksumRead_ == trace_->expectedChecksum; }

    void startup() override;

private:
    enum class State {
        kIdle,
        kWriteRegs,     ///< Issuing configuration writes.
        kPollStatus,    ///< Reading the status register until done.
        kReadChecksum,  ///< Fetching the datapath checksum.
        kFinished,
    };

    class Port final : public RequestPort {
    public:
        Port(std::string n, NvdlaHost& o) : RequestPort(std::move(n)), owner_(o) {}
        bool recvTimingResp(PacketPtr& pkt) override { return owner_.handleResp(pkt); }
        void recvReqRetry() override { owner_.trySend(); }

    private:
        NvdlaHost& owner_;
    };

    void advance();
    void trySend();
    bool handleResp(PacketPtr& pkt);

    Params params_;
    std::shared_ptr<const models::NvdlaTrace> trace_;
    Port port_;
    CallbackEvent advanceEvent_;
    std::function<void()> doneCallback_;

    State state_ = State::kIdle;
    bool loaded_ = false;
    bool released_ = false;
    std::size_t nextRegWrite_ = 0;
    PacketPtr pendingSend_;
    bool awaitingResp_ = false;
    Tick startTick_ = 0;
    Tick finishTick_ = 0;
    Tick pollStartTick_ = 0;  ///< kWriteRegs -> kPollStatus transition.
    std::uint64_t checksumRead_ = 0;
    ReqId requestId_ = 0;

    stats::Scalar& csbWrites_;
    stats::Scalar& statusPolls_;
};

}  // namespace g5r
