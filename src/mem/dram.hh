// Bank- and row-buffer-accurate DRAM controller.
//
// Modelled after gem5's MemCtrl at the abstraction level the paper's
// evaluation depends on:
//   * per-channel read/write queues (Table 1: 64-entry read, 128-entry write)
//     with back-pressure when full,
//   * per-bank open-row state with tRCD/tRP/tCL activation timing,
//   * a shared per-channel data bus serialised at tBURST (peak bandwidth),
//   * FR-FCFS scheduling (row hits first, then oldest),
//   * write buffering with watermark-triggered drain bursts and a bus
//     turnaround penalty on read<->write switches.
//
// A MultiChannelDram front-end interleaves consecutive cache lines across N
// independent channels sharing one BackingStore; the DDR4-1/2/4ch, GDDR5 and
// HBM presets of Table 1 are in dram_configs.hh.
#pragma once

#include <deque>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/backing_store.hh"
#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace g5r {

/// Timing/geometry of one DRAM channel. All times in ticks (ps).
struct DramChannelParams {
    unsigned banks = 16;            ///< Banks per rank.
    unsigned ranks = 1;
    Addr rowBufferBytes = 2048;     ///< Row (page) size per bank.
    unsigned readQueueSize = 64;
    unsigned writeQueueSize = 128;
    Tick tRCD = 14'160;             ///< Activate to column command.
    Tick tCL = 14'160;              ///< Column command to first data.
    Tick tRP = 14'160;              ///< Precharge period.
    Tick tBURST = 3'413;            ///< Data-bus occupancy of one 64B line.
    Tick tSwitch = 7'500;           ///< Bus turnaround on read<->write switch.
    Tick frontendLatency = 10'000;  ///< Static controller pipeline (decode/queue).
    Tick backendLatency = 10'000;   ///< Static response path latency.
    unsigned minWritesPerSwitch = 16;
    double writeHighWatermark = 0.85;  ///< Fraction of write queue that forces a drain.
    double writeLowWatermark = 0.50;   ///< Drain until below this fraction.
    /// FR-FCFS starvation cap: after this many consecutive services that
    /// bypassed the oldest request in a queue, the oldest wins regardless of
    /// row state. Keeps a sustained row-hit stream to one bank from starving
    /// an older request to another indefinitely.
    unsigned maxStarvation = 16;
};

class MultiChannelDram;

/// One independent DRAM channel: queues, banks, bus. Owned by
/// MultiChannelDram; not directly exposed on a port.
class DramChannel : public ClockedObject {
public:
    DramChannel(Simulation& sim, std::string name, const DramChannelParams& params,
                MultiChannelDram& parent, unsigned channelId);

    /// Room for one more request of this kind?
    bool canAccept(const Packet& pkt) const;

    /// Enqueue; caller must have checked canAccept().
    void enqueue(PacketPtr pkt);

    unsigned readQueueDepth() const { return static_cast<unsigned>(readQueue_.size()); }
    unsigned writeQueueDepth() const { return static_cast<unsigned>(writeQueue_.size()); }

private:
    struct Bank {
        static constexpr Addr kNoRow = ~Addr{0};
        Addr openRow = kNoRow;
        Tick actReadyTick = 0;   ///< When the open row can accept column commands.
        Tick lastBurstEnd = 0;   ///< End of the bank's most recent data burst.
    };

    struct QueuedReq {
        PacketPtr pkt;
        Addr row;
        unsigned bank;
        Tick enqueueTick;
        ReqId reqId = 0;  ///< Causal tag; writes keep it after pkt is answered.
    };

    /// Decompose a physical address into (bank, row) for this channel.
    void decode(Addr addr, unsigned& bank, Addr& row) const;

    void processNextRequest();
    /// Pick the FR-FCFS winner in @p queue. @p headBypasses is that queue's
    /// consecutive-bypass counter (see DramChannelParams::maxStarvation).
    std::size_t pickFrFcfs(const std::deque<QueuedReq>& queue,
                           unsigned& headBypasses);
    /// Issue one request: update bank/bus state, return data-ready tick.
    Tick service(QueuedReq& req);

    DramChannelParams params_;
    MultiChannelDram& parent_;
    unsigned channelId_;
    unsigned totalBanks_;
    Addr linesPerRow_;

    std::vector<Bank> banks_;
    std::deque<QueuedReq> readQueue_;
    std::deque<QueuedReq> writeQueue_;
    CallbackEvent nextReqEvent_;

    Tick busFreeTick_ = 0;
    bool lastWasWrite_ = false;
    bool drainingWrites_ = false;
    unsigned writesThisDrain_ = 0;
    unsigned readHeadBypasses_ = 0;
    unsigned writeHeadBypasses_ = 0;

    stats::Scalar& rowHits_;
    stats::Scalar& rowMisses_;
    stats::Scalar& readBursts_;
    stats::Scalar& writeBursts_;
    stats::Scalar& busTurnarounds_;
    stats::Scalar& bytesTransferred_;
    stats::Scalar& starvationBreaks_;
    stats::Histogram& readQueueLatency_;
};

/// The externally visible memory: one response port, N channels interleaved
/// at cache-line granularity, one shared backing store.
class MultiChannelDram : public ClockedObject {
public:
    struct Params {
        AddrRange range;
        unsigned channels = 1;
        Tick clockPeriod = periodFromGHz(2);
        DramChannelParams channel;

        /// Line-interleave factor used for bank/row decoding. 0 means
        /// `channels`. Set it when the channels of one memory are split
        /// across several MultiChannelDram objects (one crossbar port per
        /// channel, as the SoC builder does): each object then sees every
        /// `decodeChannels`-th line and decodes rows accordingly.
        unsigned decodeChannels = 0;
    };

    MultiChannelDram(Simulation& sim, std::string name, const Params& params,
                     BackingStore& store);

    ResponsePort& port() { return port_; }
    const AddrRange& range() const { return params_.range; }
    BackingStore& store() { return store_; }
    unsigned numChannels() const { return params_.channels; }
    unsigned decodeChannels() const {
        return params_.decodeChannels != 0 ? params_.decodeChannels : params_.channels;
    }

    /// Peak bandwidth in bytes/second across all channels (for reporting).
    double peakBandwidth() const;

private:
    friend class DramChannel;

    class MemPort final : public ResponsePort {
    public:
        MemPort(std::string portName, MultiChannelDram& owner)
            : ResponsePort(std::move(portName)), owner_(owner) {}
        bool recvTimingReq(PacketPtr& pkt) override { return owner_.handleReq(pkt); }
        void recvFunctional(Packet& pkt) override { owner_.store_.access(pkt); }
        void recvRespRetry() override { owner_.respBlocked_ = false; owner_.trySendResponses(); }

    private:
        MultiChannelDram& owner_;
    };

    unsigned channelOf(Addr addr) const;
    bool handleReq(PacketPtr& pkt);

    /// Called by channels when a response payload is ready at @p readyTick.
    void respond(PacketPtr pkt, Tick readyTick);

    /// Called by a channel when one entry of its read or write queue frees
    /// up. Only fires the port retry when that (channel, queue) is the one
    /// whose rejection is still outstanding — any other channel freeing
    /// space would just bounce the retried packet off the same full queue.
    void channelSpaceFreed(unsigned channelId, bool wasWrite);

    void trySendResponses();

    Params params_;
    BackingStore& store_;
    MemPort port_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    CallbackEvent sendEvent_;

    struct PendingResp {
        Tick readyTick;
        PacketPtr pkt;
    };
    // Sorted insertion keeps responses in ready order across channels.
    std::deque<PendingResp> respQueue_;
    bool needReqRetry_ = false;
    unsigned retryChannel_ = 0;   ///< Channel whose queue rejected the packet.
    bool retryIsWrite_ = false;   ///< Which of its queues was full.
    bool respBlocked_ = false;

    stats::Scalar& numReads_;
    stats::Scalar& numWrites_;
    stats::Scalar& bytesRead_;
    stats::Scalar& bytesWritten_;
    stats::Scalar& rejectedRequests_;
};

}  // namespace g5r
