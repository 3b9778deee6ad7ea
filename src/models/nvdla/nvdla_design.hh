// Cycle-level NVDLA-style convolution accelerator.
//
// Stands in for the NVDLA nv_full RTL (Table 1: 2048 8-bit MACs, 512 KiB
// buffer, 1 GHz) at the fidelity the paper's design-space exploration
// needs: a CSB-configured engine that streams input features and weights
// from memory through AXI-style read channels, computes through a MAC array,
// and streams results back — with its memory concurrency bounded by the
// credits the RTLObject grants (the max-in-flight knob of Figs. 6/7).
//
// Interfaces match the paper's description of NVDLA:
//   * CSB   — the device channel (configuration space bus),
//   * IRQ   — completion interrupt,
//   * DBBIF — memory port 0 (high-bandwidth data backbone),
//   * SRAMIF— memory port 1 (optional secondary interface; weight traffic
//             can be steered there via the SRAM_MODE register).
//
// Functional honesty: every byte read is folded into an order-independent
// checksum exposed through a CSB register, and output writes carry a
// deterministic pattern derived from it, so tests can verify the entire
// memory datapath end to end (trace.hh computes the expected value).
//
// Register map (byte offsets on the CSB):
//   0x00 IFMAP_BASE   0x08 WEIGHT_BASE   0x10 OFMAP_BASE
//   0x18 DIMS0  = W | H<<16 | C<<32
//   0x20 DIMS1  = K | R<<16 | S<<24 | refetch<<32
//   0x28 CONTROL: write 1 -> start
//   0x30 STATUS: bit0 busy, bit1 done
//   0x38 IRQ_CLEAR: any write deasserts the interrupt
//   0x40 PERF_CYCLES (RO): cycles from start to done
//   0x48 SRAM_MODE: bit0 -> fetch weights via SRAMIF (port 1)
//   0x50 CHECKSUM (RO): datapath checksum
//   0x58 ID (RO)
#pragma once

#include <cstdint>
#include <unordered_map>

#include "bridge/rtl_api.h"
#include "rtl/kernel.hh"

namespace g5r::models {

class NvdlaDesign final : public rtl::Module {
public:
    static constexpr unsigned kMacsPerCycle = 2048;
    static constexpr unsigned kLineBytes = 64;
    static constexpr unsigned kStripeBytes = 2048;
    static constexpr std::uint64_t kIdRegValue = 0x4E56444C41'01;  // "NVDLA",v1.

    // Register offsets.
    static constexpr std::uint64_t kIfmapBaseReg = 0x00;
    static constexpr std::uint64_t kWeightBaseReg = 0x08;
    static constexpr std::uint64_t kOfmapBaseReg = 0x10;
    static constexpr std::uint64_t kDims0Reg = 0x18;
    static constexpr std::uint64_t kDims1Reg = 0x20;
    static constexpr std::uint64_t kControlReg = 0x28;
    static constexpr std::uint64_t kStatusReg = 0x30;
    static constexpr std::uint64_t kIrqClearReg = 0x38;
    static constexpr std::uint64_t kPerfCyclesReg = 0x40;
    static constexpr std::uint64_t kSramModeReg = 0x48;
    static constexpr std::uint64_t kChecksumReg = 0x50;
    static constexpr std::uint64_t kIdReg = 0x58;

    NvdlaDesign();

    /// Apply a CSB write (performed by the wrapper on dev beats).
    void csbWrite(std::uint64_t addr, std::uint64_t data);
    std::uint64_t csbRead(std::uint64_t addr) const;

    /// Advance one clock: may emit memory requests into @p out (respecting
    /// @p credits and one-read-plus-one-write channel limits) and consume
    /// the response in @p in.
    void cycle(const G5rRtlInput& in, G5rRtlOutput& out);

    bool busy() const { return state_.q() == kStateRunning; }
    bool doneFlag() const { return state_.q() == kStateDone; }

    /// True when idle cycles cannot change engine state: the conv pipeline
    /// is not running and every DMA read/write has drained. Basis of the
    /// ABI idle hint; idle cycles then only advance the cycle counter.
    bool quiescent() const {
        return state_.q() != kStateRunning && inflight_.empty() &&
               writeAcksPending_ == 0;
    }

    /// True when idle cycles (no response, @p creditsLeft credits) can emit
    /// nothing until a memory response arrives: the engine runs with
    /// requests in flight, and either no credit is left or every read is
    /// issued while compute can neither run nor free a write. Completion
    /// (irq, done) needs every request answered, so it cannot happen
    /// either. Basis of the ABI quiet hint.
    bool stalled(unsigned creditsLeft) const {
        if (state_.q() != kStateRunning || inflight_.empty()) return false;
        if (creditsLeft == 0) return true;
        return weights_.fullyIssued() && ifmap_.fullyIssued() && !writeReady() &&
               !computeActive();
    }

    /// Advance @p cycles idle cycles (no input, no credits) exactly as
    /// cycle() would: step while compute is active, then only count.
    void skipIdleCycles(std::uint64_t cycles);

    bool irqAsserted() const { return irq_.q() != 0; }
    std::uint64_t checksum() const { return checksum_; }
    std::uint64_t perfCycles() const { return perfCycles_; }

private:
    enum : std::uint8_t { kStateIdle = 0, kStateRunning = 1, kStateDone = 2 };

    struct Stream {
        std::uint64_t base = 0;      ///< Region base address.
        std::uint64_t regionBytes = 0;  ///< Underlying data size.
        std::uint64_t streamBytes = 0;  ///< Total bytes to fetch (refetch included).
        std::uint64_t issuedBytes = 0;
        std::uint64_t receivedBytes = 0;
        std::uint8_t port = 0;

        bool fullyIssued() const { return issuedBytes >= streamBytes; }
        bool fullyReceived() const { return receivedBytes >= streamBytes; }
    };

    void start();
    /// A stripe may start: weights resident and its ifmap bytes arrived.
    bool stripeReady() const;
    /// Compute changes state on an idle cycle (counts down or starts).
    bool computeActive() const {
        return state_.q() == kStateRunning && (computeBusy_.q() > 0 || stripeReady());
    }
    /// The write channel has a line (or the final partial line) to emit.
    bool writeReady() const {
        return ofmapIssued_ < ofmapBytes_ &&
               (ofmapReadyBytes_ >= kLineBytes ||
                (stripesDone_.q() >= stripesTotal_ && ofmapReadyBytes_ > 0));
    }
    void emitRead(G5rRtlOutput& out, Stream& stream);
    void emitWrite(G5rRtlOutput& out);

    // Configuration registers (plain, written via CSB before start).
    std::uint64_t ifmapBase_ = 0;
    std::uint64_t weightBase_ = 0;
    std::uint64_t ofmapBase_ = 0;
    std::uint64_t dims0_ = 0;
    std::uint64_t dims1_ = 0;
    std::uint64_t sramMode_ = 0;

    // Architectural state visible in waveforms.
    rtl::Reg<std::uint8_t> state_;
    rtl::Reg<std::uint8_t> irq_;
    rtl::Reg<std::uint32_t> computeBusy_;   ///< Cycles left in current stripe.
    rtl::Reg<std::uint32_t> stripesDone_;

    // Engine bookkeeping (cycle-level, not bit-level).
    Stream weights_;
    Stream ifmap_;
    std::uint64_t ofmapBytes_ = 0;
    std::uint64_t ofmapIssued_ = 0;
    std::uint64_t writeAcksPending_ = 0;
    std::uint64_t stripesTotal_ = 0;
    std::uint64_t cyclesPerStripe_ = 0;
    std::uint64_t ofmapReadyBytes_ = 0;   ///< Produced by compute, not yet written.
    std::uint64_t checksum_ = 0;
    std::uint64_t nextReqId_ = 1;
    struct InflightReq {
        std::uint8_t kind;
        std::uint16_t size;
    };
    std::unordered_map<std::uint64_t, InflightReq> inflight_;
    std::uint64_t cycleCount_ = 0;
    std::uint64_t startCycle_ = 0;
    std::uint64_t perfCycles_ = 0;

    static constexpr std::uint8_t kKindWeight = 0;
    static constexpr std::uint8_t kKindIfmap = 1;
    static constexpr std::uint8_t kKindWrite = 2;
};

}  // namespace g5r::models
