// The PMU hardware design, written against the RTL kernel.
//
// Mirrors the paper's in-house PMU: a configurable bank of 32-bit event
// counters (Table 1: 20 of them), an enable mask, a programmable threshold
// on a selected counter that raises an interrupt and resets that counter,
// and the two timing artefacts the paper observes with gem5+rtl:
//   (i)  a 1-cycle delay between an event pulse and the counter update
//        (the capture register stage), and
//   (ii) event loss during the few-cycle reset window that follows a
//        threshold interrupt.
//
// Register map (64-bit registers, byte offsets):
//   0x000 + 8*i : counter i (read; write to preset)
//   0x100       : enable mask (bit i gates event line i)
//   0x108       : threshold value (0 disables)
//   0x110       : threshold counter select
//   0x118       : interrupt status (bit 0); any write clears the interrupt
//   0x120       : control (write 1: global counter clear)
//   0x128       : identification/version (read-only)
#pragma once

#include <array>
#include <cstdint>
#include <deque>

#include "rtl/kernel.hh"

namespace g5r::models {

class PmuDesign final : public rtl::Module {
public:
    static constexpr unsigned kNumCounters = 20;
    static constexpr unsigned kResetWindowCycles = 3;  ///< Artefact (ii).
    static constexpr std::uint64_t kIdRegValue = 0x504D5501;  // "PMU",v1.

    // Register offsets.
    static constexpr std::uint64_t kCounterBase = 0x000;
    static constexpr std::uint64_t kEnableReg = 0x100;
    static constexpr std::uint64_t kThresholdReg = 0x108;
    static constexpr std::uint64_t kThresholdSelReg = 0x110;
    static constexpr std::uint64_t kIrqStatusReg = 0x118;
    static constexpr std::uint64_t kControlReg = 0x120;
    static constexpr std::uint64_t kIdReg = 0x128;

    PmuDesign();

    // ---- per-cycle inputs (set before tick()) ----
    /// Event pulses arriving this cycle on each line.
    std::array<std::uint32_t, kNumCounters> eventsIn{};

    /// Config-bus write strobe for this cycle (at most one).
    bool cfgWriteValid = false;
    std::uint64_t cfgWriteAddr = 0;
    std::uint64_t cfgWriteData = 0;

    void evalComb() override;

    /// Combinational register read of the current state.
    std::uint64_t readReg(std::uint64_t addr) const;

    std::uint32_t counterValue(unsigned idx) const { return counters_[idx].q(); }
    bool irqAsserted() const { return irq_.q() != 0; }

    /// True when a cycle with no config write and no event pulses leaves
    /// every register unchanged — the basis of the ABI idle hint. Any
    /// enabled counter disqualifies: the wrapper pulses the clock-as-event
    /// line internally, and enabled lines must observe every cycle.
    bool quiescent() const;

private:
    // A module holds its registers' addresses, so they are built in place.
    std::deque<rtl::Reg<std::uint32_t>> counters_;
    std::deque<rtl::Reg<std::uint32_t>> captureStage_;  ///< Artefact (i).
    rtl::Reg<std::uint32_t> enableMask_;
    rtl::Reg<std::uint64_t> threshold_;
    rtl::Reg<std::uint8_t> thresholdSel_;
    rtl::Reg<std::uint8_t> irq_;
    rtl::Reg<std::uint8_t> resetWindow_;
};

}  // namespace g5r::models
