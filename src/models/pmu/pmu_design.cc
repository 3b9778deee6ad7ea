#include "models/pmu/pmu_design.hh"

namespace g5r::models {

PmuDesign::PmuDesign()
    : rtl::Module("pmu"),
      enableMask_(*this, "enable_mask", 32),
      threshold_(*this, "threshold", 64),
      thresholdSel_(*this, "threshold_sel", 8),
      irq_(*this, "irq", 1),
      resetWindow_(*this, "reset_window", 8) {
    for (unsigned i = 0; i < kNumCounters; ++i) {
        counters_.emplace_back(*this, "counter" + std::to_string(i), 32);
        captureStage_.emplace_back(*this, "capture" + std::to_string(i), 32);
    }
}

void PmuDesign::evalComb() {
    const bool inReset = resetWindow_.q() > 0;

    // Capture stage: gate by enable mask; drop everything while the
    // post-interrupt reset window is active (artefact ii).
    for (unsigned i = 0; i < kNumCounters; ++i) {
        const bool enabled = ((enableMask_.q() >> i) & 1u) != 0;
        captureStage_[i].setD((enabled && !inReset) ? eventsIn[i] : 0);
    }

    // Count stage: counters see last cycle's captured pulses (artefact i).
    for (unsigned i = 0; i < kNumCounters; ++i) {
        counters_[i].setD(counters_[i].q() + captureStage_[i].q());
    }

    if (inReset) resetWindow_.setD(static_cast<std::uint8_t>(resetWindow_.q() - 1));

    // Threshold check on the selected counter's next value.
    const unsigned sel = thresholdSel_.q() % kNumCounters;
    const std::uint64_t nextSel = counters_[sel].q() + captureStage_[sel].q();
    if (threshold_.q() != 0 && nextSel >= threshold_.q()) {
        irq_.setD(1);
        counters_[sel].setD(0);
        resetWindow_.setD(kResetWindowCycles);
    }

    // Config-bus writes win over counting in the same cycle.
    if (cfgWriteValid) {
        const std::uint64_t addr = cfgWriteAddr & 0xFFF;
        if (addr >= kCounterBase && addr < kCounterBase + 8 * kNumCounters && addr % 8 == 0) {
            counters_[addr / 8].setD(static_cast<std::uint32_t>(cfgWriteData));
        } else if (addr == kEnableReg) {
            enableMask_.setD(static_cast<std::uint32_t>(cfgWriteData));
        } else if (addr == kThresholdReg) {
            threshold_.setD(cfgWriteData);
        } else if (addr == kThresholdSelReg) {
            thresholdSel_.setD(static_cast<std::uint8_t>(cfgWriteData));
        } else if (addr == kIrqStatusReg) {
            irq_.setD(0);  // Any write clears the interrupt.
        } else if (addr == kControlReg && (cfgWriteData & 1) != 0) {
            for (auto& c : counters_) c.setD(0);
        }
    }
}

bool PmuDesign::quiescent() const {
    if (resetWindow_.q() != 0) return false;   // Window decrements per cycle.
    if (enableMask_.q() != 0) return false;    // Enabled lines count cycles/pulses.
    for (const auto& c : captureStage_) {
        if (c.q() != 0) return false;          // In-flight pulse not yet counted.
    }
    // A met threshold re-fires every cycle (reset counter, open window).
    const unsigned sel = thresholdSel_.q() % kNumCounters;
    if (threshold_.q() != 0 &&
        counters_[sel].q() + captureStage_[sel].q() >= threshold_.q()) {
        return false;
    }
    return true;
}

std::uint64_t PmuDesign::readReg(std::uint64_t addrIn) const {
    const std::uint64_t addr = addrIn & 0xFFF;
    if (addr >= kCounterBase && addr < kCounterBase + 8 * kNumCounters && addr % 8 == 0) {
        return counters_[addr / 8].q();
    }
    if (addr == kEnableReg) return enableMask_.q();
    if (addr == kThresholdReg) return threshold_.q();
    if (addr == kThresholdSelReg) return thresholdSel_.q();
    if (addr == kIrqStatusReg) return irq_.q();
    if (addr == kIdReg) return kIdRegValue;
    return 0;
}

}  // namespace g5r::models
