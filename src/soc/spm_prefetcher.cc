#include "soc/spm_prefetcher.hh"

#include <algorithm>

namespace g5r {

SpmPrefetcher::SpmPrefetcher(Simulation& sim, std::string objName, DmaEngine& dma,
                             std::shared_ptr<const models::NvdlaTrace> trace)
    : SimObject(sim, std::move(objName)), dma_(dma), trace_(std::move(trace)) {}

void SpmPrefetcher::startup() {
    remaining_ = static_cast<std::size_t>(
        std::count_if(trace_->segments.begin(), trace_->segments.end(),
                      [](const auto& seg) { return !seg.bytes.empty(); }));
    if (remaining_ == 0) {
        doneTick_ = curTick();
        if (doneCallback_) doneCallback_();
        return;
    }
    for (const auto& seg : trace_->segments) {
        if (seg.bytes.empty()) continue;
        DmaEngine::Descriptor desc{
            seg.addr, seg.addr, seg.bytes.size(), DmaEngine::Direction::kMemToSpm,
            [this] {
                if (--remaining_ == 0) {
                    doneTick_ = curTick();
                    if (doneCallback_) doneCallback_();
                }
            }};
        desc.parent = parentRequest_;
        dma_.enqueue(std::move(desc));
    }
}

}  // namespace g5r
