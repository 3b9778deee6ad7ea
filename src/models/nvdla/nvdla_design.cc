#include "models/nvdla/nvdla_design.hh"

#include <algorithm>
#include <cstring>

namespace g5r::models {

NvdlaDesign::NvdlaDesign()
    : rtl::Module("nvdla"),
      state_(*this, "state", 2),
      irq_(*this, "irq", 1),
      computeBusy_(*this, "compute_busy", 32),
      stripesDone_(*this, "stripes_done", 32) {}

void NvdlaDesign::csbWrite(std::uint64_t addrIn, std::uint64_t data) {
    switch (addrIn & 0xFF) {
    case kIfmapBaseReg: ifmapBase_ = data; break;
    case kWeightBaseReg: weightBase_ = data; break;
    case kOfmapBaseReg: ofmapBase_ = data; break;
    case kDims0Reg: dims0_ = data; break;
    case kDims1Reg: dims1_ = data; break;
    case kSramModeReg: sramMode_ = data; break;
    case kControlReg:
        if ((data & 1) != 0 && state_.q() != kStateRunning) start();
        break;
    case kIrqClearReg:
        irq_.setD(0);
        irq_.latch();  // Config writes take effect immediately at this level.
        break;
    default: break;
    }
}

std::uint64_t NvdlaDesign::csbRead(std::uint64_t addrIn) const {
    switch (addrIn & 0xFF) {
    case kIfmapBaseReg: return ifmapBase_;
    case kWeightBaseReg: return weightBase_;
    case kOfmapBaseReg: return ofmapBase_;
    case kDims0Reg: return dims0_;
    case kDims1Reg: return dims1_;
    case kStatusReg: return (busy() ? 1u : 0u) | (doneFlag() ? 2u : 0u);
    case kPerfCyclesReg: return perfCycles_;
    case kSramModeReg: return sramMode_;
    case kChecksumReg: return checksum_;
    case kIdReg: return kIdRegValue;
    default: return 0;
    }
}

void NvdlaDesign::start() {
    const auto w = static_cast<std::uint64_t>(dims0_ & 0xFFFF);
    const auto h = static_cast<std::uint64_t>((dims0_ >> 16) & 0xFFFF);
    const auto c = static_cast<std::uint64_t>((dims0_ >> 32) & 0xFFFF);
    const auto k = static_cast<std::uint64_t>(dims1_ & 0xFFFF);
    const auto r = static_cast<std::uint64_t>((dims1_ >> 16) & 0xFF);
    const auto s = static_cast<std::uint64_t>((dims1_ >> 24) & 0xFF);
    auto refetch = static_cast<std::uint64_t>((dims1_ >> 32) & 0xFF);
    if (refetch == 0) refetch = 1;

    const std::uint64_t hOut = h >= r ? h - r + 1 : 1;
    const std::uint64_t wOut = w >= s ? w - s + 1 : 1;

    weights_ = Stream{};
    weights_.base = weightBase_;
    weights_.regionBytes = k * c * r * s;
    weights_.streamBytes = weights_.regionBytes;
    weights_.port = (sramMode_ & 1) != 0 ? 1 : 0;

    ifmap_ = Stream{};
    ifmap_.base = ifmapBase_;
    ifmap_.regionBytes = c * h * w;
    ifmap_.streamBytes = ifmap_.regionBytes * refetch;
    ifmap_.port = 0;

    ofmapBytes_ = k * hOut * wOut;
    ofmapIssued_ = 0;
    ofmapReadyBytes_ = 0;
    writeAcksPending_ = 0;
    checksum_ = 0;
    inflight_.clear();

    const std::uint64_t totalMacs = k * c * r * s * hOut * wOut;
    const std::uint64_t computeCycles = (totalMacs + kMacsPerCycle - 1) / kMacsPerCycle;
    stripesTotal_ = (ifmap_.streamBytes + kStripeBytes - 1) / kStripeBytes;
    if (stripesTotal_ == 0) stripesTotal_ = 1;
    cyclesPerStripe_ = (computeCycles + stripesTotal_ - 1) / stripesTotal_;
    if (cyclesPerStripe_ == 0) cyclesPerStripe_ = 1;

    stripesDone_.setD(0);
    stripesDone_.latch();
    computeBusy_.setD(0);
    computeBusy_.latch();
    state_.setD(kStateRunning);
    state_.latch();
    startCycle_ = cycleCount_;
    perfCycles_ = 0;
}

bool NvdlaDesign::stripeReady() const {
    if (!weights_.fullyReceived() || stripesDone_.q() >= stripesTotal_) return false;
    const std::uint64_t stripesAvailable = std::min<std::uint64_t>(
        ifmap_.receivedBytes / kStripeBytes + (ifmap_.fullyReceived() ? 1 : 0), stripesTotal_);
    return stripesDone_.q() < stripesAvailable;
}

void NvdlaDesign::skipIdleCycles(std::uint64_t cycles) {
    const G5rRtlInput idle{};
    G5rRtlOutput out{};
    for (; cycles > 0 && computeActive(); --cycles) cycle(idle, out);
    cycleCount_ += cycles;
}

void NvdlaDesign::emitRead(G5rRtlOutput& out, Stream& stream) {
    const std::uint64_t remaining = stream.streamBytes - stream.issuedBytes;
    // Refetched streams wrap within the underlying region; never read past
    // the region end (a request must not straddle the wrap point).
    const std::uint64_t region = std::max<std::uint64_t>(stream.regionBytes, 1);
    const std::uint64_t offset = stream.issuedBytes % region;
    const auto size = static_cast<std::uint16_t>(std::min(
        {remaining, std::uint64_t{kLineBytes}, region - offset}));

    G5rRtlMemReq& req = out.mem_req[out.mem_req_count++];
    std::memset(&req, 0, sizeof(req));
    req.id = nextReqId_++;
    req.addr = stream.base + offset;
    req.write = 0;
    req.port = stream.port;
    req.size = size;

    inflight_[req.id] = InflightReq{(&stream == &weights_) ? kKindWeight : kKindIfmap, size};
    stream.issuedBytes += size;
}

void NvdlaDesign::emitWrite(G5rRtlOutput& out) {
    const std::uint64_t remaining = ofmapBytes_ - ofmapIssued_;
    const auto size = static_cast<std::uint16_t>(std::min<std::uint64_t>(remaining, kLineBytes));

    G5rRtlMemReq& req = out.mem_req[out.mem_req_count++];
    std::memset(&req, 0, sizeof(req));
    req.id = nextReqId_++;
    req.addr = ofmapBase_ + ofmapIssued_;
    req.write = 1;
    req.port = 0;
    req.size = size;
    // Deterministic output pattern, predictable by tests and trace golden.
    for (unsigned i = 0; i < size; ++i) {
        req.data[i] = static_cast<std::uint8_t>(ofmapIssued_ + i);
    }

    inflight_[req.id] = InflightReq{kKindWrite, size};
    ofmapIssued_ += size;
    ofmapReadyBytes_ -= std::min<std::uint64_t>(ofmapReadyBytes_, size);
    ++writeAcksPending_;
}

void NvdlaDesign::cycle(const G5rRtlInput& in, G5rRtlOutput& out) {
    ++cycleCount_;
    beginCycle();  // Hold-by-default; the logic below setD()s what changes.

    // Response consumption.
    if (in.mem_resp_valid != 0) {
        const auto it = inflight_.find(in.mem_resp_id);
        if (it != inflight_.end()) {
            const InflightReq req = it->second;
            inflight_.erase(it);
            if (req.kind == kKindWrite) {
                --writeAcksPending_;
            } else {
                Stream& stream = (req.kind == kKindWeight) ? weights_ : ifmap_;
                stream.receivedBytes += req.size;
                // Order-independent datapath checksum: plain byte sum.
                for (unsigned i = 0; i < req.size; ++i) {
                    checksum_ += in.mem_resp_data[i];
                }
            }
        }
    }

    if (state_.q() != kStateRunning) {
        commitCycle();
        return;
    }

    unsigned credits = in.mem_req_credits;

    // Read channel: one request per cycle (the DBBIF/SRAMIF line rate).
    if (credits > 0) {
        if (!weights_.fullyIssued()) {
            emitRead(out, weights_);
            --credits;
        } else if (!ifmap_.fullyIssued()) {
            emitRead(out, ifmap_);
            --credits;
        }
    }

    // Compute: stripes begin once weights are resident and enough of the
    // ifmap stream has arrived.
    if (computeBusy_.q() > 0) {
        computeBusy_.setD(computeBusy_.q() - 1);
        if (computeBusy_.q() == 1) {
            // Stripe completes this cycle.
            stripesDone_.setD(stripesDone_.q() + 1);
            const std::uint64_t produced =
                (ofmapBytes_ * (stripesDone_.q() + 1)) / stripesTotal_ -
                (ofmapBytes_ * stripesDone_.q()) / stripesTotal_;
            ofmapReadyBytes_ += produced;
        }
    } else if (stripeReady()) {
        computeBusy_.setD(static_cast<std::uint32_t>(cyclesPerStripe_));
    }

    // Write channel: one request per cycle (a full line, or the final
    // partial line once every stripe is done).
    if (credits > 0 && writeReady()) {
        emitWrite(out);
        --credits;
    }

    // Completion.
    const bool allRead = weights_.fullyReceived() && ifmap_.fullyReceived();
    const bool allComputed = stripesDone_.q() >= stripesTotal_;
    const bool allWritten = ofmapIssued_ >= ofmapBytes_ && writeAcksPending_ == 0;
    if (allRead && allComputed && allWritten && computeBusy_.q() == 0) {
        state_.setD(kStateDone);
        irq_.setD(1);
        perfCycles_ = cycleCount_ - startCycle_;
    }

    commitCycle();
}

}  // namespace g5r::models
