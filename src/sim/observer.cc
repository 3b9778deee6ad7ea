#include "sim/observer.hh"

namespace g5r {

namespace detail {
thread_local SimObserver* tlsSimObserver = nullptr;
thread_local SimObserver* tlsPacketObserver = nullptr;
}  // namespace detail

const char* reqStageName(ReqStage stage) {
    switch (stage) {
    case ReqStage::kHostLoad: return "hostLoad";
    case ReqStage::kDmaStage: return "dmaStage";
    case ReqStage::kSpmFill: return "spmFill";
    case ReqStage::kXbarQueue: return "xbarQueue";
    case ReqStage::kDramService: return "dramService";
    case ReqStage::kRtlCompute: return "rtlCompute";
    case ReqStage::kDrain: return "drain";
    }
    return "?";
}

ObserverScope::ObserverScope(SimObserver* observer)
    : prev_(detail::tlsSimObserver), prevPacket_(detail::tlsPacketObserver) {
    detail::tlsSimObserver = observer;
    detail::tlsPacketObserver =
        observer != nullptr && observer->observesPackets() ? observer : nullptr;
}

ObserverScope::~ObserverScope() {
    detail::tlsSimObserver = prev_;
    detail::tlsPacketObserver = prevPacket_;
}

}  // namespace g5r
