#include "mem/cache/cache.hh"

#include <algorithm>

namespace g5r {

namespace {

/// Sets in a cache of @p p, after checking the geometry divides cleanly.
unsigned numSetsOf(const CacheParams& p) {
    simAssert(p.assoc > 0, "cache associativity must be non-zero");
    simAssert(p.lineSize > 0 && (p.lineSize & (p.lineSize - 1)) == 0,
              "cache line size must be a non-zero power of two");
    simAssert(p.sizeBytes % (p.lineSize * p.assoc) == 0,
              "cache size must be a multiple of lineSize * assoc");
    return p.sizeBytes / (p.lineSize * p.assoc);
}

}  // namespace

Cache::Cache(Simulation& sim, std::string objName, const CacheParams& params)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      numSets_(numSetsOf(params)),
      cpuSide_(name() + ".cpu_side", *this),
      memSide_(name() + ".mem_side", *this),
      reqEvent_([this] { trySendRequests(); }, name() + ".reqEvent"),
      respEvent_([this] { trySendResponses(); }, name() + ".respEvent",
                 EventPriority::kResponse),
      prefetcher_(params.prefetchDegree, params.lineSize),
      hits_(stats_.scalar("hits", "demand hits")),
      misses_(stats_.scalar("misses", "demand misses sent downstream")),
      mshrHits_(stats_.scalar("mshrHits", "misses merged into in-flight MSHRs")),
      writebacks_(stats_.scalar("writebacks", "dirty victims written back")),
      prefetchesIssued_(stats_.scalar("prefetchesIssued", "prefetch requests sent")),
      prefetchFills_(stats_.scalar("prefetchFills", "fills with no demand target")),
      blockedOnMshrs_(stats_.scalar("blockedOnMshrs", "requests rejected, MSHRs full")),
      demandAccesses_(stats_.scalar("demandAccesses", "CPU-side requests observed")) {
    simAssert(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0,
              "cache sets must be a non-zero power of two");
}

bool Cache::isUncacheable(Addr a) const {
    return std::any_of(params_.uncacheable.begin(), params_.uncacheable.end(),
                       [a](const AddrRange& r) { return r.contains(a); });
}

Cache::LineIdx Cache::findLine(Addr blockAddr) const {
    if (tags_.empty()) return kNoLine;  // Never filled.
    const LineIdx first = firstWay(blockAddr);
    for (LineIdx line = first; line < first + params_.assoc; ++line) {
        if (tags_[line].valid && tags_[line].tag == blockAddr) return line;
    }
    return kNoLine;
}

bool Cache::isCached(Addr addr) const { return findLine(blockAlign(addr)) != kNoLine; }

bool Cache::isDirty(Addr addr) const {
    const LineIdx line = findLine(blockAlign(addr));
    return line != kNoLine && tags_[line].dirty;
}

// ------------------------------------------------------------ request path --

bool Cache::access(PacketPtr& pkt) {
    ++demandAccesses_;

    if (isUncacheable(pkt->addr())) {
        // Forward around the cache; the response is matched back by id.
        uncacheableInFlight_.insert(pkt->id());
        pushRequest(std::move(pkt), clockEdge(1));
        return true;
    }

    const Addr blockAddr = blockAlign(pkt->addr());
    simAssert(blockAlign(pkt->addr() + pkt->size() - 1) == blockAddr,
              "cache access crosses a line boundary");

    if (const LineIdx line = findLine(blockAddr); line != kNoLine) {
        ++hits_;
        const RequestorId requestor = pkt->requestor();
        handleHit(std::move(pkt), line);
        // Train the prefetcher on hits too, so a stream it already covers
        // keeps extending instead of stalling until the next miss.
        maybePrefetch(blockAddr, requestor);
        return true;
    }
    return handleMiss(pkt);
}

void Cache::handleHit(PacketPtr pkt, LineIdx line) {
    tags_[line].lastUsed = ++lruCounter_;
    satisfyTarget(*pkt, line);
    if (!pkt->needsResponse()) {
        // A writeback from an upper cache hitting here is absorbed.
        return;
    }
    pkt->makeResponse();
    pushResponse(std::move(pkt), clockEdge(params_.lookupLatency));
}

bool Cache::handleMiss(PacketPtr& pkt) {
    const Addr blockAddr = blockAlign(pkt->addr());

    if (auto it = mshrs_.find(blockAddr); it != mshrs_.end()) {
        ++mshrHits_;
        if (!pkt->isPrefetch()) it->second.prefetchOnly = false;
        if (missEventBus_ != nullptr && !pkt->isPrefetch()) {
            missEventBus_->pulse(missEventLine_);
        }
        it->second.targets.push_back(std::move(pkt));
        return true;
    }

    if (mshrs_.size() >= params_.mshrs) {
        ++blockedOnMshrs_;
        needCpuRetry_ = true;
        return false;
    }

    if (missEventBus_ != nullptr && !pkt->isPrefetch()) {
        missEventBus_->pulse(missEventLine_);
    }

    ++misses_;
    const RequestorId requestor = pkt->requestor();
    Mshr& mshr = mshrs_[blockAddr];
    mshr.blockAddr = blockAddr;
    mshr.prefetchOnly = pkt->isPrefetch();
    mshr.targets.push_back(std::move(pkt));

    // Fetch the whole line (write-allocate for write misses).
    auto fetch = std::make_unique<Packet>(MemCmd::kReadReq, blockAddr, params_.lineSize);
    fetch->setRequestor(requestor);
    pushRequest(std::move(fetch), clockEdge(params_.lookupLatency));

    maybePrefetch(blockAddr, requestor);
    return true;
}

void Cache::maybePrefetch(Addr missAddr, RequestorId requestor) {
    if (!params_.enablePrefetcher) return;
    for (const Addr predicted : prefetcher_.notifyAccess(missAddr, requestor)) {
        const Addr blockAddr = blockAlign(predicted);
        if (findLine(blockAddr) != kNoLine) continue;
        if (mshrs_.count(blockAddr) > 0) continue;
        if (mshrs_.size() >= params_.mshrs) break;  // Never starve demand misses.

        Mshr& mshr = mshrs_[blockAddr];
        mshr.blockAddr = blockAddr;
        mshr.prefetchOnly = true;

        auto fetch = std::make_unique<Packet>(MemCmd::kPrefetchReq, blockAddr, params_.lineSize);
        fetch->setRequestor(requestor);
        pushRequest(std::move(fetch), clockEdge(params_.lookupLatency));
        ++prefetchesIssued_;
    }
}

// --------------------------------------------------------------- fill path --

bool Cache::handleFill(PacketPtr& pkt) {
    if (auto it = uncacheableInFlight_.find(pkt->id()); it != uncacheableInFlight_.end()) {
        uncacheableInFlight_.erase(it);
        pushResponse(std::move(pkt), clockEdge(params_.responseLatency));
        return true;
    }

    if (pkt->cmd() == MemCmd::kWriteResp) {
        // Acknowledgement of a downstream write; nothing to do.
        pkt.reset();
        return true;
    }

    const Addr blockAddr = pkt->addr();
    auto it = mshrs_.find(blockAddr);
    simAssert(it != mshrs_.end(), "fill without a matching MSHR");
    Mshr mshr = std::move(it->second);
    mshrs_.erase(it);

    const LineIdx line = insertBlock(blockAddr, pkt->constData());
    pkt.reset();

    if (mshr.prefetchOnly) ++prefetchFills_;
    for (PacketPtr& target : mshr.targets) {
        satisfyTarget(*target, line);
        if (!target->needsResponse()) continue;  // Absorbed writeback target.
        target->makeResponse();
        pushResponse(std::move(target), clockEdge(params_.responseLatency));
    }

    if (needCpuRetry_) {
        needCpuRetry_ = false;
        cpuSide_.sendReqRetry();
    }
    return true;
}

Cache::LineIdx Cache::insertBlock(Addr blockAddr, const std::uint8_t* data) {
    if (tags_.empty()) {
        // First fill. Line data is left uninitialised (every line is written
        // whole before it is read), so pages no line lands in stay untouched.
        tags_.resize(std::size_t{numSets_} * params_.assoc);
        data_ = std::make_unique_for_overwrite<std::uint8_t[]>(tags_.size() * params_.lineSize);
    }

    // First invalid way, else the least recently used one.
    const LineIdx first = firstWay(blockAddr);
    LineIdx victim = first;
    for (LineIdx line = first; line < first + params_.assoc; ++line) {
        if (!tags_[line].valid) {
            victim = line;
            break;
        }
        if (tags_[line].lastUsed < tags_[victim].lastUsed) victim = line;
    }

    Tag& slot = tags_[victim];
    if (slot.valid && slot.dirty) {
        ++writebacks_;
        auto wb = std::make_unique<Packet>(MemCmd::kWritebackDirty, slot.tag, params_.lineSize);
        wb->setData(lineData(victim));
        pushRequest(std::move(wb), clockEdge(1));
    }

    slot.tag = blockAddr;
    slot.valid = true;
    slot.dirty = false;
    slot.lastUsed = ++lruCounter_;
    std::copy_n(data, params_.lineSize, lineData(victim));
    return victim;
}

void Cache::satisfyTarget(Packet& target, LineIdx line) {
    std::uint8_t* bytes = lineData(line) + (target.addr() - tags_[line].tag);
    if (target.isWrite()) {
        simAssert(target.hasData(), "write without payload");
        std::copy_n(target.constData(), target.size(), bytes);
        tags_[line].dirty = true;
    } else {
        std::copy_n(bytes, target.size(), target.data());
    }
}

void Cache::functionalAccess(Packet& pkt) {
    if (isUncacheable(pkt.addr())) {
        memSide_.sendFunctional(pkt);
        return;
    }
    if (const LineIdx line = findLine(blockAlign(pkt.addr())); line != kNoLine) {
        satisfyTarget(pkt, line);
        return;
    }
    memSide_.sendFunctional(pkt);
}

// ------------------------------------------------------------ queued sends --

void Cache::pushRequest(PacketPtr pkt, Tick readyTick) {
    auto it = std::upper_bound(reqQueue_.begin(), reqQueue_.end(), readyTick,
                               [](Tick t, const TimedPkt& q) { return t < q.readyTick; });
    reqQueue_.insert(it, TimedPkt{readyTick, std::move(pkt)});
    if (!reqEvent_.scheduled()) {
        eventQueue().schedule(reqEvent_, std::max(curTick(), reqQueue_.front().readyTick));
    }
}

void Cache::pushResponse(PacketPtr pkt, Tick readyTick) {
    auto it = std::upper_bound(respQueue_.begin(), respQueue_.end(), readyTick,
                               [](Tick t, const TimedPkt& q) { return t < q.readyTick; });
    respQueue_.insert(it, TimedPkt{readyTick, std::move(pkt)});
    if (!respEvent_.scheduled()) {
        eventQueue().schedule(respEvent_, std::max(curTick(), respQueue_.front().readyTick));
    }
}

void Cache::trySendRequests() {
    while (!memSideBlocked_ && !reqQueue_.empty() && reqQueue_.front().readyTick <= curTick()) {
        PacketPtr& pkt = reqQueue_.front().pkt;
        if (!memSide_.sendTimingReq(pkt)) {
            memSideBlocked_ = true;
            return;
        }
        reqQueue_.pop_front();
    }
    if (!reqQueue_.empty() && !memSideBlocked_ && !reqEvent_.scheduled()) {
        eventQueue().schedule(reqEvent_, std::max(curTick(), reqQueue_.front().readyTick));
    }
}

void Cache::trySendResponses() {
    while (!respBlocked_ && !respQueue_.empty() && respQueue_.front().readyTick <= curTick()) {
        PacketPtr& pkt = respQueue_.front().pkt;
        if (!cpuSide_.sendTimingResp(pkt)) {
            respBlocked_ = true;
            return;
        }
        respQueue_.pop_front();
    }
    if (!respQueue_.empty() && !respBlocked_ && !respEvent_.scheduled()) {
        eventQueue().schedule(respEvent_, std::max(curTick(), respQueue_.front().readyTick));
    }
}

}  // namespace g5r
