#include "cpu/ooo_core.hh"

#include <algorithm>
#include <bit>

namespace g5r {

using isa::Instr;
using isa::Opcode;

OooCore::OooCore(Simulation& sim, std::string objName, const OooCoreParams& params,
                 std::uint64_t entryPc)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      iport_(name() + ".icache_port", *this),
      dport_(name() + ".dcache_port", *this),
      tickEvent_([this] { tick(); }, name() + ".tick"),
      fetchPc_(entryPc),
      statCommitted_(stats_.scalar("committedInsts", "instructions committed")),
      statCycles_(stats_.scalar("numCycles", "core cycles (including sleep)")),
      statMispredicts_(stats_.scalar("branchMispredicts", "control mispredictions")),
      statBranches_(stats_.scalar("branches", "conditional branches committed")),
      statSquashed_(stats_.scalar("squashedInsts", "instructions squashed")),
      statLoads_(stats_.scalar("loads", "loads committed")),
      statStores_(stats_.scalar("stores", "stores committed")),
      statStlForwards_(stats_.scalar("stlForwards", "store-to-load forwards")),
      statRobFullStalls_(stats_.scalar("robFullStalls", "rename stalled: ROB full")),
      statIqFullStalls_(stats_.scalar("iqFullStalls", "rename stalled: IQ full")),
      statLsqFullStalls_(stats_.scalar("lsqFullStalls", "rename stalled: LDQ/STQ full")),
      statSleepCycles_(stats_.scalar("sleepCycles", "cycles spent in sleep syscalls")) {
    rat_.fill(kNoProducer);
    rob_.resize(std::bit_ceil(std::size_t{params_.robEntries}));
    robMask_ = rob_.size() - 1;
    stats_.formula("ipc", "committed instructions per cycle", [this] {
        return numCycles_ > 0 ? static_cast<double>(numCommitted_) /
                                    static_cast<double>(numCycles_)
                              : 0.0;
    });
}

OooCore::~OooCore() = default;

void OooCore::startup() {
    eventQueue().schedule(tickEvent_, clockEdge());
}

void OooCore::scheduleNextCycle() {
    if (!halted_ && !tickEvent_.scheduled()) {
        eventQueue().schedule(tickEvent_, clockEdge(1));
    }
}

void OooCore::haltCore() {
    halted_ = true;
    if (exitCallback_) exitCallback_();
}

void OooCore::tick() {
    if (halted_) return;

    if (curTick() < sleepUntil_) {
        // Doze: skip ahead to the wake deadline. Cycle accounting happens at
        // wake (and live via cyclesRetired()) so time-based statistics stay
        // accurate while asleep.
        if (!dozing_) {
            dozing_ = true;
            dozeFromTick_ = curTick();
        }
        eventQueue().schedule(tickEvent_, sleepUntil_);
        return;
    }
    if (dozing_) {
        dozing_ = false;
        const Cycles skipped = (curTick() - dozeFromTick_) / clockPeriod();
        numCycles_ += skipped;
        statCycles_ += static_cast<double>(skipped);
        statSleepCycles_ += static_cast<double>(skipped);
        cycle_ += skipped;
    }

    commitStage();
    if (halted_) return;
    completeStage();
    issueStage();
    renameStage();
    fetchStage();
    drainStoreBuffer();

    ++cycle_;
    ++numCycles_;
    ++statCycles_;
    scheduleNextCycle();
}

// --------------------------------------------------------------- helpers --

bool OooCore::operandReady(Seq producer) const {
    if (producer == kNoProducer) return true;
    const RobEntry* e = findRob(producer);
    return e == nullptr /* already committed */ || e->completed;
}

std::uint64_t OooCore::operandValue(unsigned archReg, Seq producer) const {
    if (producer != kNoProducer) {
        const RobEntry* e = findRob(producer);
        if (e != nullptr) {
            simAssert(e->completed, "operand read before producer completed");
            return e->result;
        }
    }
    return archState_.read(archReg);
}

unsigned OooCore::executionLatency(const Instr& in) const {
    switch (in.op) {
    case Opcode::kMul: return params_.mulLatency;
    case Opcode::kDiv: case Opcode::kRem: return params_.divLatency;
    default: return 1;
    }
}

// ---------------------------------------------------------------- commit --

void OooCore::commitStage() {
    unsigned committed = 0;
    // One pulse per commit lane used this cycle (the paper wires four commit
    // event signals so up to four commits/cycle are countable by the PMU).
    const auto flushPulses = [&] {
        if (eventBus_ == nullptr || committed == 0) return;
        if (eventSpreadLanes_) {
            for (unsigned lane = 0; lane < committed && lane < 4; ++lane) {
                eventBus_->pulse(eventCommitLine_ + lane);
            }
        } else {
            eventBus_->pulse(eventCommitLine_, committed);
        }
    };

    while (committed < params_.commitWidth && robHead_ != nextSeq_) {
        RobEntry& head = rob_[robHead_ & robMask_];
        if (!head.completed) break;

        // Program termination waits for every committed store to drain, so
        // all architectural memory effects are visible at exit.
        const bool terminates =
            head.instr.isHalt() ||
            (head.instr.isSyscall() &&
             static_cast<isa::Syscall>(archState_.read(17)) == isa::Syscall::kExit);
        if (terminates && (!storeBuffer_.empty() || !storesInFlight_.empty())) break;

        if (head.instr.isStore()) {
            if (storeBuffer_.size() >= params_.storeBufferEntries) break;
            simAssert(!stq_.empty() && stq_.front().seq == head.seq,
                      "STQ out of sync with ROB");
            const StqEntry& st = stq_.front();
            storeBuffer_.push_back(StoreBufferEntry{st.addr, st.size, st.data, false});
            stq_.pop_front();
            ++statStores_;
        } else if (head.instr.isLoad()) {
            simAssert(!ldq_.empty() && ldq_.front().seq == head.seq,
                      "LDQ out of sync with ROB");
            ldq_.pop_front();
            ++statLoads_;
        } else if (head.instr.isSyscall()) {
            commitSyscall();
            if (halted_) {  // Exit syscall: it still counts as committed.
                ++committed;
                ++numCommitted_;
                ++statCommitted_;
                flushPulses();
                return;
            }
        } else if (head.instr.isHalt()) {
            ++committed;
            ++numCommitted_;
            ++statCommitted_;
            flushPulses();
            haltCore();
            return;
        }

        if (head.instr.isBranch()) ++statBranches_;
        if (head.instr.writesRd()) {
            archState_.write(head.instr.rd, head.result);
            if (rat_[head.instr.rd] == head.seq) rat_[head.instr.rd] = kNoProducer;
        }

        ++robHead_;
        ++committed;
        ++numCommitted_;
        ++statCommitted_;

        if (sleepUntil_ > curTick()) break;  // Sleep begins now.
    }
    flushPulses();
}

void OooCore::commitSyscall() {
    const auto num = static_cast<isa::Syscall>(archState_.read(17));
    switch (num) {
    case isa::Syscall::kExit:
        haltCore();  // The caller accounts the committed instruction.
        return;
    case isa::Syscall::kSleepNs:
        sleepUntil_ = curTick() + archState_.read(10) * 1000;  // ns -> ticks.
        return;
    case isa::Syscall::kPrintChar:
        console_.push_back(static_cast<char>(archState_.read(10)));
        return;
    case isa::Syscall::kPrintInt:
        console_ += std::to_string(static_cast<std::int64_t>(archState_.read(10)));
        return;
    }
    panicStream("unknown syscall " + std::to_string(archState_.read(17)));
}

// -------------------------------------------------------------- complete --

void OooCore::completeStage() {
    // Oldest-first so a misprediction squash drops younger completions.
    std::sort(completions_.begin(), completions_.end(),
              [](const Completion& a, const Completion& b) { return a.seq < b.seq; });

    // Compact in place: the first `kept` slots hold completions not yet due.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < completions_.size(); ++i) {
        const Completion c = completions_[i];
        if (c.cycle > cycle_) {
            completions_[kept++] = c;
            continue;
        }
        RobEntry* rob = findRob(c.seq);
        simAssert(rob != nullptr, "completion with no ROB entry");
        rob->completed = true;

        if (rob->instr.isControl() && rob->actualNext != rob->predictedNext) {
            // Every later completion is younger and dies with the squash:
            // drop them and stop, rather than walk a vector that
            // squashAfter() shrinks.
            completions_.resize(kept);
            ++statMispredicts_;
            squashAfter(rob->seq, rob->actualNext);
            return;
        }
    }
    completions_.resize(kept);
}

void OooCore::squashAfter(Seq seq, std::uint64_t newFetchPc) {
    // Pop younger ROB entries and hand their seqs out again (see rob_).
    std::size_t squashCount = nextSeq_ - (seq + 1);
    nextSeq_ = seq + 1;
    std::erase_if(iq_, [seq](Seq s) { return s > seq; });
    while (!ldq_.empty() && ldq_.back().seq > seq) ldq_.pop_back();
    while (!stq_.empty() && stq_.back().seq > seq) stq_.pop_back();
    std::erase_if(completions_, [seq](const Completion& c) { return c.seq > seq; });
    for (auto it = loadsInFlight_.begin(); it != loadsInFlight_.end();) {
        it = (it->second > seq) ? loadsInFlight_.erase(it) : std::next(it);
    }

    squashCount += fetchQueue_.size();
    fetchQueue_.clear();
    ++fetchEpoch_;  // In-flight line fetches become stale (instruction bytes
                    // already buffered stay valid; code is not self-modifying).
    fetchPc_ = newFetchPc;
    statSquashed_ += static_cast<double>(squashCount);

    repairRatAfterSquash();
}

void OooCore::repairRatAfterSquash() {
    rat_.fill(kNoProducer);
    for (Seq s = robHead_; s != nextSeq_; ++s) {
        const RobEntry& e = rob_[s & robMask_];
        if (e.instr.writesRd()) rat_[e.instr.rd] = s;
    }
}

// ----------------------------------------------------------------- issue --

void OooCore::executeInstr(RobEntry& rob) {
    const Instr& in = rob.instr;
    const std::uint64_t v1 = operandValue(in.rs1, rob.producer1);
    const std::uint64_t v2 = operandValue(in.rs2, rob.producer2);

    if (in.isBranch()) {
        const bool taken = isa::branchTaken(in, v1, v2);
        rob.actualNext = taken ? isa::controlTarget(in, rob.pc, 0)
                               : rob.pc + isa::kInstrBytes;
        bpred_.updateDirection(rob.pc, taken);
    } else if (in.op == Opcode::kJal) {
        rob.result = rob.pc + isa::kInstrBytes;
        rob.actualNext = isa::controlTarget(in, rob.pc, 0);
    } else if (in.op == Opcode::kJalr) {
        rob.result = rob.pc + isa::kInstrBytes;
        rob.actualNext = isa::controlTarget(in, rob.pc, v1);
        bpred_.updateIndirect(rob.pc, rob.actualNext);
    } else if (in.op == Opcode::kRdCycle) {
        rob.result = cycle_;
    } else if (in.isSyscall() || in.isHalt()) {
        // Effects applied at commit.
    } else {
        rob.result = isa::aluResult(in, v1, v2);
    }
}

bool OooCore::tryIssueLoad(RobEntry& rob, LdqEntry& ldq) {
    // Device registers are strongly ordered: only the oldest instruction may
    // read them, so the access is non-speculative and sees current state.
    for (const AddrRange& range : params_.stronglyOrdered) {
        if (range.contains(ldq.addr)) {
            if (rob.seq != robHead_) return false;
            break;
        }
    }

    // Memory disambiguation: conservative, no speculation. Walk older
    // stores youngest-first; the first overlap decides.
    for (auto it = stq_.rbegin(); it != stq_.rend(); ++it) {
        if (it->seq > rob.seq) continue;
        if (!it->addrReady) return false;  // Unknown older address: wait.
        const bool overlap = it->addr < ldq.addr + ldq.size && ldq.addr < it->addr + it->size;
        if (!overlap) continue;
        const bool covers = it->addr <= ldq.addr && ldq.addr + ldq.size <= it->addr + it->size;
        if (!covers) return false;  // Partial overlap: wait for drain.
        const std::uint64_t shifted = it->data >> ((ldq.addr - it->addr) * 8);
        const std::uint64_t mask =
            ldq.size >= 8 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (ldq.size * 8)) - 1);
        rob.result = isa::extendLoad(rob.instr, shifted & mask);
        ++statStlForwards_;
        ldq.done = true;
        completions_.push_back({cycle_ + 1, rob.seq});
        return true;
    }
    // Committed-but-undrained stores in the store buffer (all older).
    for (auto it = storeBuffer_.rbegin(); it != storeBuffer_.rend(); ++it) {
        const bool overlap = it->addr < ldq.addr + ldq.size && ldq.addr < it->addr + it->size;
        if (!overlap) continue;
        const bool covers = it->addr <= ldq.addr && ldq.addr + ldq.size <= it->addr + it->size;
        if (!covers) return false;
        const std::uint64_t shifted = it->data >> ((ldq.addr - it->addr) * 8);
        const std::uint64_t mask =
            ldq.size >= 8 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (ldq.size * 8)) - 1);
        rob.result = isa::extendLoad(rob.instr, shifted & mask);
        ++statStlForwards_;
        ldq.done = true;
        completions_.push_back({cycle_ + 1, rob.seq});
        return true;
    }

    // Off to the D-cache.
    if (dcacheBlocked_) return false;
    auto pkt = makeReadPacket(ldq.addr, ldq.size);
    const std::uint64_t id = pkt->id();
    if (!dport_.sendTimingReq(pkt)) {
        dcacheBlocked_ = true;
        return false;
    }
    loadsInFlight_[id] = rob.seq;
    return true;
}

void OooCore::issueStage() {
    unsigned issued = 0;
    unsigned memIssued = 0;
    // Compact in place: the first `kept` slots hold entries still waiting.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < iq_.size(); ++i) {
        const Seq seq = iq_[i];
        if (issued >= params_.width) {
            iq_[kept++] = seq;
            continue;
        }
        RobEntry* rob = findRob(seq);
        simAssert(rob != nullptr, "IQ entry with no ROB entry");
        if (!operandReady(rob->producer1) || !operandReady(rob->producer2)) {
            iq_[kept++] = seq;
            continue;
        }

        if (rob->instr.isLoad()) {
            auto ldqIt = std::find_if(ldq_.begin(), ldq_.end(),
                                      [seq](const LdqEntry& e) { return e.seq == seq; });
            simAssert(ldqIt != ldq_.end(), "load missing from LDQ");
            if (!ldqIt->addrReady) {
                ldqIt->addr = isa::effectiveAddr(rob->instr,
                                                 operandValue(rob->instr.rs1, rob->producer1));
                ldqIt->size = rob->instr.memBytes();
                ldqIt->addrReady = true;
            }
            if (memIssued >= params_.memIssuePerCycle || !tryIssueLoad(*rob, *ldqIt)) {
                iq_[kept++] = seq;
                continue;
            }
            ++memIssued;
        } else if (rob->instr.isStore()) {
            auto stqIt = std::find_if(stq_.begin(), stq_.end(),
                                      [seq](const StqEntry& e) { return e.seq == seq; });
            simAssert(stqIt != stq_.end(), "store missing from STQ");
            stqIt->addr = isa::effectiveAddr(rob->instr,
                                             operandValue(rob->instr.rs1, rob->producer1));
            stqIt->size = rob->instr.memBytes();
            stqIt->data = operandValue(rob->instr.rs2, rob->producer2);
            stqIt->addrReady = true;
            completions_.push_back({cycle_ + 1, seq});
        } else {
            executeInstr(*rob);
            completions_.push_back({cycle_ + executionLatency(rob->instr), seq});
        }

        rob->issued = true;
        ++issued;
    }
    iq_.resize(kept);
}

// ---------------------------------------------------------------- rename --

void OooCore::renameStage() {
    unsigned renamed = 0;
    while (renamed < params_.width && !fetchQueue_.empty()) {
        const DynInstr& dyn = fetchQueue_.front();
        if (dyn.readyCycle > cycle_) break;

        if (nextSeq_ - robHead_ >= params_.robEntries) {
            ++statRobFullStalls_;
            break;
        }
        if (iq_.size() >= params_.iqEntries) {
            ++statIqFullStalls_;
            break;
        }
        if (dyn.instr.isLoad() && ldq_.size() >= params_.ldqEntries) {
            ++statLsqFullStalls_;
            break;
        }
        if (dyn.instr.isStore() && stq_.size() >= params_.stqEntries) {
            ++statLsqFullStalls_;
            break;
        }

        RobEntry& rob = rob_[nextSeq_ & robMask_];
        rob = RobEntry{};
        rob.instr = dyn.instr;
        rob.pc = dyn.pc;
        rob.seq = nextSeq_++;
        rob.predictedNext = dyn.predictedNext;

        // Capture operand producers per operand usage.
        const Instr& in = dyn.instr;
        const bool readsRs1 = !(in.op == Opcode::kLui || in.op == Opcode::kJal ||
                                in.isSyscall() || in.isHalt() || in.op == Opcode::kRdCycle);
        const bool readsRs2 = in.isStore() || in.isBranch() ||
                              (!in.isMem() && !in.isControl() && !in.isSyscall() &&
                               !in.isHalt() && in.op != Opcode::kRdCycle &&
                               in.op < Opcode::kAddi);
        if (readsRs1 && in.rs1 != 0) rob.producer1 = rat_[in.rs1];
        if (readsRs2 && in.rs2 != 0) rob.producer2 = rat_[in.rs2];

        if (in.writesRd() && in.rd != 0) rat_[in.rd] = rob.seq;

        if (in.isLoad()) ldq_.push_back(LdqEntry{rob.seq, 0, 0, false, false});
        if (in.isStore()) stq_.push_back(StqEntry{rob.seq, 0, 0, 0, false});

        iq_.push_back(rob.seq);
        fetchQueue_.pop_front();
        ++renamed;
    }
}

// ----------------------------------------------------------------- fetch --

OooCore::FetchLine* OooCore::findFetchLine(std::uint64_t lineAddr) {
    for (auto& fl : fetchLines_) {
        if (fl.valid && fl.addr == lineAddr) {
            fl.lastUsed = ++fetchLineLru_;
            return &fl;
        }
    }
    return nullptr;
}

void OooCore::requestFetchLine(std::uint64_t lineAddr) {
    if (icacheBlocked_) return;
    if (fetchAddrPending_.count(lineAddr) > 0) return;
    if (fetchesInFlight_.size() >= 2) return;  // Demand line + one prefetch.
    auto pkt = makeReadPacket(lineAddr, kLineBytes);
    const std::uint64_t id = pkt->id();
    if (!iport_.sendTimingReq(pkt)) {
        icacheBlocked_ = true;
        return;
    }
    fetchesInFlight_[id] = fetchEpoch_;
    ++fetchAddrPending_[lineAddr];
}

void OooCore::fetchStage() {
    const std::uint64_t lineAddr = fetchPc_ & ~static_cast<std::uint64_t>(kLineBytes - 1);

    FetchLine* line = findFetchLine(lineAddr);
    if (line == nullptr) {
        requestFetchLine(lineAddr);
        return;
    }
    // Next-line prefetch keeps sequential fetch from stalling on every
    // line boundary.
    if (findFetchLine(lineAddr + kLineBytes) == nullptr) {
        requestFetchLine(lineAddr + kLineBytes);
    }

    constexpr std::size_t kFetchQueueCap = 24;
    for (unsigned w = 0; w < params_.width; ++w) {
        if (fetchQueue_.size() >= kFetchQueueCap) break;
        const std::uint64_t pc = fetchPc_;
        if ((pc & ~static_cast<std::uint64_t>(kLineBytes - 1)) != lineAddr) break;

        std::uint64_t raw = 0;
        std::memcpy(&raw, line->data.data() + (pc - lineAddr), sizeof(raw));
        const Instr in = isa::decode(raw);

        DynInstr dyn;
        dyn.instr = in;
        dyn.pc = pc;
        dyn.readyCycle = cycle_ + params_.frontendDepth;

        std::uint64_t next = pc + isa::kInstrBytes;
        bool redirect = false;
        if (in.op == Opcode::kJal) {
            next = isa::controlTarget(in, pc, 0);
            redirect = true;
        } else if (in.isBranch() && bpred_.predictTaken(pc)) {
            next = isa::controlTarget(in, pc, 0);
            redirect = true;
        } else if (in.op == Opcode::kJalr) {
            const std::uint64_t btbTarget = bpred_.predictIndirect(pc);
            if (btbTarget != 0) {
                next = btbTarget;
                redirect = true;
            }
        }
        dyn.predictedNext = next;
        fetchQueue_.push_back(dyn);
        if (in.isHalt()) {
            // Park fetch on the HALT instead of running off the end of the
            // program; a squash redirect restarts fetch elsewhere.
            break;
        }
        fetchPc_ = next;
        if (redirect) break;  // One taken control transfer per fetch cycle.
    }
}

bool OooCore::recvIcacheResp(PacketPtr& pkt) {
    const auto it = fetchesInFlight_.find(pkt->id());
    simAssert(it != fetchesInFlight_.end(), "unexpected icache response");
    const bool stale = it->second != fetchEpoch_;
    fetchesInFlight_.erase(it);
    if (auto pendIt = fetchAddrPending_.find(pkt->addr()); pendIt != fetchAddrPending_.end()) {
        if (--pendIt->second == 0) fetchAddrPending_.erase(pendIt);
    }
    if (!stale) {
        // Install into the LRU fetch-line slot.
        FetchLine* victim = &fetchLines_[0];
        for (auto& fl : fetchLines_) {
            if (!fl.valid) {
                victim = &fl;
                break;
            }
            if (fl.lastUsed < victim->lastUsed) victim = &fl;
        }
        victim->addr = pkt->addr();
        victim->valid = true;
        victim->lastUsed = ++fetchLineLru_;
        std::memcpy(victim->data.data(), pkt->constData(), kLineBytes);
    }
    pkt.reset();
    return true;
}

// ----------------------------------------------------------- memory side --

void OooCore::drainStoreBuffer() {
    constexpr unsigned kMaxOutstandingStores = 4;
    unsigned outstanding = 0;
    for (const auto& sb : storeBuffer_) {
        if (sb.issued) ++outstanding;
    }
    for (auto& sb : storeBuffer_) {
        if (sb.issued) continue;
        if (outstanding >= kMaxOutstandingStores || dcacheBlocked_) break;
        auto pkt = makeWritePacket(sb.addr, sb.size);
        std::memcpy(pkt->data(), &sb.data, sb.size);
        const std::uint64_t id = pkt->id();
        if (!dport_.sendTimingReq(pkt)) {
            dcacheBlocked_ = true;
            break;
        }
        storesInFlight_[id] = sb.addr;
        sb.issued = true;
        ++outstanding;
    }
}

bool OooCore::recvDcacheResp(PacketPtr& pkt) {
    if (pkt->cmd() == MemCmd::kWriteResp) {
        const auto it = storesInFlight_.find(pkt->id());
        simAssert(it != storesInFlight_.end(), "unexpected write ack");
        const Addr addr = it->second;
        storesInFlight_.erase(it);
        // Retire the oldest issued store-buffer entry for this address.
        const auto sbIt = std::find_if(
            storeBuffer_.begin(), storeBuffer_.end(),
            [addr](const StoreBufferEntry& e) { return e.issued && e.addr == addr; });
        simAssert(sbIt != storeBuffer_.end(), "write ack with no store-buffer entry");
        storeBuffer_.erase(sbIt);
        pkt.reset();
        return true;
    }

    const auto it = loadsInFlight_.find(pkt->id());
    if (it == loadsInFlight_.end()) {
        pkt.reset();  // Load was squashed while in flight.
        return true;
    }
    const Seq seq = it->second;
    loadsInFlight_.erase(it);

    RobEntry* rob = findRob(seq);
    simAssert(rob != nullptr, "load response for unknown ROB entry");
    std::uint64_t raw = 0;
    std::memcpy(&raw, pkt->constData(), pkt->size());
    rob->result = isa::extendLoad(rob->instr, raw);
    rob->completed = true;

    const auto ldqIt = std::find_if(ldq_.begin(), ldq_.end(),
                                    [seq](const LdqEntry& e) { return e.seq == seq; });
    if (ldqIt != ldq_.end()) ldqIt->done = true;
    pkt.reset();
    return true;
}

}  // namespace g5r
