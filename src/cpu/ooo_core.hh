// Out-of-order core timing model.
//
// A detailed-enough OoO pipeline parameterised per Table 1: 3-wide
// fetch/rename with a 4-wide commit, 92-entry instruction queue, 192-entry
// ROB, 48+48 load/store queues. Execution is *honest*: values are computed
// in the execute stage (exec.hh semantics), loads get their data from the
// timing memory system (with store-to-load forwarding), stores write through
// a post-commit store buffer, and branches resolve at execute with a full
// squash of younger work on a misprediction.
//
// The core raises hardware events on an optional HwEventBus — commit-lane
// pulses and cycle pulses — which is how the PMU RTL model observes it, and
// exposes the statistics Fig. 5 compares against the PMU's own counters.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cpu/bpred.hh"
#include "cpu/exec.hh"
#include "cpu/isa.hh"
#include "mem/addr_range.hh"
#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/hw_events.hh"
#include "sim/simulation.hh"

namespace g5r {

struct OooCoreParams {
    unsigned width = 3;        ///< Fetch/rename/issue width (Table 1: 3-wide).
    unsigned commitWidth = 4;  ///< Paper: "can commit up to four per cycle".
    unsigned iqEntries = 92;
    unsigned robEntries = 192;
    unsigned ldqEntries = 48;
    unsigned stqEntries = 48;
    unsigned storeBufferEntries = 16;  ///< Post-commit write queue to the D-cache.
    unsigned frontendDepth = 3;        ///< Fetch-to-rename pipeline stages.
    unsigned mulLatency = 3;
    unsigned divLatency = 12;
    unsigned memIssuePerCycle = 2;     ///< LSQ -> D-cache ports per cycle.
    Tick clockPeriod = periodFromGHz(2);

    /// Device/IO ranges: loads to these are strongly ordered — they issue
    /// only from the ROB head (never speculatively), since reading a device
    /// register can have side effects and must observe up-to-date state.
    std::vector<AddrRange> stronglyOrdered;
};

class OooCore : public ClockedObject {
public:
    OooCore(Simulation& sim, std::string name, const OooCoreParams& params,
            std::uint64_t entryPc);
    ~OooCore() override;

    RequestPort& icachePort() { return iport_; }
    RequestPort& dcachePort() { return dport_; }

    /// Attach the PMU sideband. With @p spreadAcrossLanes (the paper's
    /// four commit-event wires), commits pulse lanes commitLine..+3, one
    /// pulse per lane used this cycle; otherwise all commits pulse the
    /// single @p commitLine (used when several cores share one PMU).
    void setEventBus(HwEventBus* bus, unsigned commitLine = HwEventBus::kCommit0,
                     bool spreadAcrossLanes = true) {
        eventBus_ = bus;
        eventCommitLine_ = commitLine;
        eventSpreadLanes_ = spreadAcrossLanes;
    }

    /// Invoked once when the program exits (exit syscall or HALT commit).
    void setExitCallback(std::function<void()> cb) { exitCallback_ = std::move(cb); }

    /// Change the boot pc; only valid before the simulation starts.
    void setEntry(std::uint64_t entryPc) { fetchPc_ = entryPc; }

    void startup() override;

    bool halted() const { return halted_; }
    std::uint64_t committedInstructions() const { return numCommitted_; }

    /// Core cycles elapsed, accurate even mid-sleep (dozing cores accrue
    /// lazily so time-sampled statistics like Fig. 5's stay correct).
    std::uint64_t cyclesRetired() const {
        std::uint64_t cycles = numCycles_;
        if (dozing_) cycles += (curTick() - dozeFromTick_) / clockPeriod();
        return cycles;
    }
    const std::string& consoleOutput() const { return console_; }

    /// Architectural register value (valid once halted; testing aid).
    std::uint64_t archReg(unsigned idx) const { return archState_.read(idx); }

private:
    // ---- dynamic instruction bookkeeping ----
    using Seq = std::uint64_t;
    static constexpr Seq kNoProducer = ~Seq{0};

    struct DynInstr {
        isa::Instr instr;
        std::uint64_t pc = 0;
        std::uint64_t predictedNext = 0;  ///< Fetch-time next-pc prediction.
        Cycles readyCycle = 0;  ///< When it may leave the fetch queue.
    };

    struct RobEntry {
        isa::Instr instr;
        std::uint64_t pc = 0;
        Seq seq = 0;
        std::uint64_t predictedNext = 0;
        bool issued = false;
        bool completed = false;
        std::uint64_t result = 0;        ///< rd value (or link value).
        std::uint64_t actualNext = 0;    ///< Resolved next pc (control ops).
        // Operand linkage captured at rename.
        Seq producer1 = kNoProducer;
        Seq producer2 = kNoProducer;
    };

    struct LdqEntry {
        Seq seq = 0;
        std::uint64_t addr = 0;
        unsigned size = 0;
        bool addrReady = false;
        bool done = false;
    };

    struct StqEntry {
        Seq seq = 0;
        std::uint64_t addr = 0;
        unsigned size = 0;
        std::uint64_t data = 0;
        bool addrReady = false;
    };

    struct StoreBufferEntry {
        std::uint64_t addr = 0;
        unsigned size = 0;
        std::uint64_t data = 0;
        bool issued = false;
    };

    struct Completion {
        Cycles cycle;
        Seq seq;
    };

    // ---- ports ----
    class IcachePort final : public RequestPort {
    public:
        IcachePort(std::string n, OooCore& c) : RequestPort(std::move(n)), core_(c) {}
        bool recvTimingResp(PacketPtr& pkt) override { return core_.recvIcacheResp(pkt); }
        void recvReqRetry() override { core_.icacheBlocked_ = false; }

    private:
        OooCore& core_;
    };

    class DcachePort final : public RequestPort {
    public:
        DcachePort(std::string n, OooCore& c) : RequestPort(std::move(n)), core_(c) {}
        bool recvTimingResp(PacketPtr& pkt) override { return core_.recvDcacheResp(pkt); }
        void recvReqRetry() override { core_.dcacheBlocked_ = false; }

    private:
        OooCore& core_;
    };

    // ---- pipeline stages (called once per cycle, commit-first order) ----
    void tick();
    void commitStage();
    void completeStage();
    void issueStage();
    void renameStage();
    void fetchStage();
    void drainStoreBuffer();

    // ---- helpers ----
    bool recvIcacheResp(PacketPtr& pkt);
    bool recvDcacheResp(PacketPtr& pkt);

    /// The live ROB entry for @p seq, or nullptr once it has committed (or
    /// for kNoProducer). One unsigned compare covers both ends of the range.
    const RobEntry* findRob(Seq seq) const {
        return seq - robHead_ < nextSeq_ - robHead_ ? &rob_[seq & robMask_] : nullptr;
    }
    RobEntry* findRob(Seq seq) {
        return const_cast<RobEntry*>(std::as_const(*this).findRob(seq));
    }
    bool operandReady(Seq producer) const;
    std::uint64_t operandValue(unsigned archReg, Seq producer) const;
    void squashAfter(Seq seq, std::uint64_t newFetchPc);
    void repairRatAfterSquash();
    void executeInstr(RobEntry& rob);
    unsigned executionLatency(const isa::Instr& in) const;
    bool tryIssueLoad(RobEntry& rob, LdqEntry& ldq);
    void commitSyscall();
    void haltCore();
    void scheduleNextCycle();

    // ---- configuration / wiring ----
    OooCoreParams params_;
    IcachePort iport_;
    DcachePort dport_;
    CallbackEvent tickEvent_;
    HwEventBus* eventBus_ = nullptr;
    unsigned eventCommitLine_ = HwEventBus::kCommit0;
    bool eventSpreadLanes_ = true;
    std::function<void()> exitCallback_;

    // ---- architectural & speculative state ----
    isa::ArchState archState_;
    std::array<Seq, isa::kNumRegs> rat_;  ///< arch reg -> producing seq (or kNoProducer).
    BranchPredictor bpred_;

    // ---- frontend ----
    std::uint64_t fetchPc_;
    std::uint64_t fetchEpoch_ = 0;
    std::deque<DynInstr> fetchQueue_;
    static constexpr unsigned kLineBytes = 64;
    /// Small fully-associative fetch-line buffer with next-line prefetch.
    struct FetchLine {
        std::uint64_t addr = ~std::uint64_t{0};
        bool valid = false;
        std::uint64_t lastUsed = 0;
        std::array<std::uint8_t, kLineBytes> data{};
    };
    static constexpr unsigned kFetchLines = 4;
    std::array<FetchLine, kFetchLines> fetchLines_;
    std::uint64_t fetchLineLru_ = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> fetchesInFlight_;  ///< pkt id -> epoch.
    std::unordered_map<std::uint64_t, std::uint64_t> fetchAddrPending_;  ///< line addr -> count.
    bool icacheBlocked_ = false;

    FetchLine* findFetchLine(std::uint64_t lineAddr);
    void requestFetchLine(std::uint64_t lineAddr);

    // ---- backend ----
    /// The ROB, a ring indexed by sequence number: the live entries are
    /// exactly seqs [robHead_, nextSeq_), entry s at rob_[s & robMask_]. A
    /// squash rewinds nextSeq_, so squashed seqs are handed out again;
    /// that is safe because squashAfter() purges every other holder of a
    /// seq (iq_, ldq_, stq_, completions_, loadsInFlight_), and live
    /// entries only name older, unsquashed producers.
    std::vector<RobEntry> rob_;
    Seq robMask_ = 0;
    Seq robHead_ = 0;
    std::vector<Seq> iq_;  ///< Seqs waiting to issue (age-ordered).
    std::deque<LdqEntry> ldq_;
    std::deque<StqEntry> stq_;
    std::deque<StoreBufferEntry> storeBuffer_;
    std::vector<Completion> completions_;
    std::unordered_map<std::uint64_t, Seq> loadsInFlight_;  ///< pkt id -> seq.
    std::unordered_map<std::uint64_t, std::size_t> storesInFlight_;  ///< pkt id (acks).
    bool dcacheBlocked_ = false;

    Seq nextSeq_ = 0;
    Cycles cycle_ = 0;
    bool halted_ = false;
    Tick sleepUntil_ = 0;
    bool dozing_ = false;
    Tick dozeFromTick_ = 0;
    std::string console_;

    // ---- statistics ----
    std::uint64_t numCommitted_ = 0;
    std::uint64_t numCycles_ = 0;
    stats::Scalar& statCommitted_;
    stats::Scalar& statCycles_;
    stats::Scalar& statMispredicts_;
    stats::Scalar& statBranches_;
    stats::Scalar& statSquashed_;
    stats::Scalar& statLoads_;
    stats::Scalar& statStores_;
    stats::Scalar& statStlForwards_;
    stats::Scalar& statRobFullStalls_;
    stats::Scalar& statIqFullStalls_;
    stats::Scalar& statLsqFullStalls_;
    stats::Scalar& statSleepCycles_;
};

}  // namespace g5r
