// NvdlaHost trace loading and start gating.
//
// The regression here guards the PR 9 chunking fix: startup()'s functional
// segment loads must never cross a 64 B line boundary, because the line-
// interleaved crossbar decode routes a whole packet by its start address —
// a line-crossing write from an unaligned segment lands its tail bytes in
// the wrong downstream memory.
#include <gtest/gtest.h>

#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "soc/nvdla_host.hh"

namespace g5r {
namespace {

constexpr AddrRange kRange{0, 1ULL << 30};

std::uint8_t patternByte(std::size_t i) { return static_cast<std::uint8_t>(i * 13 + 5); }

/// Two line-interleaved memories behind a crossbar — the smallest system
/// where mis-chunked functional writes are observable.
struct Harness {
    Harness() : xbar(sim, "xbar", {}) {
        SimpleMemory::Params mp;
        mp.range = kRange;
        even = std::make_unique<SimpleMemory>(sim, "even", mp, evenStore);
        odd = std::make_unique<SimpleMemory>(sim, "odd", mp, oddStore);
        xbar.addMemSidePort("even", RouteSpec{kRange, 6, 1, 0}).bind(even->port());
        xbar.addMemSidePort("odd", RouteSpec{kRange, 6, 1, 1}).bind(odd->port());
    }

    /// The store that owns @p addr under the line-interleaved routing.
    BackingStore& owningStore(Addr addr) {
        return ((addr >> 6) & 1) == 0 ? evenStore : oddStore;
    }

    Simulation sim;
    Xbar xbar;
    BackingStore evenStore;
    BackingStore oddStore;
    std::unique_ptr<SimpleMemory> even;
    std::unique_ptr<SimpleMemory> odd;
};

TEST(NvdlaHost, UnalignedSegmentLoadsByteExactly) {
    Harness h;
    models::NvdlaTrace trace;
    models::NvdlaTrace::Segment seg;
    seg.addr = 0x1000 + 13;  // Unaligned: every 64 B chunk would cross a line.
    for (std::size_t i = 0; i < 217; ++i) seg.bytes.push_back(patternByte(i));
    trace.segments.push_back(seg);

    NvdlaHost host{h.sim, "host", {},
                   std::make_shared<const models::NvdlaTrace>(std::move(trace))};
    host.port().bind(h.xbar.addCpuSidePort("host"));
    host.startup();

    for (std::size_t i = 0; i < seg.bytes.size(); ++i) {
        const Addr addr = seg.addr + i;
        ASSERT_EQ(h.owningStore(addr).load<std::uint8_t>(addr), patternByte(i))
            << "byte " << i << " at 0x" << std::hex << addr
            << " missing from its line's store";
    }
}

TEST(NvdlaHost, WaitForReleaseGatesCsbProgramming) {
    Harness h;
    // A fake CSB endpoint: the status register already reports done and the
    // checksum register holds the expected value, so once released the host
    // runs its whole state machine against plain memory.
    constexpr Addr kCsbBase = 0x0010'0000;
    constexpr std::uint64_t kChecksum = 0x00C0FFEE;
    for (BackingStore* s : {&h.evenStore, &h.oddStore}) {
        s->store<std::uint64_t>(kCsbBase + models::NvdlaDesign::kStatusReg, 2);
        s->store<std::uint64_t>(kCsbBase + models::NvdlaDesign::kChecksumReg, kChecksum);
    }

    models::NvdlaTrace trace;
    trace.expectedChecksum = kChecksum;
    NvdlaHost::Params hp;
    hp.csbBase = kCsbBase;
    hp.waitForRelease = true;
    NvdlaHost host{h.sim, "host", hp,
                   std::make_shared<const models::NvdlaTrace>(std::move(trace))};
    host.port().bind(h.xbar.addCpuSidePort("host"));

    // startup() only loads segments; nothing is scheduled until release().
    const RunResult gated = h.sim.run();
    EXPECT_EQ(gated.cause, ExitCause::kQueueEmpty);
    EXPECT_FALSE(host.finished());

    host.release();
    h.sim.run();
    EXPECT_TRUE(host.finished());
    EXPECT_TRUE(host.checksumOk());
}

}  // namespace
}  // namespace g5r
