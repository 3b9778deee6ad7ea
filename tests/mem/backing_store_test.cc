// Sparse backing-store semantics: zero-fill, page granularity, packet access,
// and page-bounded bulk copies (multi-page writes, partially allocated reads,
// zero-size and page-edge accesses).
#include <gtest/gtest.h>

#include <vector>

#include "mem/backing_store.hh"

namespace g5r {
namespace {

TEST(BackingStore, ReadsOfUntouchedMemoryAreZero) {
    BackingStore store;
    EXPECT_EQ(store.load<std::uint64_t>(0x123456789ULL), 0u);
    EXPECT_EQ(store.allocatedPages(), 0u);
}

TEST(BackingStore, RoundTripTypedAccess) {
    BackingStore store;
    store.store<std::uint32_t>(0x1000, 0xA5A5A5A5u);
    EXPECT_EQ(store.load<std::uint32_t>(0x1000), 0xA5A5A5A5u);
    EXPECT_EQ(store.allocatedPages(), 1u);
}

TEST(BackingStore, CrossPageAccess) {
    BackingStore store;
    const Addr addr = BackingStore::kPageSize - 4;  // Straddles two pages.
    store.store<std::uint64_t>(addr, 0x1122334455667788ULL);
    EXPECT_EQ(store.load<std::uint64_t>(addr), 0x1122334455667788ULL);
    EXPECT_EQ(store.allocatedPages(), 2u);
}

TEST(BackingStore, SparseAllocation) {
    BackingStore store;
    store.store<std::uint8_t>(0, 1);
    store.store<std::uint8_t>(1ULL << 40, 2);  // 1 TiB away.
    EXPECT_EQ(store.allocatedPages(), 2u);
    EXPECT_EQ(store.load<std::uint8_t>(0), 1);
    EXPECT_EQ(store.load<std::uint8_t>(1ULL << 40), 2);
}

TEST(BackingStore, PacketAccessReadAndWrite) {
    BackingStore store;
    Packet write{MemCmd::kWriteReq, 0x2000, 8};
    write.set<std::uint64_t>(77);
    store.access(write);

    Packet read{MemCmd::kReadReq, 0x2000, 8};
    store.access(read);
    EXPECT_EQ(read.get<std::uint64_t>(), 77u);
}

TEST(BackingStore, WritebackPacketsUpdateStore) {
    BackingStore store;
    Packet wb{MemCmd::kWritebackDirty, 0x3000, 8};
    wb.set<std::uint64_t>(99);
    store.access(wb);
    EXPECT_EQ(store.load<std::uint64_t>(0x3000), 99u);
}

TEST(BackingStore, WriteSpanningFourPagesRoundTrips) {
    BackingStore store;
    const Addr addr = 5 * BackingStore::kPageSize - 96;  // Last 96 B of page 4.
    std::vector<std::uint8_t> src(2 * BackingStore::kPageSize + 200);
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::uint8_t>(i * 7 + 3);
    store.write(addr, src.data(), static_cast<unsigned>(src.size()));
    EXPECT_EQ(store.allocatedPages(), 4u);  // Pages 4, 5, 6 and 7.

    std::vector<std::uint8_t> dst(src.size());
    store.read(addr, dst.data(), static_cast<unsigned>(dst.size()));
    EXPECT_EQ(dst, src);
    // Bytes either side of the write were never touched.
    EXPECT_EQ(store.load<std::uint8_t>(addr - 1), 0);
    EXPECT_EQ(store.load<std::uint8_t>(addr + src.size()), 0);
}

TEST(BackingStore, ReadAcrossUnallocatedPageZeroFillsTheGap) {
    BackingStore store;
    const Addr page = BackingStore::kPageSize;
    std::vector<std::uint8_t> ones(page, 0xAB);
    store.write(0, ones.data(), static_cast<unsigned>(page));         // Page 0.
    store.write(2 * page, ones.data(), static_cast<unsigned>(page));  // Page 2.
    ASSERT_EQ(store.allocatedPages(), 2u);

    const Addr from = page / 2;  // Middle of page 0 to middle of page 2.
    std::vector<std::uint8_t> dst(2 * page, 0x55);
    store.read(from, dst.data(), static_cast<unsigned>(dst.size()));
    for (std::size_t i = 0; i < dst.size(); ++i) {
        const Addr a = from + i;
        const std::uint8_t want = (a >= page && a < 2 * page) ? 0 : 0xAB;
        ASSERT_EQ(dst[i], want) << "at address " << a;
    }
    EXPECT_EQ(store.allocatedPages(), 2u);
}

TEST(BackingStore, ReadsNeverAllocate) {
    BackingStore store;
    std::vector<std::uint8_t> dst(3 * BackingStore::kPageSize);
    store.read(123, dst.data(), static_cast<unsigned>(dst.size()));
    Packet read{MemCmd::kReadReq, 7 * BackingStore::kPageSize - 4, 64};
    store.access(read);
    EXPECT_EQ(store.load<std::uint64_t>(1ULL << 40), 0u);
    EXPECT_EQ(store.allocatedPages(), 0u);
}

TEST(BackingStore, ZeroSizeAccessAllocatesNothing) {
    BackingStore store;
    std::uint8_t byte = 0x5A;
    store.write(0x4000, &byte, 0);
    store.read(0x4000, &byte, 0);
    EXPECT_EQ(byte, 0x5A);  // Nothing copied out either.
    Packet read{MemCmd::kReadReq, 0x5000, 0};
    store.access(read);
    Packet write{MemCmd::kWriteReq, 0x6000, 0};
    store.access(write);
    EXPECT_EQ(store.allocatedPages(), 0u);
}

TEST(BackingStore, PacketAccessAtPageLastByte) {
    BackingStore store;
    const Addr last = 3 * BackingStore::kPageSize - 1;

    Packet byteWrite{MemCmd::kWriteReq, last, 1};
    byteWrite.set<std::uint8_t>(0xC3);
    store.access(byteWrite);
    EXPECT_EQ(store.allocatedPages(), 1u);
    Packet byteRead{MemCmd::kReadReq, last, 1};
    store.access(byteRead);
    EXPECT_EQ(byteRead.get<std::uint8_t>(), 0xC3);

    // An 8-byte packet from the same last byte runs into the next page.
    Packet wideWrite{MemCmd::kWriteReq, last, 8};
    wideWrite.set<std::uint64_t>(0x0102030405060708ULL);
    store.access(wideWrite);
    EXPECT_EQ(store.allocatedPages(), 2u);
    Packet wideRead{MemCmd::kReadReq, last, 8};
    store.access(wideRead);
    EXPECT_EQ(wideRead.get<std::uint64_t>(), 0x0102030405060708ULL);
    EXPECT_EQ(store.load<std::uint8_t>(last), 0x08);
    EXPECT_EQ(store.load<std::uint8_t>(last + 1), 0x07);
}

}  // namespace
}  // namespace g5r
