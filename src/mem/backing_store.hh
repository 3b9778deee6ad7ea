// Sparse physical-memory backing store.
//
// Stores simulated memory contents in 4 KiB pages allocated on first touch,
// so a multi-GiB address space costs only what the workload actually uses.
// Multiple memory controllers (e.g. the channels of a multi-channel DRAM)
// share one BackingStore for the same physical range.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "mem/packet.hh"

namespace g5r {

class BackingStore {
public:
    static constexpr unsigned kPageShift = 12;
    static constexpr Addr kPageSize = Addr{1} << kPageShift;

    /// Copy @p size bytes in, one page-bounded memcpy per page touched
    /// (allocating pages on first touch).
    void write(Addr addr, const std::uint8_t* src, unsigned size) {
        while (size > 0) {
            const unsigned chunk = chunkAt(addr, size);
            std::memcpy(page(addr).data() + offsetOf(addr), src, chunk);
            addr += chunk;
            src += chunk;
            size -= chunk;
        }
    }

    /// Copy @p size bytes out; untouched pages read as zeros and stay
    /// unallocated.
    void read(Addr addr, std::uint8_t* dst, unsigned size) const {
        while (size > 0) {
            const unsigned chunk = chunkAt(addr, size);
            const auto it = pages_.find(pageOf(addr));
            if (it == pages_.end()) {
                std::memset(dst, 0, chunk);
            } else {
                std::memcpy(dst, it->second->data() + offsetOf(addr), chunk);
            }
            addr += chunk;
            dst += chunk;
            size -= chunk;
        }
    }

    /// Service a packet's data movement: writes update the store, reads
    /// (and read responses being filled) copy the store into the payload.
    void access(Packet& pkt) {
        if (pkt.isWrite() && pkt.hasData()) {
            write(pkt.addr(), pkt.constData(), pkt.size());
        } else if (pkt.isRead()) {
            read(pkt.addr(), pkt.data(), pkt.size());
        }
    }

    template <typename T>
    T load(Addr addr) const {
        T v{};
        read(addr, reinterpret_cast<std::uint8_t*>(&v), sizeof(T));
        return v;
    }

    template <typename T>
    void store(Addr addr, T v) {
        write(addr, reinterpret_cast<const std::uint8_t*>(&v), sizeof(T));
    }

    std::size_t allocatedPages() const { return pages_.size(); }

private:
    using Page = std::array<std::uint8_t, kPageSize>;

    static Addr pageOf(Addr a) { return a >> kPageShift; }
    static Addr offsetOf(Addr a) { return a & (kPageSize - 1); }
    /// Bytes of a @p size-byte access at @p addr that fall in addr's page.
    static unsigned chunkAt(Addr addr, unsigned size) {
        return static_cast<unsigned>(std::min<Addr>(size, kPageSize - offsetOf(addr)));
    }

    Page& page(Addr addr) {
        auto& slot = pages_[pageOf(addr)];
        if (!slot) slot = std::make_unique<Page>();
        return *slot;
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

}  // namespace g5r
