// NVDLA workload traces.
//
// The paper drives the accelerator with register-transaction traces from the
// NVDLA release (sanity3, GoogleNet). A trace here is the same thing: the
// CSB register writes that configure and launch one convolution, plus the
// data segments the host loads into main memory beforehand, plus golden
// values (datapath checksum, expected traffic) for verification.
//
// Two workloads mirror the paper's:
//   * sanity3 — a small memory-intensive convolution (1x1 kernel, wide
//     channels): ~37 bytes of memory traffic per compute cycle, which is
//     what makes Fig. 7 so sensitive to memory technology.
//   * googlenet — the second convolution of the GoogleNet pipeline (3x3
//     filters, more compute, ifmap rows re-fetched per filter row): ~20
//     bytes/cycle, the milder Fig. 6 profile.
//
// `scale` grows H and W for paper-scale runs (GEM5RTL_FULL).
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/backing_store.hh"

namespace g5r::models {

struct NvdlaShape {
    std::uint16_t width = 0;
    std::uint16_t height = 0;
    std::uint16_t inChannels = 0;
    std::uint16_t outChannels = 0;
    std::uint8_t filterH = 1;
    std::uint8_t filterW = 1;
    std::uint8_t refetch = 1;  ///< ifmap stream re-reads (line-buffer model).

    std::uint64_t ifmapBytes() const {
        return static_cast<std::uint64_t>(width) * height * inChannels;
    }
    std::uint64_t weightBytes() const {
        return static_cast<std::uint64_t>(outChannels) * inChannels * filterH * filterW;
    }
    std::uint64_t outH() const { return height >= filterH ? height - filterH + 1u : 1u; }
    std::uint64_t outW() const { return width >= filterW ? width - filterW + 1u : 1u; }
    std::uint64_t ofmapBytes() const { return outH() * outW() * outChannels; }
    std::uint64_t totalMacs() const {
        return static_cast<std::uint64_t>(outChannels) * inChannels * filterH * filterW *
               outH() * outW();
    }
    /// Total bytes moving through memory for one run.
    std::uint64_t totalTrafficBytes() const {
        return ifmapBytes() * refetch + weightBytes() + ofmapBytes();
    }

    friend auto operator<=>(const NvdlaShape&, const NvdlaShape&) = default;
};

struct NvdlaPlacement {
    std::uint64_t ifmapBase = 0x2000'0000;
    std::uint64_t weightBase = 0x2800'0000;
    std::uint64_t ofmapBase = 0x3000'0000;

    friend auto operator<=>(const NvdlaPlacement&, const NvdlaPlacement&) = default;
};

struct NvdlaTrace {
    struct RegWrite {
        std::uint64_t addr;  ///< CSB offset.
        std::uint64_t data;
    };
    struct Segment {
        std::uint64_t addr;
        std::vector<std::uint8_t> bytes;
    };

    std::string name;
    NvdlaShape shape;
    NvdlaPlacement placement;
    std::vector<RegWrite> regWrites;   ///< Configuration + start, in order.
    std::vector<Segment> segments;     ///< Preloaded ifmap + weights.
    std::uint64_t expectedChecksum = 0;
    std::uint64_t seed = 0;

    /// Load the data segments into simulated memory (what the paper's host
    /// application does before signalling the accelerator).
    void loadSegments(BackingStore& mem) const;
};

/// The paper's two evaluation workloads (scaled-down by default; scale
/// multiplies the spatial dimensions).
NvdlaShape sanity3Shape(unsigned scale = 1);
NvdlaShape googlenetConv2Shape(unsigned scale = 1);

/// A complete trace for a shape at a placement with pseudo-random tensors
/// (deterministic in @p seed). A trace is a pure function of its arguments,
/// so each distinct argument set is built once per process and shared
/// read-only from then on: every later call with the same arguments, from
/// any thread, returns the same object. Traces live until the process
/// exits (a sweep draws on a handful of distinct ones).
std::shared_ptr<const NvdlaTrace> sharedConvTrace(const std::string& name,
                                                  const NvdlaShape& shape,
                                                  const NvdlaPlacement& placement,
                                                  std::uint64_t seed,
                                                  bool sramWeights = false);

/// A private copy of sharedConvTrace()'s trace.
NvdlaTrace makeConvTrace(std::string name, const NvdlaShape& shape,
                         const NvdlaPlacement& placement, std::uint64_t seed,
                         bool sramWeights = false);

/// Serialize/parse the textual trace format (for on-disk traces):
///   shape W H C K R S REFETCH
///   base  IFMAP WEIGHT OFMAP
///   seed  N
std::string serializeTrace(const NvdlaTrace& trace);
NvdlaTrace parseTrace(const std::string& text);

}  // namespace g5r::models
