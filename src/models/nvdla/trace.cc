#include "models/nvdla/trace.hh"

#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "models/nvdla/nvdla_design.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace g5r::models {

void NvdlaTrace::loadSegments(BackingStore& mem) const {
    for (const Segment& seg : segments) {
        mem.write(seg.addr, seg.bytes.data(), static_cast<unsigned>(seg.bytes.size()));
    }
}

NvdlaShape sanity3Shape(unsigned scale) {
    // Memory-intensive: 1x1 kernel over wide channels; ~37 B of traffic per
    // compute cycle at nv_full's 2048 MACs/cycle.
    NvdlaShape s;
    s.width = static_cast<std::uint16_t>(48 * scale);
    s.height = static_cast<std::uint16_t>(48 * scale);
    s.inChannels = 112;
    s.outChannels = 112;
    s.filterH = s.filterW = 1;
    s.refetch = 1;
    return s;
}

NvdlaShape googlenetConv2Shape(unsigned scale) {
    // GoogleNet pipeline conv2-like: 3x3 filters, higher compute density
    // (~20 B/cycle), ifmap rows re-fetched once per filter row.
    NvdlaShape s;
    s.width = static_cast<std::uint16_t>(28 * scale);
    s.height = static_cast<std::uint16_t>(28 * scale);
    s.inChannels = 64;
    s.outChannels = 48;
    s.filterH = s.filterW = 3;
    s.refetch = 3;
    return s;
}

namespace {

NvdlaTrace buildConvTrace(const std::string& name, const NvdlaShape& shape,
                          const NvdlaPlacement& placement, std::uint64_t seed,
                          bool sramWeights) {
    NvdlaTrace trace;
    trace.name = name;
    trace.shape = shape;
    trace.placement = placement;
    trace.seed = seed;

    Rng rng{seed};
    auto makeSegment = [&](std::uint64_t addr, std::uint64_t bytes) {
        NvdlaTrace::Segment seg;
        seg.addr = addr;
        seg.bytes.resize(bytes);
        for (auto& b : seg.bytes) b = static_cast<std::uint8_t>(rng.next());
        trace.segments.push_back(std::move(seg));
    };
    makeSegment(placement.ifmapBase, shape.ifmapBytes());
    makeSegment(placement.weightBase, shape.weightBytes());

    // Golden datapath checksum: byte sum of everything the engine reads
    // (order-independent, so out-of-order memory responses don't matter).
    std::uint64_t checksum = 0;
    for (const auto b : trace.segments[0].bytes) checksum += b * shape.refetch;
    for (const auto b : trace.segments[1].bytes) checksum += b;
    trace.expectedChecksum = checksum;

    const std::uint64_t dims0 = static_cast<std::uint64_t>(shape.width) |
                                (static_cast<std::uint64_t>(shape.height) << 16) |
                                (static_cast<std::uint64_t>(shape.inChannels) << 32);
    const std::uint64_t dims1 = static_cast<std::uint64_t>(shape.outChannels) |
                                (static_cast<std::uint64_t>(shape.filterH) << 16) |
                                (static_cast<std::uint64_t>(shape.filterW) << 24) |
                                (static_cast<std::uint64_t>(shape.refetch) << 32);

    trace.regWrites = {
        {NvdlaDesign::kSramModeReg, sramWeights ? 1ull : 0ull},
        {NvdlaDesign::kIfmapBaseReg, placement.ifmapBase},
        {NvdlaDesign::kWeightBaseReg, placement.weightBase},
        {NvdlaDesign::kOfmapBaseReg, placement.ofmapBase},
        {NvdlaDesign::kDims0Reg, dims0},
        {NvdlaDesign::kDims1Reg, dims1},
        {NvdlaDesign::kControlReg, 1},  // Start.
    };
    return trace;
}

/// One cached trace; built at most once, by the first caller to reach it.
struct TraceSlot {
    std::once_flag built;
    std::shared_ptr<const NvdlaTrace> trace;
};

}  // namespace

std::shared_ptr<const NvdlaTrace> sharedConvTrace(const std::string& name,
                                                  const NvdlaShape& shape,
                                                  const NvdlaPlacement& placement,
                                                  std::uint64_t seed, bool sramWeights) {
    // The key is every argument. The map lock covers only the lookup: each
    // trace builds under its own slot's once_flag, so threads building
    // different traces never wait on each other. Map nodes never move, so a
    // slot reference outlives the lock.
    using Key = std::tuple<std::string, NvdlaShape, NvdlaPlacement, std::uint64_t, bool>;
    static std::mutex mutex;
    static std::map<Key, TraceSlot> slots;
    TraceSlot* slot = nullptr;
    {
        const std::lock_guard lock{mutex};
        slot = &slots[Key{name, shape, placement, seed, sramWeights}];
    }
    std::call_once(slot->built, [&] {
        slot->trace = std::make_shared<const NvdlaTrace>(
            buildConvTrace(name, shape, placement, seed, sramWeights));
    });
    return slot->trace;
}

NvdlaTrace makeConvTrace(std::string name, const NvdlaShape& shape,
                         const NvdlaPlacement& placement, std::uint64_t seed,
                         bool sramWeights) {
    return *sharedConvTrace(name, shape, placement, seed, sramWeights);
}

std::string serializeTrace(const NvdlaTrace& trace) {
    std::ostringstream os;
    os << "# gem5+rtl nvdla trace: " << trace.name << "\n"
       << "name " << trace.name << "\n"
       << "shape " << trace.shape.width << ' ' << trace.shape.height << ' '
       << trace.shape.inChannels << ' ' << trace.shape.outChannels << ' '
       << +trace.shape.filterH << ' ' << +trace.shape.filterW << ' '
       << +trace.shape.refetch << "\n"
       << "base 0x" << std::hex << trace.placement.ifmapBase << " 0x"
       << trace.placement.weightBase << " 0x" << trace.placement.ofmapBase << std::dec
       << "\n"
       << "seed " << trace.seed << "\n"
       << "checksum " << trace.expectedChecksum << "\n";
    return os.str();
}

NvdlaTrace parseTrace(const std::string& text) {
    std::istringstream is{text};
    std::string line;
    std::string traceName = "unnamed";
    NvdlaShape shape;
    NvdlaPlacement placement;
    std::uint64_t seed = 0xD1A5EED;
    bool haveShape = false;
    while (std::getline(is, line)) {
        std::istringstream ls{line};
        std::string kind;
        ls >> kind;
        if (kind.empty() || kind[0] == '#') continue;
        if (kind == "name") {
            ls >> traceName;
        } else if (kind == "shape") {
            unsigned w = 0, h = 0, c = 0, k = 0, r = 0, s = 0, f = 1;
            ls >> w >> h >> c >> k >> r >> s >> f;
            shape.width = static_cast<std::uint16_t>(w);
            shape.height = static_cast<std::uint16_t>(h);
            shape.inChannels = static_cast<std::uint16_t>(c);
            shape.outChannels = static_cast<std::uint16_t>(k);
            shape.filterH = static_cast<std::uint8_t>(r);
            shape.filterW = static_cast<std::uint8_t>(s);
            shape.refetch = static_cast<std::uint8_t>(f);
            haveShape = true;
        } else if (kind == "seed") {
            ls >> seed;
        } else if (kind == "base") {
            std::string a, b, c;
            ls >> a >> b >> c;
            placement.ifmapBase = std::stoull(a, nullptr, 0);
            placement.weightBase = std::stoull(b, nullptr, 0);
            placement.ofmapBase = std::stoull(c, nullptr, 0);
        }
    }
    if (!haveShape) panic("trace text lacks a shape statement");
    return makeConvTrace(traceName, shape, placement, seed);
}

}  // namespace g5r::models
