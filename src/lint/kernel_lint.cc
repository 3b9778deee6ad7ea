#include "lint/kernel_lint.hh"

#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace g5r::lint {
namespace {

using rtl::Module;
using rtl::RegBase;

struct Walk {
    /// Hierarchical path -> how many registers/modules claim it.
    std::map<std::string, unsigned> pathCount;
    /// Path, width, clock edges latched by the owning module.
    std::vector<std::tuple<std::string, unsigned, std::uint64_t>> regs;
    std::uint64_t maxLatches = 0;
};

void walk(const Module& module, const std::string& prefix, Walk& w) {
    const std::string path = prefix.empty() ? module.name() : prefix + "." + module.name();
    ++w.pathCount[path];
    for (const RegBase* reg : module.registers()) {
        const std::string regPath = path + "." + reg->name();
        ++w.pathCount[regPath];
        w.regs.emplace_back(regPath, reg->width(), module.latchCount());
        if (module.latchCount() > w.maxLatches) w.maxLatches = module.latchCount();
    }
    for (const Module* child : module.children()) walk(*child, path, w);
}

}  // namespace

Report run(const Module& root) {
    Walk w;
    walk(root, "", w);

    Report rep;
    for (const auto& [path, count] : w.pathCount) {
        if (count > 1) {
            rep.add("G5R-KRNL-DUP-SIGNAL", Severity::kError,
                    "hierarchical name '" + path + "' is declared " +
                        std::to_string(count) + " times; VCD traces of these "
                        "signals would be interleaved under one identifier",
                    {}, {path});
        }
    }
    for (const auto& [path, width, latches] : w.regs) {
        if (width == 0) {
            rep.add("G5R-KRNL-ZERO-WIDTH", Severity::kError,
                    "register '" + path + "' declares zero width", {}, {path});
        }
    }
    // Only meaningful once the design has ticked at least once: before any
    // clock edge, every module trivially has latchCount == 0.
    if (w.maxLatches > 0) {
        for (const auto& [path, width, latches] : w.regs) {
            if (latches == 0) {
                rep.add("G5R-KRNL-NEVER-LATCHED", Severity::kWarning,
                        "register '" + path + "' never latched although the "
                        "design has; is its module missing from the tick path?",
                        {}, {path});
            }
        }
    }
    return rep;
}

}  // namespace g5r::lint
