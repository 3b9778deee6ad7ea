// g5r-netlistc: compile a textual netlist into a native model library.
//
// The GHDL role in the paper's toolflow, end to end: strict elaboration
// (parse -> lint -> throw on errors), levelized codegen through
// rtl/codegen, and a host-toolchain compile producing a shared library that
// exports both the bridge/rtl_api.h v2 table (SharedLibModel loads it like
// any hand-written model) and the raw-kernel table of netlist_kernel.h.
//
//   g5r-netlistc [options] (<netlist-file> | --builtin bitonic:N) -o <model.so>
//     -o <path>           output shared library
//     --emit-only <file>  write the generated C++ and stop (no compile)
//     --builtin <name:N>  compile a generated design (names: bitonic);
//                         sets the device-wrapper latency to the design's
//                         pipeline depth automatically
//     --model-name <s>    ABI model name (default: derived from the input)
//     --latency <cycles>  device-wrapper compute latency (default: builtin
//                         pipeline depth, else the schedule depth)
//     --cxx <path>        host C++ compiler (default: $CXX, then c++)
//     --cxxflag <flag>    extra compiler flag (repeatable; e.g. -fsanitize=…)
//     --keep-source       leave the generated <model.so>.cc next to the .so
//     --stats             print codegen statistics
//     --quiet             suppress the success line
//
// Exit status: 0 success, 1 elaboration/codegen/compile failure, 2 usage.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "rtl/codegen/compile.hh"
#include "rtl/netlist.hh"
#include "sim/parse.hh"

namespace {

int usage(std::ostream& os, int code) {
    os << "usage: g5r-netlistc [--emit-only <file.cc>] [--model-name <s>]\n"
          "                    [--latency <cycles>] [--cxx <path>]\n"
          "                    [--cxxflag <flag>]... [--keep-source] [--stats]\n"
          "                    [--quiet] (<netlist-file> | --builtin <name:N>)\n"
          "                    -o <model.so>\n";
    return code;
}

struct Input {
    std::string label;
    std::string source;
    std::string defaultName;
    unsigned defaultLatency = 0;  ///< 0: fall back to schedule depth.
    unsigned elems = 0;           ///< Builtin element count (0 for files).
};

bool builtinInput(const std::string& spec, Input& input, std::string& error) {
    try {
        const unsigned n = g5r::rtl::parseBitonicSpec(spec);
        input.source = g5r::rtl::bitonicSorterNetlist(n);
        input.label = "builtin:bitonic:" + std::to_string(n);
        input.defaultName = "bitonic_c" + std::to_string(n);
        input.defaultLatency = g5r::rtl::bitonicStages(n);
        input.elems = n;
        return true;
    } catch (const g5r::rtl::NetlistError& e) {
        error = e.what();
        return false;
    }
}

}  // namespace

int main(int argc, char** argv) {
    g5r::rtl::codegen::CodegenOptions cgOpts;
    g5r::rtl::codegen::CompileOptions ccOpts;
    std::string outPath, emitPath, modelName;
    bool wantStats = false, quiet = false;
    Input input;
    bool haveInput = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            return ++i < argc ? argv[i] : nullptr;
        };
        if (arg == "-o") {
            const char* v = value();
            if (v == nullptr) return usage(std::cerr, 2);
            outPath = v;
        } else if (arg == "--emit-only") {
            const char* v = value();
            if (v == nullptr) return usage(std::cerr, 2);
            emitPath = v;
        } else if (arg == "--model-name") {
            const char* v = value();
            if (v == nullptr) return usage(std::cerr, 2);
            modelName = v;
        } else if (arg == "--latency") {
            const char* v = value();
            if (v == nullptr) return usage(std::cerr, 2);
            const auto latency = g5r::parseDecimal(v, ~0u);
            if (!latency) {
                std::cerr << "g5r-netlistc: bad --latency value '" << v << "'\n";
                return 2;
            }
            cgOpts.deviceLatency = static_cast<unsigned>(*latency);
        } else if (arg == "--cxx") {
            const char* v = value();
            if (v == nullptr) return usage(std::cerr, 2);
            ccOpts.cxx = v;
        } else if (arg == "--cxxflag") {
            const char* v = value();
            if (v == nullptr) return usage(std::cerr, 2);
            ccOpts.extraFlags.push_back(v);
        } else if (arg == "--builtin") {
            const char* v = value();
            if (v == nullptr) return usage(std::cerr, 2);
            std::string error;
            if (!builtinInput(v, input, error)) {
                std::cerr << "g5r-netlistc: " << error << '\n';
                return 2;
            }
            haveInput = true;
        } else if (arg == "--keep-source") {
            ccOpts.keepSource = true;
        } else if (arg == "--stats") {
            wantStats = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "g5r-netlistc: unknown option " << arg << '\n';
            return usage(std::cerr, 2);
        } else {
            if (haveInput) {
                std::cerr << "g5r-netlistc: exactly one input, please\n";
                return 2;
            }
            std::ifstream in(arg);
            if (!in) {
                std::cerr << "g5r-netlistc: cannot open " << arg << '\n';
                return 2;
            }
            std::ostringstream ss;
            ss << in.rdbuf();
            input.source = ss.str();
            input.label = arg;
            input.defaultName = std::filesystem::path{arg}.stem().string();
            haveInput = true;
        }
    }
    if (!haveInput) return usage(std::cerr, 2);
    if (outPath.empty() && emitPath.empty()) {
        std::cerr << "g5r-netlistc: -o <model.so> (or --emit-only) required\n";
        return usage(std::cerr, 2);
    }

    cgOpts.modelName = !modelName.empty() ? modelName : input.defaultName;
    cgOpts.sourceLabel = input.label;
    if (cgOpts.deviceLatency == 0) cgOpts.deviceLatency = input.defaultLatency;

    g5r::rtl::codegen::CodegenStats stats;
    try {
        const g5r::rtl::Netlist netlist{input.source};

        // The generic device register map packs inputs at 0x000 and control
        // at 0x200: more than 64 elements would overlap. The raw kernel ABI
        // has no such limit, but a silently broken wrapper helps nobody.
        std::size_t numInputs = 0;
        for (const auto& node : netlist.graph().nodes) {
            if (node.op == g5r::rtl::NetOp::kInput) ++numInputs;
        }
        if (numInputs > 64) {
            std::cerr << "g5r-netlistc: " << input.label << " has " << numInputs
                      << " inputs; the device wrapper's register map supports"
                         " at most 64\n";
            return 1;
        }

        if (!emitPath.empty()) {
            const std::string source =
                g5r::rtl::codegen::emitCompiledModel(netlist, cgOpts, &stats);
            std::ofstream out(emitPath, std::ios::trunc);
            if (!out || !(out << source).flush()) {
                std::cerr << "g5r-netlistc: cannot write " << emitPath << '\n';
                return 1;
            }
        }
        if (!outPath.empty()) {
            std::string error;
            if (!g5r::rtl::codegen::compileNetlistModel(netlist, cgOpts, ccOpts,
                                                        outPath, &error, &stats)) {
                std::cerr << "g5r-netlistc: " << error << '\n';
                return 1;
            }
        }
    } catch (const g5r::rtl::NetlistError& e) {
        std::cerr << "g5r-netlistc: " << input.label << " failed to elaborate:\n"
                  << e.what() << '\n';
        return 1;
    }

    if (wantStats) {
        std::cout << "codegen " << input.label << ": " << stats.combNodes
                  << " comb node(s) -> " << stats.emittedExprs << " expr(s) in "
                  << stats.levelBlocks << " block(s) over depth " << stats.depth
                  << "; " << stats.constFolded << " const-folded, "
                  << stats.dedupReused << " dedup-reused, "
                  << stats.localsPromoted << " register-promoted; masks "
                  << stats.masksApplied << " applied / " << stats.masksSkipped
                  << " folded away; " << stats.inputs << " input(s), "
                  << stats.outputs << " output(s), " << stats.regs
                  << " reg(s)\n";
    }
    if (!quiet) {
        if (!outPath.empty()) {
            std::cout << input.label << " -> " << outPath << " (model \""
                      << cgOpts.modelName << "\", latency "
                      << (cgOpts.deviceLatency > 0 ? cgOpts.deviceLatency
                                                   : std::max(1u, stats.depth))
                      << " cycle(s))\n";
        } else {
            std::cout << input.label << " -> " << emitPath << " (emit only)\n";
        }
    }
    return 0;
}
