// The netlist commands: `g5r lint`, static RTL analysis of textual netlist
// files (the GHDL-path format of rtl/netlist_graph.hh) and generated designs
// without executing a cycle; and `g5r netlistc`, the GHDL role in the
// paper's toolflow: strict elaboration, levelized codegen through
// rtl/codegen, and a host-toolchain compile into a shared library exporting
// both the bridge/rtl_api.h v2 table and the raw-kernel table of
// netlist_kernel.h. Both read their input through one reader.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hh"
#include "lint/baseline.hh"
#include "lint/diagnostics.hh"
#include "lint/netlist_lint.hh"
#include "rtl/analysis/cones.hh"
#include "rtl/analysis/levelize.hh"
#include "rtl/codegen/compile.hh"
#include "rtl/netlist.hh"
#include "rtl/netlist_graph.hh"
#include "sim/args.hh"

namespace g5r::cli {

namespace {

struct NetlistInput {
    std::string label;            ///< "file.nl" or "builtin:bitonic:8" in messages.
    std::string source;           ///< Netlist text.
    std::string defaultName;      ///< Model name: the file's stem, or bitonic_c<N>.
    unsigned defaultLatency = 0;  ///< Builtin pipeline depth; 0 for files.
};

/// Read the regular file at @p spec, or with @p builtin generate the design
/// @p spec names ("bitonic:N"). Throws std::runtime_error with the reason.
NetlistInput readNetlistInput(std::string_view spec, bool builtin) {
    NetlistInput input;
    if (builtin) {
        const unsigned n = rtl::parseBitonicSpec(spec);
        input.source = rtl::bitonicSorterNetlist(n);
        input.label = "builtin:bitonic:" + std::to_string(n);
        input.defaultName = "bitonic_c" + std::to_string(n);
        input.defaultLatency = rtl::bitonicStages(n);
        return input;
    }
    const std::filesystem::path path{spec};
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) {
        throw std::runtime_error("not a regular file: " + path.string());
    }
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    input.source = ss.str();
    input.label = path.string();
    input.defaultName = path.stem().string();
    return input;
}

/// Netlist inputs as (spec, builtin?) pairs, in command-line order.
using InputSpecs = std::vector<std::pair<std::string, bool>>;

/// Register `--builtin <name:N>` and file arguments, both into @p specs.
void inputOptions(ArgParser& args, InputSpecs& specs) {
    args.value("--builtin",
               [&specs](std::string_view v) {
                   specs.emplace_back(v, true);
                   return true;
               })
        .positional([&specs](std::string_view v) { specs.emplace_back(v, false); });
}

constexpr const char* kLintUsage =
    "usage: g5r lint [options] <netlist-file>...\n"
    "  --json                  one JSON document on stdout (each diagnostic's\n"
    "                          \"file\" field names its input)\n"
    "  --werror                exit 1 on warnings too\n"
    "  --quiet                 suppress clean-file summaries\n"
    "  --builtin <name:N>      lint a generated design (names: bitonic)\n"
    "  --list-rules            print the rule registry and exit\n"
    "  --max-level <N>         G5R-DEEP-LOGIC budget (default 64 levels)\n"
    "  --dump-levels           print each input's canonical level schedule\n"
    "  --dump-cones            print each input's duplicate-cone statistics\n"
    "  --baseline <file>       suppress findings recorded in a baseline file\n"
    "  --write-baseline <file> record current findings as the new baseline\n"
    "exit status: 0 clean or warnings only, 1 errors (or warnings under\n"
    "--werror), 2 usage or I/O problems\n";

constexpr const char* kNetlistcUsage =
    "usage: g5r netlistc [options] (<netlist-file> | --builtin <name:N>)\n"
    "                    (-o <model.so> | --emit-only <file.cc>)\n"
    "  -o <path>           output shared library\n"
    "  --emit-only <file>  write the generated C++ and stop (no compile)\n"
    "  --builtin <name:N>  compile a generated design (names: bitonic)\n"
    "  --model-name <s>    ABI model name (default: derived from the input)\n"
    "  --latency <cycles>  device-wrapper compute latency (default: builtin\n"
    "                      pipeline depth, else the schedule depth)\n"
    "  --cxx <path>        host C++ compiler (default: $CXX, then c++)\n"
    "  --cxxflag <flag>    extra compiler flag (repeatable)\n"
    "  --keep-source       leave the generated <model.so>.cc next to the .so\n"
    "  --stats             print codegen statistics\n"
    "  --quiet             suppress the success line\n"
    "exit status: 0 success, 1 elaboration/codegen/compile failure, 2 usage\n";

void dumpLevels(const NetlistInput& input, const rtl::NetlistGraph& g,
                const rtl::analysis::LevelSchedule& sched, std::ostream& os) {
    os << "== levels: " << input.label << " (depth " << sched.depth() << ", "
       << sched.order.size() << " combinational node(s)"
       << (sched.acyclic() ? "" : ", CYCLIC") << ")\n";
    for (std::size_t level = 0; level < sched.levels.size(); ++level) {
        os << "  L" << level << ':';
        for (const int v : sched.levels[level]) os << ' ' << g.nodes[v].name;
        os << '\n';
    }
}

void dumpCones(const NetlistInput& input, const rtl::NetlistGraph& g,
               const rtl::analysis::DuplicateCones& dup, std::ostream& os) {
    os << "== cones: " << input.label << ": " << dup.combNodes
       << " combinational node(s), " << dup.distinctCones << " distinct cone(s), "
       << dup.redundantNodes << " redundant node(s) in " << dup.classes.size()
       << " duplicate class(es)\n";
    for (const auto& cls : dup.classes) {
        os << "  class size " << cls.nodes.size() << " (cone " << cls.coneSize
           << " node(s)):";
        for (const int v : cls.nodes) os << ' ' << g.nodes[v].name;
        os << '\n';
    }
}

}  // namespace

int lintCliMain(int argc, const char* const* argv) {
    bool json = false, werror = false, quiet = false, listRules = false;
    bool wantLevels = false, wantCones = false;
    std::string baselinePath, writeBaselinePath;
    lint::NetlistLintOptions opts;
    InputSpecs specs;

    ArgParser args{"lint", kLintUsage};
    args.flag("--json", json)
        .flag("--werror", werror)
        .flag("--quiet", quiet)
        .flag("--list-rules", listRules)
        .flag("--dump-levels", wantLevels)
        .flag("--dump-cones", wantCones)
        .number("--max-level", opts.maxLogicDepth)
        .value("--baseline", baselinePath)
        .value("--write-baseline", writeBaselinePath);
    inputOptions(args, specs);
    if (const auto exit = args.parse(argc, argv)) return *exit;

    if (listRules) {
        for (const auto& rule : lint::ruleRegistry()) {
            std::cout << rule.id << "  (" << lint::severityName(rule.defaultSeverity)
                      << ")  " << rule.summary << '\n';
        }
        return 0;
    }
    if (specs.empty()) return args.usageError();

    std::vector<NetlistInput> inputs;
    lint::Baseline baseline;
    try {
        for (const auto& [spec, builtin] : specs) {
            inputs.push_back(readNetlistInput(spec, builtin));
        }
        if (!baselinePath.empty()) baseline = lint::loadBaseline(baselinePath);
    } catch (const std::exception& e) {
        return args.fail(e.what());
    }

    // In JSON mode all inputs merge into one document; the per-diagnostic
    // "file" field keeps them apart.
    lint::Report merged;
    std::size_t errors = 0, warnings = 0, suppressed = 0;
    for (const auto& input : inputs) {
        lint::Report report = lint::runNetlistSource(input.source, input.label, opts);
        if (!baselinePath.empty()) {
            std::size_t dropped = 0;
            report = lint::applyBaseline(report, baseline, &dropped);
            suppressed += dropped;
        }
        errors += report.errors();
        warnings += report.warnings();
        merged.merge(report);
        if (!json) {
            if (!report.empty()) {
                lint::emitText(report, std::cout);
            } else if (!quiet) {
                std::cout << input.label << ": clean\n";
            }
        }
        if (wantLevels || wantCones) {
            // Keep the JSON document on stdout parseable: dumps go to stderr
            // under --json.
            std::ostream& dumpOs = json ? std::cerr : std::cout;
            const auto g = rtl::parseNetlistGraph(input.source);
            const auto sched = rtl::analysis::levelize(g);
            if (wantLevels) dumpLevels(input, g, sched, dumpOs);
            if (wantCones) {
                dumpCones(input, g, rtl::analysis::findDuplicateCones(g, sched), dumpOs);
            }
        }
    }
    if (json) lint::emitJson(merged, std::cout);
    if (!writeBaselinePath.empty()) {
        try {
            lint::saveBaseline(lint::makeBaseline(merged), writeBaselinePath);
        } catch (const std::exception& e) {
            return args.fail(e.what());
        }
        if (!quiet && !json) {
            std::cout << "baseline: wrote " << merged.diagnostics().size()
                      << " finding(s) to " << writeBaselinePath << '\n';
        }
    }
    if (!baselinePath.empty() && !quiet && !json) {
        std::cout << "baseline: suppressed " << suppressed << " finding(s)\n";
    }
    if (!json && !quiet && inputs.size() > 1) {
        std::cout << inputs.size() << " input(s): " << errors << " error(s), "
                  << warnings << " warning(s)\n";
    }
    return (errors > 0 || (werror && warnings > 0)) ? 1 : 0;
}

int netlistcCliMain(int argc, const char* const* argv) {
    rtl::codegen::CodegenOptions cgOpts;
    rtl::codegen::CompileOptions ccOpts;
    std::string outPath, emitPath, modelName;
    bool wantStats = false, quiet = false;
    InputSpecs specs;

    ArgParser args{"netlistc", kNetlistcUsage};
    args.value("-o", outPath)
        .value("--emit-only", emitPath)
        .value("--model-name", modelName)
        .number("--latency", cgOpts.deviceLatency)
        .value("--cxx", ccOpts.cxx)
        .value("--cxxflag",
               [&](std::string_view v) {
                   ccOpts.extraFlags.emplace_back(v);
                   return true;
               })
        .flag("--keep-source", ccOpts.keepSource)
        .flag("--stats", wantStats)
        .flag("--quiet", quiet);
    inputOptions(args, specs);
    if (const auto exit = args.parse(argc, argv)) return *exit;

    if (specs.empty()) return args.usageError();
    if (specs.size() > 1) return args.fail("exactly one input, please");
    if (outPath.empty() && emitPath.empty()) {
        return args.usageError("-o <model.so> (or --emit-only) required");
    }
    NetlistInput input;
    try {
        input = readNetlistInput(specs[0].first, specs[0].second);
    } catch (const std::exception& e) {
        return args.fail(e.what());
    }

    cgOpts.modelName = !modelName.empty() ? modelName : input.defaultName;
    cgOpts.sourceLabel = input.label;
    if (cgOpts.deviceLatency == 0) cgOpts.deviceLatency = input.defaultLatency;

    rtl::codegen::CodegenStats stats;
    try {
        const rtl::Netlist netlist{input.source};

        // The generic device register map packs inputs at 0x000 and control
        // at 0x200: more than 64 elements would overlap. The raw kernel ABI
        // has no such limit, but a silently broken wrapper helps nobody.
        std::size_t numInputs = 0;
        for (const auto& node : netlist.graph().nodes) {
            if (node.op == rtl::NetOp::kInput) ++numInputs;
        }
        if (numInputs > 64) {
            args.fail(input.label + " has " + std::to_string(numInputs) +
                      " inputs; the device wrapper's register map supports at most 64");
            return 1;
        }

        if (!emitPath.empty()) {
            const std::string source =
                rtl::codegen::emitCompiledModel(netlist, cgOpts, &stats);
            std::ofstream out(emitPath, std::ios::trunc);
            if (!out || !(out << source).flush()) {
                args.fail("cannot write " + emitPath);
                return 1;
            }
        }
        if (!outPath.empty()) {
            std::string error;
            if (!rtl::codegen::compileNetlistModel(netlist, cgOpts, ccOpts, outPath,
                                                   &error, &stats)) {
                args.fail(error);
                return 1;
            }
        }
    } catch (const rtl::NetlistError& e) {
        args.fail(input.label + " failed to elaborate:\n" + e.what());
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

}  // namespace g5r::cli
