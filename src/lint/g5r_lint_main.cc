// g5r-lint: static RTL/SoC analysis from the command line.
//
// Lints textual netlist files (the GHDL-path format of rtl/netlist_graph.hh)
// without executing a single cycle, and can lint the built-in generated
// designs ("--builtin bitonic:8"). Exit status: 0 clean or warnings only,
// 1 when any error-severity finding was reported (or warnings under
// --werror), 2 on usage/IO problems.
//
//   g5r-lint [options] <netlist-file>...
//     --json                  machine-readable output (one JSON document; the
//                             per-diagnostic "file" field identifies the input)
//     --werror                treat warnings as errors for the exit status
//     --quiet                 suppress clean-file summaries
//     --builtin <name:N>      lint a generated design (names: bitonic)
//     --list-rules            print the rule registry and exit
//     --max-level <N>         G5R-DEEP-LOGIC budget (default 64 levels)
//     --dump-levels           print each input's canonical level schedule
//     --dump-cones            print each input's duplicate-cone statistics
//     --baseline <file>       suppress findings recorded in a baseline file
//     --write-baseline <file> record current findings as the new baseline
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/baseline.hh"
#include "lint/diagnostics.hh"
#include "lint/netlist_lint.hh"
#include "rtl/analysis/cones.hh"
#include "rtl/analysis/levelize.hh"
#include "rtl/netlist.hh"
#include "sim/parse.hh"

namespace {

int usage(std::ostream& os, int code) {
    os << "usage: g5r-lint [--json] [--werror] [--quiet] [--list-rules]\n"
          "                [--max-level <N>] [--dump-levels] [--dump-cones]\n"
          "                [--baseline <file>] [--write-baseline <file>]\n"
          "                [--builtin <name:N>] <netlist-file>...\n";
    return code;
}

void listRules(std::ostream& os) {
    for (const auto& rule : g5r::lint::ruleRegistry()) {
        os << rule.id << "  (" << g5r::lint::severityName(rule.defaultSeverity)
           << ")  " << rule.summary << '\n';
    }
}

struct Input {
    std::string label;   ///< Shown in diagnostics ("file.nl", "builtin:bitonic:8").
    std::string source;  ///< Netlist text.
};

bool builtinSource(const std::string& spec, Input& input, std::string& error) {
    try {
        const unsigned n = g5r::rtl::parseBitonicSpec(spec);
        input.source = g5r::rtl::bitonicSorterNetlist(n);
        input.label = "builtin:bitonic:" + std::to_string(n);
        return true;
    } catch (const g5r::rtl::NetlistError& e) {
        error = e.what();
        return false;
    }
}

void dumpLevels(const Input& input, const g5r::rtl::NetlistGraph& g,
                const g5r::rtl::analysis::LevelSchedule& sched, std::ostream& os) {
    os << "== levels: " << input.label << " (depth " << sched.depth() << ", "
       << sched.order.size() << " combinational node(s)"
       << (sched.acyclic() ? "" : ", CYCLIC") << ")\n";
    for (std::size_t level = 0; level < sched.levels.size(); ++level) {
        os << "  L" << level << ':';
        for (const int v : sched.levels[level]) os << ' ' << g.nodes[v].name;
        os << '\n';
    }
}

void dumpCones(const Input& input, const g5r::rtl::NetlistGraph& g,
               const g5r::rtl::analysis::DuplicateCones& dup, std::ostream& os) {
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

int main(int argc, char** argv) {
    bool json = false, werror = false, quiet = false;
    bool wantLevels = false, wantCones = false;
    std::string baselinePath, writeBaselinePath;
    g5r::lint::NetlistLintOptions opts;
    std::vector<Input> inputs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--dump-levels") {
            wantLevels = true;
        } else if (arg == "--dump-cones") {
            wantCones = true;
        } else if (arg == "--max-level") {
            if (++i >= argc) return usage(std::cerr, 2);
            const auto depth = g5r::parseDecimal(argv[i], ~0u);
            if (!depth) {
                std::cerr << "g5r-lint: bad --max-level value '" << argv[i] << "'\n";
                return 2;
            }
            opts.maxLogicDepth = static_cast<unsigned>(*depth);
        } else if (arg == "--baseline") {
            if (++i >= argc) return usage(std::cerr, 2);
            baselinePath = argv[i];
        } else if (arg == "--write-baseline") {
            if (++i >= argc) return usage(std::cerr, 2);
            writeBaselinePath = argv[i];
        } else if (arg == "--list-rules") {
            listRules(std::cout);
            return 0;
        } else if (arg == "--builtin") {
            if (++i >= argc) return usage(std::cerr, 2);
            Input input;
            std::string error;
            if (!builtinSource(argv[i], input, error)) {
                std::cerr << "g5r-lint: " << error << '\n';
                return 2;
            }
            inputs.push_back(std::move(input));
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "g5r-lint: unknown option " << arg << '\n';
            return usage(std::cerr, 2);
        } else {
            std::error_code ec;
            if (!std::filesystem::is_regular_file(arg, ec)) {
                std::cerr << "g5r-lint: not a regular file: " << arg << '\n';
                return 2;
            }
            std::ifstream in(arg);
            if (!in) {
                std::cerr << "g5r-lint: cannot open " << arg << '\n';
                return 2;
            }
            std::ostringstream ss;
            ss << in.rdbuf();
            inputs.push_back(Input{arg, ss.str()});
        }
    }
    if (inputs.empty()) return usage(std::cerr, 2);

    g5r::lint::Baseline baseline;
    if (!baselinePath.empty()) {
        try {
            baseline = g5r::lint::loadBaseline(baselinePath);
        } catch (const std::exception& e) {
            std::cerr << "g5r-lint: " << e.what() << '\n';
            return 2;
        }
    }

    // In JSON mode all inputs merge into one document; the per-diagnostic
    // "file" field keeps them apart.
    g5r::lint::Report merged;
    std::size_t errors = 0, warnings = 0, suppressed = 0;
    for (const auto& input : inputs) {
        g5r::lint::Report report =
            g5r::lint::runNetlistSource(input.source, input.label, opts);
        if (!baselinePath.empty()) {
            std::size_t dropped = 0;
            report = g5r::lint::applyBaseline(report, baseline, &dropped);
            suppressed += dropped;
        }
        errors += report.errors();
        warnings += report.warnings();
        merged.merge(report);
        if (!json) {
            if (!report.empty()) {
                g5r::lint::emitText(report, std::cout);
            } else if (!quiet) {
                std::cout << input.label << ": clean\n";
            }
        }
        if (wantLevels || wantCones) {
            // Keep the JSON document on stdout parseable: dumps go to stderr
            // under --json.
            std::ostream& dumpOs = json ? std::cerr : std::cout;
            const auto g = g5r::rtl::parseNetlistGraph(input.source);
            const auto sched = g5r::rtl::analysis::levelize(g);
            if (wantLevels) dumpLevels(input, g, sched, dumpOs);
            if (wantCones) {
                dumpCones(input, g, g5r::rtl::analysis::findDuplicateCones(g, sched),
                          dumpOs);
            }
        }
    }
    if (json) {
        g5r::lint::emitJson(merged, std::cout);
    }
    if (!writeBaselinePath.empty()) {
        try {
            g5r::lint::saveBaseline(g5r::lint::makeBaseline(merged), writeBaselinePath);
        } catch (const std::exception& e) {
            std::cerr << "g5r-lint: " << e.what() << '\n';
            return 2;
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
