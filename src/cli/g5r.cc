#include <string>
#include <string_view>
#include <utility>

#include "cli/cli.hh"
#include "obs/critpath_cli.hh"
#include "obs/diff.hh"
#include "obs/stats_cli.hh"
#include "sim/args.hh"

namespace g5r::cli {

namespace {

constexpr std::pair<std::string_view, int (*)(int, const char* const*)> kCommands[] = {
    {"lint", lintCliMain},
    {"netlistc", netlistcCliMain},
    {"diff", obs::diffCliMain},
    {"stats", obs::statsCliMain},
    {"critpath", obs::critpathCliMain},
};

constexpr const char* kUsage =
    "usage: g5r <command> [options]\n"
    "  lint      static analysis of netlist files and generated designs\n"
    "  netlistc  compile a netlist into a native model library\n"
    "  diff      first divergence between two flight recordings\n"
    "  stats     metrics timelines, percentile tables, perf gate\n"
    "  critpath  critical-path stage blame over request traces\n"
    "'g5r <command> --help' lists a command's options\n";

}  // namespace

int g5rMain(int argc, const char* const* argv) {
    if (argc > 1) {
        for (const auto& [name, main] : kCommands) {
            if (name == argv[1]) return main(argc - 1, argv + 1);
        }
    }
    std::string unknown;
    ArgParser args{"", kUsage};
    args.positional([&](std::string_view v) {
        if (unknown.empty()) unknown = v;
    });
    if (const auto exit = args.parse(argc, argv)) return *exit;
    return args.usageError(unknown.empty() ? "" : "unknown command " + unknown);
}

}  // namespace g5r::cli
