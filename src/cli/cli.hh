// The `g5r` command: one driver, five subcommands. Each subcommand is a
// library function taking argv-style arguments (argv[0] is the subcommand's
// name) and returning the exit status: 0 success, 1 findings / divergence /
// violations, 2 usage or I/O problems. All parse argv through sim/args.hh.
// diff, stats and critpath live in obs/; lint and netlistc live here.
#pragma once

namespace g5r::cli {

int lintCliMain(int argc, const char* const* argv);
int netlistcCliMain(int argc, const char* const* argv);

/// The driver: dispatches argv[1] to its subcommand.
int g5rMain(int argc, const char* const* argv);

}  // namespace g5r::cli
