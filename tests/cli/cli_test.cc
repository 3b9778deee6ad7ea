// The `g5r` driver, its shared option parser (sim/args.hh), and the exit
// contract of `g5r lint` and `g5r netlistc`, all driven in-process. The
// diff, stats and critpath commands are covered next to their libraries in
// tests/obs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hh"
#include "sim/args.hh"

namespace g5r::cli {
namespace {

const std::string kNetlists = std::string{G5R_EXAMPLES_DIR} + "/netlists/";

/// Run @p fn on argv {name, args...}, capturing stdout into @p out.
int run(int (*fn)(int, const char* const*), const char* name,
        std::vector<const char*> args, std::string* out = nullptr) {
    args.insert(args.begin(), name);
    ::testing::internal::CaptureStdout();
    const int status = fn(static_cast<int>(args.size()), args.data());
    const std::string captured = ::testing::internal::GetCapturedStdout();
    if (out != nullptr) *out = captured;
    return status;
}

int lint(std::vector<const char*> args, std::string* out = nullptr) {
    return run(lintCliMain, "lint", std::move(args), out);
}

int netlistc(std::vector<const char*> args, std::string* out = nullptr) {
    return run(netlistcCliMain, "netlistc", std::move(args), out);
}

int g5r(std::vector<const char*> args, std::string* out = nullptr) {
    return run(g5rMain, "g5r", std::move(args), out);
}

std::string example(const char* name) { return kNetlists + name; }

TEST(ArgParser, ParsesEveryOptionForm) {
    bool quiet = false;
    std::string out;
    unsigned level = 0;
    std::vector<std::string> flags, positional;
    std::optional<std::string> wide = "unset";
    ArgParser args{"demo", "usage: demo\n"};
    args.flag("--quiet", quiet)
        .value("-o", out)
        .number("--level", level)
        .value("--flag",
               [&](std::string_view v) {
                   flags.emplace_back(v);
                   return true;
               })
        .optionalValue("--wide",
                       [&](std::optional<std::string_view> v) {
                           wide = v ? std::optional<std::string>{*v} : std::nullopt;
                           return true;
                       })
        .positional(positional);
    const char* argv[] = {"demo", "a", "--quiet", "-o", "x.so", "--flag", "f1", "b",
                          "--level", "12", "--flag", "f2", "--wide=9"};
    EXPECT_EQ(args.parse(13, argv), std::nullopt);
    EXPECT_TRUE(quiet);
    EXPECT_EQ(out, "x.so");
    EXPECT_EQ(level, 12u);
    EXPECT_EQ(flags, (std::vector<std::string>{"f1", "f2"}));
    EXPECT_EQ(positional, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(wide, "9");

    const char* bare[] = {"demo", "--wide"};
    EXPECT_EQ(args.parse(2, bare), std::nullopt);
    EXPECT_EQ(wide, std::nullopt);
}

TEST(ArgParser, DiagnosticsExitTwoAndHelpExitsZero) {
    unsigned level = 0;
    bool quiet = false;
    ArgParser args{"demo", "usage: demo [--level N]\n"};
    args.number("--level", level).flag("--quiet", quiet);
    const auto parse = [&](std::vector<const char*> argv) {
        argv.insert(argv.begin(), "demo");
        return args.parse(static_cast<int>(argv.size()), argv.data());
    };
    const auto diagnostic = [&](std::vector<const char*> argv) {
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(parse(std::move(argv)), 2);
        return ::testing::internal::GetCapturedStderr();
    };
    EXPECT_NE(diagnostic({"--bogus"}).find("g5r demo: unknown option --bogus"),
              std::string::npos);
    EXPECT_NE(diagnostic({"--level"}).find("g5r demo: missing value for --level"),
              std::string::npos);
    EXPECT_NE(diagnostic({"--level", "8x"}).find("g5r demo: bad value '8x' for --level"),
              std::string::npos);
    // Only --flag[=value] options take an attached value.
    EXPECT_NE(diagnostic({"--quiet=1"}).find("unknown option --quiet=1"), std::string::npos);
    EXPECT_NE(diagnostic({"stray"}).find("unexpected argument stray"), std::string::npos);
    // An unsigned option rejects what does not fit rather than wrapping.
    EXPECT_NE(diagnostic({"--level", "4294967296"}).find("bad value"), std::string::npos);

    ::testing::internal::CaptureStdout();
    EXPECT_EQ(parse({"--level", "3", "--help", "--bogus"}), 0);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "usage: demo [--level N]\n");
}

TEST(G5rDriver, DispatchesAndReportsUsage) {
    EXPECT_EQ(g5r({}), 2);
    EXPECT_EQ(g5r({"frobnicate"}), 2);
    EXPECT_EQ(g5r({"--bogus"}), 2);
    std::string help;
    EXPECT_EQ(g5r({"--help"}, &help), 0);
    for (const char* cmd : {"lint", "netlistc", "diff", "stats", "critpath"}) {
        EXPECT_NE(help.find(cmd), std::string::npos) << cmd;
        std::string usage;
        EXPECT_EQ(g5r({cmd, "--help"}, &usage), 0) << cmd;
        EXPECT_NE(usage.find(std::string{"usage: g5r "} + cmd), std::string::npos) << usage;
    }
    // Dispatch hands the subcommand its own argv.
    const std::string counter = example("counter8.nl");
    EXPECT_EQ(g5r({"lint", "--quiet", counter.c_str()}), 0);
    const std::string loop = example("broken_comb_loop.nl");
    EXPECT_EQ(g5r({"lint", "--quiet", loop.c_str()}), 1);
}

TEST(LintCli, ExitCodes) {
    const std::string counter = example("counter8.nl");
    const std::string loop = example("broken_comb_loop.nl");
    const std::string dup = example("broken_dup_cone.nl");
    std::string out;
    EXPECT_EQ(lint({counter.c_str()}, &out), 0);
    EXPECT_NE(out.find("clean"), std::string::npos) << out;
    EXPECT_EQ(lint({loop.c_str()}), 1);
    EXPECT_EQ(lint({dup.c_str()}), 0);  // Warnings only.
    EXPECT_EQ(lint({"--werror", dup.c_str()}), 1);
    EXPECT_EQ(lint({"/no/such/netlist.nl"}), 2);
    EXPECT_EQ(lint({"--max-level", "8x", counter.c_str()}), 2);
    EXPECT_EQ(lint({"--builtin", "bitonic:8x"}), 2);
    EXPECT_EQ(lint({}), 2);
    EXPECT_EQ(lint({"--list-rules"}, &out), 0);
    EXPECT_NE(out.find("G5R-DEEP-LOGIC"), std::string::npos) << out;
    EXPECT_EQ(lint({"--builtin", "bitonic:8"}, &out), 0);
    EXPECT_NE(out.find("builtin:bitonic:8: clean"), std::string::npos) << out;
}

TEST(LintCli, RejectsADirectoryAsInput) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(lint({kNetlists.c_str()}), 2);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("not a regular file"),
              std::string::npos);
}

TEST(LintCli, InputsKeepCommandLineOrder) {
    const std::string counter = example("counter8.nl");
    std::string out;
    EXPECT_EQ(lint({"--builtin", "bitonic:4", counter.c_str(), "--builtin", "bitonic:8"}, &out),
              0);
    const auto first = out.find("builtin:bitonic:4");
    const auto second = out.find(counter);
    const auto third = out.find("builtin:bitonic:8");
    ASSERT_NE(third, std::string::npos) << out;
    EXPECT_LT(first, second);
    EXPECT_LT(second, third);
}

TEST(NetlistcCli, EmitOnlyWritesTheModelSource) {
    const std::string acc = example("accumulator.nl");
    const std::string cc = ::testing::TempDir() + "/netlistc_acc.cc";
    std::string out;
    EXPECT_EQ(netlistc({"--emit-only", cc.c_str(), acc.c_str()}, &out), 0);
    EXPECT_NE(out.find("(emit only)"), std::string::npos) << out;
    std::ifstream in(cc);
    std::stringstream source;
    source << in.rdbuf();
    EXPECT_NE(source.str().find("g5r_rtl_get_api"), std::string::npos);
    EXPECT_NE(source.str().find("\"accumulator\""), std::string::npos);
    std::remove(cc.c_str());
}

TEST(NetlistcCli, UsageErrorsExitTwo) {
    const std::string acc = example("accumulator.nl");
    const std::string cc = ::testing::TempDir() + "/netlistc_usage.cc";
    EXPECT_EQ(netlistc({"--emit-only", cc.c_str()}), 2);  // No input.
    EXPECT_EQ(netlistc({"--emit-only", cc.c_str(), acc.c_str(), acc.c_str()}), 2);
    EXPECT_EQ(netlistc({"--emit-only", cc.c_str(), acc.c_str(), "--builtin", "bitonic:4"}),
              2);
    EXPECT_EQ(netlistc({"--latency", "3x", "--emit-only", cc.c_str(), acc.c_str()}), 2);
    EXPECT_EQ(netlistc({acc.c_str()}), 2);  // Neither -o nor --emit-only.
    EXPECT_FALSE(std::filesystem::exists(cc));
}

TEST(NetlistcCli, RejectsADirectoryAsInput) {
    const std::string cc = ::testing::TempDir() + "/netlistc_dir.cc";
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(netlistc({"--emit-only", cc.c_str(), kNetlists.c_str()}), 2);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("not a regular file"),
              std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(cc));
}

}  // namespace
}  // namespace g5r::cli
