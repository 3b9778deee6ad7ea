// Compiled netlist backend conformance: every NetOp, across the interesting
// widths, must evaluate identically under the dirty-bit interpreter and the
// `g5r netlistc` generated native code — loaded through the raw-kernel face of
// the emitted library, i.e. the same dlopen path the simulator uses.
//
// These tests invoke the host C++ compiler at runtime (once per width), so
// they live in their own binary rather than test_rtl.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "rtl/codegen/compile.hh"
#include "rtl/codegen/kernel_loader.hh"
#include "rtl/netlist.hh"
#include "sim/rng.hh"

namespace g5r::rtl::codegen {
namespace {

std::uint64_t maskFor(unsigned width) {
    return width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
}

/// Compile @p source into a temp .so and dlopen its kernel face. The .so is
/// removed when the returned holder goes out of scope.
struct Compiled {
    std::string soPath;
    CodegenStats stats;
    std::unique_ptr<CompiledKernel> kernel;

    explicit Compiled(const std::string& source, const std::string& tag) {
        soPath = (std::filesystem::temp_directory_path() /
                  ("g5r_cgtest_" + tag + "_" + std::to_string(::getpid()) + ".so"))
                     .string();
        std::string error;
        const bool ok = compileNetlistModelFromSource(
            source, CodegenOptions{}, CompileOptions{}, soPath, &error, &stats);
        EXPECT_TRUE(ok) << error;
        if (ok) {
            kernel = CompiledKernel::load(soPath, &error);
            EXPECT_NE(kernel, nullptr) << error;
        }
    }
    ~Compiled() {
        std::error_code ec;
        std::filesystem::remove(soPath, ec);
    }
};

int inputIndexOf(const CompiledKernel& k, const std::string& name) {
    for (std::uint32_t i = 0; i < k.numInputs(); ++i) {
        if (k.inputName(i) == name) return static_cast<int>(i);
    }
    return -1;
}

/// One netlist exercising every NetOp at data width @p w: two data inputs,
/// a 1-bit select, one constant, every combinational op, and a register.
std::string everyOpNetlist(unsigned w) {
    const std::string W = " " + std::to_string(w);
    std::string src;
    src += "input a" + W + "\n";
    src += "input b" + W + "\n";
    src += "input s 1\n";
    src += "const k 3" + W + "\n";
    src += "and y_and a b" + W + "\n";
    src += "or  y_or  a b" + W + "\n";
    src += "xor y_xor a b" + W + "\n";
    src += "not y_not a" + W + "\n";
    src += "add y_add a b" + W + "\n";
    src += "sub y_sub a b" + W + "\n";
    src += "add y_addk a k" + W + "\n";
    src += "lt  y_lt  a b\n";   // Signed: sign-extends from width w.
    src += "ltu y_ltu a b\n";
    src += "eq  y_eq  a b\n";
    src += "mux y_mux s a b" + W + "\n";
    src += "reg q y_xor 0" + W + "\n";
    for (const char* o : {"and", "or", "xor", "not", "add", "sub", "addk",
                          "lt", "ltu", "eq", "mux"}) {
        src += std::string{"output o_"} + o + " y_" + o + "\n";
    }
    src += "output o_q q\n";
    return src;
}

/// Boundary-heavy operand set for width @p w: zero, one, all-ones, the
/// signed extremes, an alternating pattern, and some deterministic randoms.
std::vector<std::uint64_t> operandsFor(unsigned w, Rng& rng) {
    const std::uint64_t m = maskFor(w);
    std::vector<std::uint64_t> v{0, 1, m, m - 1, m >> 1,       // max signed
                                 (m >> 1) + 1,                 // min signed
                                 0xAAAA'AAAA'AAAA'AAAAull & m};
    for (int i = 0; i < 4; ++i) v.push_back(rng.next() & m);
    return v;
}

TEST(CodegenConformance, EveryOpMatchesBothInterpretersAcrossWidths) {
    for (const unsigned w : {1u, 7u, 63u, 64u}) {
        SCOPED_TRACE("width " + std::to_string(w));
        const std::string src = everyOpNetlist(w);

        Netlist dirty{src};
        Compiled compiled{src, "everyop_w" + std::to_string(w)};
        ASSERT_NE(compiled.kernel, nullptr);
        auto& kern = *compiled.kernel;

        ASSERT_EQ(kern.numInputs(), 3u);
        ASSERT_EQ(kern.numOutputs(), 12u);
        const int ia = inputIndexOf(kern, "a");
        const int ib = inputIndexOf(kern, "b");
        const int is = inputIndexOf(kern, "s");
        ASSERT_GE(ia, 0);
        ASSERT_GE(ib, 0);
        ASSERT_GE(is, 0);
        EXPECT_EQ(kern.inputWidth(static_cast<std::uint32_t>(ia)), w);
        EXPECT_EQ(kern.inputWidth(static_cast<std::uint32_t>(is)), 1u);

        dirty.reset();
        kern.reset();

        Rng rng{0xC0DE60ull + w};
        const auto operands = operandsFor(w, rng);
        unsigned sel = 0;
        for (const std::uint64_t a : operands) {
            for (const std::uint64_t b : operands) {
                sel ^= 1;
                dirty.setInput("a", a);
                dirty.setInput("b", b);
                dirty.setInput("s", sel);
                kern.setInput(static_cast<std::uint32_t>(ia), a);
                kern.setInput(static_cast<std::uint32_t>(ib), b);
                kern.setInput(static_cast<std::uint32_t>(is), sel);

                // tick() = eval + latch: compares the combinational results
                // of this cycle and the register value captured last cycle.
                dirty.tick();
                kern.tick();
                for (std::uint32_t o = 0; o < kern.numOutputs(); ++o) {
                    const std::string name = kern.outputName(o);
                    ASSERT_EQ(kern.output(o), dirty.output(name))
                        << name << " a=" << a << " b=" << b;
                }
            }
        }
    }
}

TEST(CodegenConformance, SignedLtBoundaryValues) {
    // lt sign-extends both operands from their declared widths; the minimum
    // and maximum signed values either side of the wrap are where a
    // mis-compiled shift would show.
    for (const unsigned w : {7u, 63u, 64u}) {
        SCOPED_TRACE("width " + std::to_string(w));
        const std::string W = " " + std::to_string(w);
        const std::string src = "input a" + W + "\ninput b" + W +
                                "\nlt y a b\noutput o y\n";
        Netlist dirty{src};
        Compiled compiled{src, "lt_w" + std::to_string(w)};
        ASSERT_NE(compiled.kernel, nullptr);
        auto& kern = *compiled.kernel;

        const std::uint64_t m = maskFor(w);
        const std::uint64_t minSigned = (m >> 1) + 1;  // 100...0
        const std::uint64_t maxSigned = m >> 1;        // 011...1
        const std::uint64_t cases[] = {0, 1, m /* -1 */, minSigned, maxSigned,
                                       minSigned + 1, maxSigned - 1};
        for (const std::uint64_t a : cases) {
            for (const std::uint64_t b : cases) {
                dirty.setInput("a", a);
                dirty.setInput("b", b);
                dirty.eval();
                kern.setInput(0, a);
                kern.setInput(1, b);
                kern.eval();
                ASSERT_EQ(kern.output(0), dirty.output("o"))
                    << "a=" << a << " b=" << b;
            }
        }
    }
}

TEST(CodegenConformance, DuplicateConesEmitOnceAndStayCorrect) {
    // u and v are verified-identical cones: codegen must emit the adder once
    // and alias the duplicate, and the aliased value must still be right.
    const std::string src = R"(
        input a 8
        input b 8
        add u a b 8
        add v a b 8
        xor w u v 8
        output o_u u
        output o_v v
        output o_w w
    )";
    Netlist dirty{src};
    Compiled compiled{src, "dedup"};
    ASSERT_NE(compiled.kernel, nullptr);
    EXPECT_GE(compiled.stats.dedupReused, 1u);
    auto& kern = *compiled.kernel;

    Rng rng{7};
    for (int i = 0; i < 32; ++i) {
        const std::uint64_t a = rng.next() & 0xFF;
        const std::uint64_t b = rng.next() & 0xFF;
        dirty.setInput("a", a);
        dirty.setInput("b", b);
        dirty.eval();
        kern.setInput(0, a);
        kern.setInput(1, b);
        kern.eval();
        const int ou = kern.outputIndex("o_u");
        const int ov = kern.outputIndex("o_v");
        const int ow = kern.outputIndex("o_w");
        ASSERT_GE(ou, 0);
        ASSERT_GE(ov, 0);
        ASSERT_GE(ow, 0);
        EXPECT_EQ(kern.output(static_cast<std::uint32_t>(ou)), (a + b) & 0xFF);
        EXPECT_EQ(kern.output(static_cast<std::uint32_t>(ov)),
                  dirty.output("o_v"));
        EXPECT_EQ(kern.output(static_cast<std::uint32_t>(ow)), 0u);
    }
    EXPECT_EQ(kern.outputIndex("nope"), -1);
}

TEST(CodegenConformance, ConstantConesFoldToResetTimeInits) {
    // k + m is a constant cone: const prop proves it, codegen folds it, and
    // the fold must not change what the model computes.
    const std::string src = R"(
        const k 5 8
        const m 3 8
        add s k m 8
        input a 8
        add y a s 8
        output o y
        output o_s s
    )";
    Netlist dirty{src};
    Compiled compiled{src, "cfold"};
    ASSERT_NE(compiled.kernel, nullptr);
    EXPECT_GE(compiled.stats.constFolded, 1u);
    auto& kern = *compiled.kernel;

    for (const std::uint64_t a : {0ull, 0x7Full, 0xF8ull, 0xFFull}) {
        dirty.setInput("a", a);
        dirty.eval();
        kern.setInput(0, a);
        kern.eval();
        EXPECT_EQ(kern.output(static_cast<std::uint32_t>(kern.outputIndex("o"))),
                  (a + 8) & 0xFF);
        EXPECT_EQ(
            kern.output(static_cast<std::uint32_t>(kern.outputIndex("o_s"))),
            8u);
    }
}

TEST(CodegenConformance, MaskElisionStatsReflectConstProp) {
    // Compares produce {0,1} and 64-bit adds wrap for free: no masks. A
    // 7-bit add genuinely needs one.
    CodegenStats wide = Compiled{"input a\ninput b\nadd y a b\nlt c a b\n"
                                 "output o y\noutput oc c\n",
                                 "mask64"}
                            .stats;
    EXPECT_EQ(wide.masksApplied, 0u);
    EXPECT_GE(wide.masksSkipped, 2u);

    CodegenStats narrow = Compiled{"input a 7\ninput b 7\nadd y a b 7\n"
                                   "output o y\n",
                                   "mask7"}
                              .stats;
    EXPECT_EQ(narrow.masksApplied, 1u);
}

TEST(CodegenConformance, SequentialLogicMatchesAcrossBackends) {
    // An 8-bit accumulator with a mux-based enable: registers latch on
    // tick() and feed back combinationally.
    const std::string src = R"(
        input d 8
        input en 1
        add sum acc d 8
        mux nxt en sum acc 8
        reg acc nxt 0 8
        output o acc
    )";
    Netlist dirty{src};
    Compiled compiled{src, "seq"};
    ASSERT_NE(compiled.kernel, nullptr);
    EXPECT_EQ(compiled.stats.regs, 1u);
    auto& kern = *compiled.kernel;
    const int id = inputIndexOf(kern, "d");
    const int ie = inputIndexOf(kern, "en");
    ASSERT_GE(id, 0);
    ASSERT_GE(ie, 0);

    dirty.reset();
    kern.reset();
    Rng rng{42};
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t d = rng.next() & 0xFF;
        const std::uint64_t en = rng.next() & 1;
        dirty.setInput("d", d);
        dirty.setInput("en", en);
        dirty.tick();
        kern.setInput(static_cast<std::uint32_t>(id), d);
        kern.setInput(static_cast<std::uint32_t>(ie), en);
        kern.tick();
        ASSERT_EQ(kern.output(0), dirty.output("o")) << "cycle " << i;
    }

    // reset() returns both to the same state.
    dirty.reset();
    kern.reset();
    dirty.eval();
    kern.eval();
    EXPECT_EQ(dirty.output("o"), 0u);
    EXPECT_EQ(kern.output(0), 0u);
}

TEST(CodegenConformance, GeneratedBitonicSortsLikeTheInterpreter) {
    const std::string src = bitonicSorterNetlist(8);
    Netlist dirty{src};
    Compiled compiled{src, "bitonic8"};
    ASSERT_NE(compiled.kernel, nullptr);
    auto& kern = *compiled.kernel;
    ASSERT_EQ(kern.numInputs(), 8u);
    ASSERT_EQ(kern.numOutputs(), 8u);

    Rng rng{0xB170ull};
    for (int round = 0; round < 16; ++round) {
        std::vector<std::uint64_t> data(8);
        for (auto& v : data) v = rng.next();
        for (unsigned i = 0; i < 8; ++i) {
            dirty.setInput("in" + std::to_string(i), data[i]);
            kern.setInput(i, data[i]);
        }
        dirty.eval();
        kern.eval();
        for (unsigned i = 0; i < 8; ++i) {
            ASSERT_EQ(kern.output(i), dirty.output("out" + std::to_string(i)))
                << "lane " << i;
        }
    }
}

TEST(CodegenCompile, RejectsNetlistsThatFailStrictElaboration) {
    const std::string soPath =
        (std::filesystem::temp_directory_path() /
         ("g5r_cgtest_bad_" + std::to_string(::getpid()) + ".so"))
            .string();
    std::string error;
    EXPECT_FALSE(compileNetlistModelFromSource("and y a b\noutput o y\n",
                                               CodegenOptions{}, CompileOptions{},
                                               soPath, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(std::filesystem::exists(soPath));
}

TEST(CodegenCompile, ReportsToolchainFailuresWithDiagnostics) {
    CompileOptions opts;
    opts.cxx = "/nonexistent/definitely-not-a-compiler";
    const std::string soPath =
        (std::filesystem::temp_directory_path() /
         ("g5r_cgtest_nocc_" + std::to_string(::getpid()) + ".so"))
            .string();
    std::string error;
    EXPECT_FALSE(compileNetlistModelFromSource("input a\noutput o a\n",
                                               CodegenOptions{}, opts, soPath,
                                               &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(std::filesystem::exists(soPath));
}

}  // namespace
}  // namespace g5r::rtl::codegen
