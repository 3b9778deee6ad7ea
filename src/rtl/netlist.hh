// Structural netlist interpreter: the GHDL toolflow stand-in.
//
// GHDL compiles VHDL into an executable model behind the same wrapper ABI as
// Verilator's C++. Here, "VHDL" designs are expressed as word-level
// structural netlists in a small textual format, elaborated and interpreted
// by this class — a second, independent path from HDL-ish source to a
// tick-able model, exactly where GHDL sits in the paper's Figure 1.
//
// Format (one statement per line, '#' comments):
//   input  <name> [width]          -- external input net
//   output <name> <src>            -- external output alias
//   const  <name> <value> [width]  -- literal
//   not    <name> <a> [width]      -- bitwise ops
//   and|or|xor <name> <a> <b> [width]
//   add|sub <name> <a> <b> [width]
//   lt|ltu|eq <name> <a> <b>       -- comparisons (1-bit result); lt is
//                                     signed: operands are sign-extended
//                                     from their declared net widths
//   mux    <name> <sel> <a> <b> [width]
//   reg    <name> <next> [init] [width]  -- D flip-flop, latched by tick()
//
// Nets are up to 64 bits wide; values are masked to the net's width.
//
// Elaboration is the strict path over the tolerant parser in
// rtl/netlist_graph.hh: the source is parsed into a NetlistGraph, the
// static-analysis passes in src/lint run over it, and any error-severity
// finding (syntax, undriven net, multiple drivers, combinational loop —
// with the full cycle path in the message) aborts construction with a
// NetlistError carrying the formatted diagnostics.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rtl/analysis/levelize.hh"
#include "rtl/netlist_graph.hh"

namespace g5r::rtl {

class NetlistError : public std::runtime_error {
public:
    explicit NetlistError(const std::string& what) : std::runtime_error(what) {}
};

class Netlist {
public:
    /// Parse and elaborate; throws NetlistError on syntax errors,
    /// undefined nets, duplicate definitions, or combinational cycles.
    explicit Netlist(std::string_view source);

    // --- external interface -------------------------------------------------
    void setInput(const std::string& name, std::uint64_t value);
    std::uint64_t output(const std::string& name) const;

    /// Propagate combinational logic from inputs/register outputs,
    /// activity-driven: only cones whose sources changed are recomputed.
    /// The `g5r netlistc` compiled backend is the full-recompute fast path.
    void eval();

    /// The canonical level schedule this netlist evaluates with (and the
    /// one `g5r netlistc` emits code from).
    const analysis::LevelSchedule& schedule() const { return sched_; }

    /// Clock edge: eval(), then latch every reg.
    void tick();

    /// Reset registers to their init values.
    void reset();

    std::size_t numNodes() const { return nodes_.size(); }
    std::size_t numRegs() const { return regIndices_.size(); }

    /// Combinational nodes recomputed by the most recent eval() — 0 when
    /// every input and register held its value (testing/profiling).
    std::size_t lastEvalComputedNodes() const { return lastEvalComputed_; }

    /// Value of any named net after the last eval() (testing/debug).
    std::uint64_t probe(const std::string& name) const;

    // --- watch hooks ---------------------------------------------------------
    // Index-based access for per-cycle pollers (trigger-windowed waveform
    // capture, obs/trigger.hh): resolve a name once with probeIndex(), then
    // read by index every cycle without a map lookup.

    /// Node index of a named net, or -1 when unknown (never throws).
    int probeIndex(const std::string& name) const;

    /// Value/width/name of node @p index after the last eval(). Like
    /// probeIndex(), these never throw: the -1 miss sentinel (or any other
    /// out-of-range index) reads as value 0, width 0, empty name.
    std::uint64_t valueAt(int index) const {
        return nodeInRange(index) ? nodes_[static_cast<std::size_t>(index)].value : 0;
    }
    unsigned widthAt(int index) const {
        return nodeInRange(index) ? nodes_[static_cast<std::size_t>(index)].width : 0;
    }
    const std::string& nameAt(int index) const {
        static const std::string kNoName;
        return nodeInRange(index) ? nodes_[static_cast<std::size_t>(index)].name : kNoName;
    }

    /// The parsed IR this netlist was elaborated from (lint re-runs, tools).
    const NetlistGraph& graph() const { return graph_; }

private:
    using Op = NetOp;

    struct Node {
        Op op;
        std::string name;
        unsigned width = 64;
        std::uint64_t value = 0;    ///< Current evaluated value.
        std::uint64_t init = 0;     ///< Reg: reset value. Const: literal.
        std::uint64_t next = 0;     ///< Reg: captured next value.
        int src[3] = {-1, -1, -1};  ///< Operand node indices.
    };

    int indexOf(const std::string& name) const;
    bool nodeInRange(int index) const {
        return index >= 0 && static_cast<std::size_t>(index) < nodes_.size();
    }
    std::uint64_t mask(const Node& n) const {
        return n.width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n.width) - 1);
    }
    std::uint64_t computeValue(const Node& node) const;

    NetlistGraph graph_;
    std::vector<Node> nodes_;
    std::map<std::string, int, std::less<>> byName_;
    std::map<std::string, int, std::less<>> outputs_;  ///< alias -> node index.
    analysis::LevelSchedule sched_;  ///< Canonical level schedule of graph_.
    std::vector<int> regIndices_;
    std::vector<std::uint8_t> dirty_;  ///< Per node: value changed since last settle.
    bool anyDirty_ = true;
    std::size_t lastEvalComputed_ = 0;
};

/// Generate a bitonic sorting-network netlist for @p n power-of-two inputs
/// named in0..in{n-1}, outputs out0..out{n-1} (ascending). This is the
/// "bitonic sorting accelerator written in VHDL" of the paper's GHDL test.
std::string bitonicSorterNetlist(unsigned n, unsigned width = 64);

/// Pipeline depth of the @p n-input bitonic network, log2(n)·(log2(n)+1)/2:
/// the cycles one sort takes behind the interpreted and compiled wrappers.
unsigned bitonicStages(unsigned n);

/// Element count of a "bitonic[:N]" builtin-design spec (N defaults to 8),
/// the argument of `g5r lint` and `g5r netlistc` --builtin. N must be all
/// digits and fit in unsigned; otherwise, or for a design other than
/// bitonic, throws NetlistError naming the spec.
unsigned parseBitonicSpec(std::string_view spec);

/// A bitonic model config string: comma-separated "n=<N>" (a power of two
/// in [2, 64], default 16) and "eval=dirty|compiled" (default dirty: the
/// interpreter; compiled: the `g5r netlistc` library). The interpreted model
/// and the model loader both read it through parseBitonicConfig().
struct BitonicConfig {
    unsigned n = 16;
    bool compiled = false;
};

/// Parse @p config; a bad size, an unknown eval= value or an unknown token
/// throws NetlistError quoting the whole config.
BitonicConfig parseBitonicConfig(std::string_view config);

}  // namespace g5r::rtl
