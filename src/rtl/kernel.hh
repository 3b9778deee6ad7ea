// RTL simulation kernel: the contract Verilator-generated C++ fulfils.
//
// Verilator turns a Verilog design into a C++ class with `eval()` semantics:
// reading inputs and current register state, computing next state, and
// latching on the clock edge. This kernel reproduces that contract for
// hand-written cycle-accurate models (the paper's PMU and NVDLA stand-ins):
//
//   * Reg<T>: a flip-flop with separate current (q) and next (d) values.
//     Reads during eval() observe q; writes set d; the kernel latches all
//     registers after eval(), giving race-free two-phase semantics. The
//     values live zero-extended in RegBase's plain q/d/reset fields, so a
//     latch is a field copy with no virtual dispatch, as in Verilator.
//   * Module: a named hierarchy node. evalComb() computes next state;
//     tick() = evalComb() + latch of every register in the subtree.
//   * Registers self-register with their owning module, which also gives
//     the VCD tracer a complete signal inventory for free.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace g5r::rtl {

class Module;

/// Untyped view of one flip-flop: what the kernel loops, VCD and lint read.
class RegBase {
public:
    RegBase(Module& owner, std::string name, unsigned widthBits, std::uint64_t resetBits);
    RegBase(const RegBase&) = delete;
    RegBase& operator=(const RegBase&) = delete;

    const std::string& name() const { return name_; }
    unsigned width() const { return width_; }
    std::uint64_t valueBits() const { return q_; }

    /// q <- d at once, outside any clock edge (e.g. a config write that
    /// takes effect immediately). Not counted as a latched edge.
    void latch() { q_ = d_; }

protected:
    std::uint64_t q_;
    std::uint64_t d_;

private:
    friend class Module;
    std::uint64_t reset_;
    std::string name_;
    unsigned width_;
};

/// A register of up to 64 bits. Construct as a member of a Module.
template <typename T>
class Reg final : public RegBase {
    static_assert(std::is_unsigned_v<T> && sizeof(T) <= 8, "Reg<T> is up to 64 unsigned bits");

public:
    Reg(Module& owner, std::string name, unsigned widthBits = sizeof(T) * 8,
        T resetValue = T{})
        : RegBase(owner, std::move(name), widthBits, resetValue) {}

    /// Current (latched) value — what downstream logic sees this cycle.
    T q() const { return static_cast<T>(q_); }
    operator T() const { return q(); }

    /// Next value, applied at the coming clock edge.
    void setD(T v) { d_ = v; }
    T d() const { return static_cast<T>(d_); }

    /// Convenience: keep current value unless overwritten later in eval().
    void hold() { d_ = q_; }
};

/// A node in the design hierarchy.
class Module {
public:
    explicit Module(std::string name, Module* parent = nullptr);
    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;
    virtual ~Module() = default;

    const std::string& name() const { return name_; }
    const std::vector<Module*>& children() const { return children_; }
    const std::vector<RegBase*>& registers() const { return registers_; }

    /// Clock edges latched by tick()/commitCycle() here or above; immediate
    /// RegBase::latch() calls do not count. Read by G5R-KRNL-NEVER-LATCHED.
    std::uint64_t latchCount() const { return latchCount_; }

    /// Combinational evaluation: read q values and inputs, write d values.
    /// Default holds every register; override in leaf modules.
    virtual void evalComb();

    /// One clock edge for this subtree: eval everything, then latch.
    void tick();

    /// For procedurally driven models (state machines written in C++ rather
    /// than as evalComb overrides): beginCycle() arms every register with
    /// hold-by-default, the caller then setD()s what changes, and
    /// commitCycle() latches the edge.
    void beginCycle();
    void commitCycle();

    /// Synchronous reset of every register in the subtree.
    void reset();

private:
    friend class RegBase;
    void evalSubtree();
    void latchSubtree();

    std::string name_;
    std::vector<Module*> children_;
    std::vector<RegBase*> registers_;
    std::uint64_t latchCount_ = 0;
};

}  // namespace g5r::rtl
