#include "rtl/kernel.hh"

namespace g5r::rtl {

RegBase::RegBase(Module& owner, std::string regName, unsigned widthBits,
                 std::uint64_t resetBits)
    : q_(resetBits), d_(resetBits), reset_(resetBits), name_(std::move(regName)),
      width_(widthBits) {
    // Zero-width registers are accepted here and rejected by the static
    // analysis pass instead (G5R-KRNL-ZERO-WIDTH), so lint can report every
    // problem in a design at once rather than aborting on the first.
    simAssert(widthBits <= 64, "register wider than 64 bits");
    owner.registers_.push_back(this);
}

Module::Module(std::string moduleName, Module* parent) : name_(std::move(moduleName)) {
    if (parent != nullptr) parent->children_.push_back(this);
}

void Module::evalComb() {}

void Module::evalSubtree() {
    // Hold-by-default: every register's d starts from q, so evalComb() only
    // has to write the registers it actually changes this cycle.
    for (RegBase* reg : registers_) reg->d_ = reg->q_;
    evalComb();
    for (Module* child : children_) child->evalSubtree();
}

void Module::latchSubtree() {
    for (RegBase* reg : registers_) reg->q_ = reg->d_;
    ++latchCount_;
    for (Module* child : children_) child->latchSubtree();
}

void Module::tick() {
    evalSubtree();
    latchSubtree();
}

void Module::beginCycle() {
    for (RegBase* reg : registers_) reg->d_ = reg->q_;
    for (Module* child : children_) child->beginCycle();
}

void Module::commitCycle() { latchSubtree(); }

void Module::reset() {
    for (RegBase* reg : registers_) reg->q_ = reg->d_ = reg->reset_;
    for (Module* child : children_) child->reset();
}

}  // namespace g5r::rtl
