// RtlModel: the simulator-side handle to an RTL model behind the C ABI.
//
// Two concrete forms:
//   * ApiRtlModel wraps an in-process G5rRtlModelApi table (unit tests, or
//     statically linked models).
//   * SharedLibModel dlopen()s a model library at runtime — the deployment
//     the paper describes, where gem5 is compiled independently of the
//     Verilator/GHDL toolflows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bridge/rtl_api.h"

namespace g5r {

class RtlModel {
public:
    virtual ~RtlModel() = default;

    virtual const char* modelName() const = 0;
    virtual void reset() = 0;
    virtual void tick(const G5rRtlInput& in, G5rRtlOutput& out) = 0;
    virtual bool traceStart(const std::string& vcdPath) = 0;
    virtual void traceStop() = 0;

    /// ABI revision the model was built against. In-process models are by
    /// definition current; ApiRtlModel reports the loaded table's version.
    virtual std::uint32_t abiVersion() const { return G5R_RTL_ABI_VERSION; }

    /// Whether G5rRtlOutput::idle_hint is meaningful for this model. The
    /// bridge never gates ticks of a pre-v2 model (the field did not exist,
    /// so a stale non-zero byte must not be trusted).
    bool supportsIdleHint() const { return abiVersion() >= G5R_RTL_ABI_IDLE_HINT; }

    /// Whether G5rRtlOutput::quiet_hint is meaningful and the model folds
    /// G5rRtlInput::skipped_cycles (ABI v3). An older model is never handed
    /// skipped cycles.
    bool supportsQuietHint() const { return abiVersion() >= G5R_RTL_ABI_QUIET_HINT; }
};

/// Wraps an API table + instance without owning any library handle.
class ApiRtlModel : public RtlModel {
public:
    /// Throws std::runtime_error on ABI mismatch or failed create().
    ApiRtlModel(const G5rRtlModelApi* api, const std::string& config);
    ~ApiRtlModel() override;
    ApiRtlModel(const ApiRtlModel&) = delete;
    ApiRtlModel& operator=(const ApiRtlModel&) = delete;

    const char* modelName() const override { return api_->name; }
    std::uint32_t abiVersion() const override { return api_->abi_version; }
    void reset() override { api_->reset(instance_); }
    void tick(const G5rRtlInput& in, G5rRtlOutput& out) override {
        api_->tick(instance_, &in, &out);
    }
    bool traceStart(const std::string& vcdPath) override {
        return api_->trace_start != nullptr &&
               api_->trace_start(instance_, vcdPath.c_str()) == 0;
    }
    void traceStop() override {
        if (api_->trace_stop != nullptr) api_->trace_stop(instance_);
    }

private:
    const G5rRtlModelApi* api_;
    void* instance_;
};

/// Loads a model shared library (dlopen) and instantiates the model.
class SharedLibModel final : public ApiRtlModel {
public:
    /// Throws std::runtime_error when the library or symbol is missing.
    static std::unique_ptr<SharedLibModel> load(const std::string& libraryPath,
                                                const std::string& config);
    ~SharedLibModel() override;

private:
    SharedLibModel(void* dlHandle, const G5rRtlModelApi* api, const std::string& config);
    void* dlHandle_;
};

}  // namespace g5r
