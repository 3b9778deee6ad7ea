#include "bridge/rtl_model.hh"

#include <dlfcn.h>

#include <stdexcept>

namespace g5r {

ApiRtlModel::ApiRtlModel(const G5rRtlModelApi* api, const std::string& config) : api_(api) {
    // A malformed table fails here, before any call into the model.
    // trace_start/trace_stop are optional.
    if (api_ == nullptr) throw std::runtime_error("null RTL model API table");
    if (api_->name == nullptr) throw std::runtime_error("RTL model API table has a null name");
    const std::string model = std::string{"RTL model '"} + api_->name + "'";
    if (api_->abi_version < G5R_RTL_ABI_VERSION_MIN || api_->abi_version > G5R_RTL_ABI_VERSION) {
        throw std::runtime_error(model + " built against ABI v" +
                                 std::to_string(api_->abi_version) + ", simulator accepts v" +
                                 std::to_string(G5R_RTL_ABI_VERSION_MIN) + "..v" +
                                 std::to_string(G5R_RTL_ABI_VERSION));
    }
    if (api_->create == nullptr) throw std::runtime_error(model + " has a null create");
    if (api_->destroy == nullptr) throw std::runtime_error(model + " has a null destroy");
    if (api_->reset == nullptr) throw std::runtime_error(model + " has a null reset");
    if (api_->tick == nullptr) throw std::runtime_error(model + " has a null tick");
    instance_ = api_->create(config.c_str());
    if (instance_ == nullptr) {
        throw std::runtime_error(model + " create() failed (config: " + config + ")");
    }
}

ApiRtlModel::~ApiRtlModel() {
    if (instance_ != nullptr) api_->destroy(instance_);
}

SharedLibModel::SharedLibModel(void* dlHandle, const G5rRtlModelApi* api,
                               const std::string& config)
    : ApiRtlModel(api, config), dlHandle_(dlHandle) {}

std::unique_ptr<SharedLibModel> SharedLibModel::load(const std::string& libraryPath,
                                                     const std::string& config) {
    void* handle = ::dlopen(libraryPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        throw std::runtime_error("dlopen failed for " + libraryPath + ": " + ::dlerror());
    }
    auto getApi = reinterpret_cast<G5rRtlGetApiFn>(::dlsym(handle, G5R_RTL_GET_API_SYMBOL));
    if (getApi == nullptr) {
        ::dlclose(handle);
        throw std::runtime_error(libraryPath + " does not export " G5R_RTL_GET_API_SYMBOL);
    }
    try {
        return std::unique_ptr<SharedLibModel>(
            new SharedLibModel(handle, getApi(), config));
    } catch (...) {
        ::dlclose(handle);
        throw;
    }
}

SharedLibModel::~SharedLibModel() {
    // The ApiRtlModel destructor (instance destroy) runs after this body;
    // unloading the library first would leave it calling into unmapped code.
    // Leak the handle intentionally at process scope instead of dlclosing
    // here — models are loaded once per simulation and live for its whole
    // duration, matching how gem5+rtl keeps the library resident.
}

}  // namespace g5r
