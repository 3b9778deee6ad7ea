// Locating and loading the RTL model shared libraries at runtime.
//
// Models live in <build>/models (the path is baked in at compile time and
// can be overridden with the G5R_MODEL_DIR environment variable), and are
// loaded with dlopen through SharedLibModel — the paper's deployment, where
// the simulator binary has no link-time knowledge of any model.
#pragma once

#include <cstdlib>
#include <memory>
#include <string>

#include "bridge/rtl_model.hh"
#include "rtl/netlist.hh"

#ifndef G5R_MODEL_DIR
#define G5R_MODEL_DIR "./models"
#endif

namespace g5r {

inline std::string rtlModelDir() {
    if (const char* env = std::getenv("G5R_MODEL_DIR")) return env;
    return G5R_MODEL_DIR;
}

inline std::string rtlModelPath(const std::string& shortName) {
    return rtlModelDir() + "/lib" + shortName + "_rtl.so";
}

/// Path of a `g5r netlistc` compiled model library (lib<name>_c<n>.so).
inline std::string compiledNetlistModelPath(const std::string& shortName,
                                            unsigned n) {
    return rtlModelDir() + "/lib" + shortName + "_c" + std::to_string(n) + ".so";
}

/// Resolve the library for a model + config pair: the interpreted model by
/// default, the netlistc-compiled one when the config carries eval=compiled.
/// Only the bitonic model reads a config, so every config is parsed with
/// rtl::parseBitonicConfig, which throws on a malformed one.
inline std::string rtlModelPathForConfig(const std::string& shortName,
                                         const std::string& config) {
    const rtl::BitonicConfig parsed = rtl::parseBitonicConfig(config);
    return parsed.compiled ? compiledNetlistModelPath(shortName, parsed.n)
                           : rtlModelPath(shortName);
}

/// Load "pmu", "nvdla" or "bitonic" (or any model following the naming
/// convention) from the model directory. A config carrying eval=compiled
/// loads the netlistc-built library instead of the interpreted one.
inline std::unique_ptr<RtlModel> loadRtlModel(const std::string& shortName,
                                              const std::string& config = "") {
    return SharedLibModel::load(rtlModelPathForConfig(shortName, config), config);
}

}  // namespace g5r
