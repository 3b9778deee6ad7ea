#include "obs/options.hh"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "sim/parse.hh"

namespace g5r::obs {

namespace {

/// Overlay the positive integer in environment variable @p name onto @p out.
/// Unset or empty keeps @p out; anything else that is not a whole decimal
/// number in [1, max of T] exits 2 naming the variable, as GEM5RTL_JOBS does.
template <typename T>
void overlayPositive(const char* name, T& out) {
    const char* env = std::getenv(name);
    if (env == nullptr || env[0] == '\0') return;
    const auto value = parseDecimal(env, std::numeric_limits<T>::max());
    if (!value || *value == 0) {
        std::fprintf(stderr, "invalid %s '%s': expected a positive integer\n", name, env);
        std::exit(2);
    }
    out = static_cast<T>(*value);
}

}  // namespace

ObsOptions ObsOptions::fromEnv() { return fromEnv(ObsOptions{}); }

ObsOptions ObsOptions::fromEnv(ObsOptions base) {
    if (const char* env = std::getenv("GEM5RTL_TRACE")) {
        const std::string_view v{env};
        if (v.empty() || v == "0") {
            base.traceEnabled = false;
        } else {
            base.traceEnabled = true;
            if (v != "1") base.traceDir = std::string{v};
        }
    }
    if (const char* env = std::getenv("GEM5RTL_PROFILE")) {
        const std::string_view v{env};
        base.profileEnabled = !v.empty() && v != "0";
    }
    overlayPositive("GEM5RTL_PROFILE_STRIDE", base.profileStride);
    overlayPositive("GEM5RTL_TRACE_INTERVAL", base.counterIntervalTicks);
    if (const char* env = std::getenv("GEM5RTL_RECORD")) {
        const std::string_view v{env};
        if (v.empty() || v == "0") {
            base.recordEnabled = false;
        } else {
            base.recordEnabled = true;
            if (v != "1") base.recordDir = std::string{v};
        }
    }
    overlayPositive("GEM5RTL_RECORD_INTERVAL", base.recordIntervalTicks);
    if (const char* env = std::getenv("GEM5RTL_METRICS")) {
        const std::string_view v{env};
        if (v.empty() || v == "0") {
            base.metricsEnabled = false;
        } else {
            base.metricsEnabled = true;
            if (v != "1") base.metricsDir = std::string{v};
        }
    }
    overlayPositive("GEM5RTL_METRICS_INTERVAL", base.metricsIntervalTicks);
    if (const char* env = std::getenv("GEM5RTL_REQTRACE")) {
        const std::string_view v{env};
        if (v.empty() || v == "0") {
            base.reqtraceEnabled = false;
        } else {
            base.reqtraceEnabled = true;
            if (v != "1") base.reqtraceDir = std::string{v};
        }
    }
    return base;
}

}  // namespace g5r::obs
