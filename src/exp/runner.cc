#include "exp/runner.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "sim/parse.hh"

namespace g5r::exp {
namespace {

unsigned parsePositive(const char* text, const char* what) {
    const auto value = parseDecimal(text, 4096);
    if (!value || *value == 0) {
        std::fprintf(stderr, "invalid %s '%s': expected an integer in [1, 4096]\n", what,
                     text);
        std::exit(2);
    }
    return static_cast<unsigned>(*value);
}

}  // namespace

unsigned resolveJobs(unsigned requested) {
    if (requested > 0) return requested;
    if (const char* env = std::getenv("GEM5RTL_JOBS")) {
        if (env[0] != '\0') return parsePositive(env, "GEM5RTL_JOBS");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

unsigned parseJobsFlag(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--jobs requires a value\n");
                std::exit(2);
            }
            return parsePositive(argv[i + 1], "--jobs");
        }
        if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            return parsePositive(argv[i] + 7, "--jobs");
        }
    }
    return resolveJobs(0);
}

}  // namespace g5r::exp
