// Command-line option parsing shared by every `g5r <command>`.
#pragma once

#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/parse.hh"

namespace g5r {

/// One command's options. Register each option with its handler, then call
/// parse(). Every command therefore reports the same way: --help (or -h)
/// prints the usage text on stdout and exits 0; an unknown option, a missing
/// value and a value a handler rejects print `g5r <command>: unknown option
/// X`, `missing value for X` and `bad value 'V' for X` on stderr and exit 2.
class ArgParser {
public:
    /// Sees an option's value, or nullopt when it has none; false rejects it.
    using Handler = std::function<bool(std::optional<std::string_view>)>;

    /// @p command names the subcommand in messages ("" for the driver).
    ArgParser(std::string_view command, std::string usage)
        : name_(command.empty() ? "g5r" : "g5r " + std::string{command}),
          usage_(std::move(usage)) {}

    /// `name` sets @p out.
    ArgParser& flag(std::string name, bool& out) {
        return add(std::move(name), Arity::kNone, [&out](auto) { return out = true; });
    }

    /// `name V`, repeatable: @p handler sees each V in order.
    ArgParser& value(std::string name, std::function<bool(std::string_view)> handler) {
        return add(std::move(name), Arity::kRequired,
                   [handler = std::move(handler)](auto v) { return handler(*v); });
    }

    /// `name V` stores V; the last occurrence wins.
    ArgParser& value(std::string name, std::string& out) {
        return value(std::move(name), [&out](std::string_view v) {
            out = v;
            return true;
        });
    }

    /// `name N`: N a decimal integer that fits in @p out (see parseDecimal).
    template <typename T>
    ArgParser& number(std::string name, T& out) {
        return value(std::move(name), [&out](std::string_view v) {
            const auto n = parseDecimal(v, std::numeric_limits<T>::max());
            if (n) out = static_cast<T>(*n);
            return n.has_value();
        });
    }

    /// `name` or `name=V`: @p handler sees nullopt or V.
    ArgParser& optionalValue(std::string name, Handler handler) {
        return add(std::move(name), Arity::kOptional, std::move(handler));
    }

    /// Non-option arguments, in command-line order. Without a handler any
    /// such argument is a usage error.
    ArgParser& positional(std::function<void(std::string_view)> handler) {
        positional_ = std::move(handler);
        return *this;
    }

    ArgParser& positional(std::vector<std::string>& out) {
        return positional([&out](std::string_view v) { out.emplace_back(v); });
    }

    /// Parse argv[first..argc). nullopt: carry on; otherwise the exit status
    /// the command should return.
    std::optional<int> parse(int argc, const char* const* argv, int first = 1) const {
        for (int i = first; i < argc; ++i) {
            const std::string_view arg{argv[i]};
            if (arg == "--help" || arg == "-h") {
                std::cout << usage_;
                return 0;
            }
            if (arg.empty() || arg[0] != '-') {
                if (!positional_) return usageError("unexpected argument " + std::string{arg});
                positional_(arg);
                continue;
            }
            std::optional<std::string_view> value;
            const Option* opt = find(arg);
            const std::size_t eq = arg.find('=');
            if (opt == nullptr && eq != std::string_view::npos) {
                opt = find(arg.substr(0, eq));
                if (opt != nullptr && opt->arity != Arity::kOptional) opt = nullptr;
                value = arg.substr(eq + 1);
            }
            if (opt == nullptr) return usageError("unknown option " + std::string{arg});
            if (opt->arity == Arity::kRequired) {
                if (++i >= argc) return usageError("missing value for " + opt->name);
                value = argv[i];
            }
            if (!opt->handler(value)) {
                return usageError("bad value '" + std::string{value.value_or("")} + "' for " +
                                  opt->name);
            }
        }
        return std::nullopt;
    }

    /// `g5r <command>: @p message` on stderr; returns exit status 2.
    int fail(std::string_view message) const {
        std::cerr << name_ << ": " << message << '\n';
        return 2;
    }

    /// With @p message: fail(@p message) plus a pointer to --help. Without:
    /// the usage text on stderr. Returns exit status 2 either way.
    int usageError(std::string_view message = {}) const {
        if (message.empty()) {
            std::cerr << usage_;
        } else {
            fail(message);
            std::cerr << "run '" << name_ << " --help' for usage\n";
        }
        return 2;
    }

private:
    enum class Arity { kNone, kRequired, kOptional };
    struct Option {
        std::string name;
        Arity arity;
        Handler handler;
    };

    ArgParser& add(std::string name, Arity arity, Handler handler) {
        options_.push_back(Option{std::move(name), arity, std::move(handler)});
        return *this;
    }

    const Option* find(std::string_view name) const {
        for (const Option& o : options_) {
            if (o.name == name) return &o;
        }
        return nullptr;
    }

    std::string name_;  ///< "g5r <command>".
    std::string usage_;
    std::vector<Option> options_;
    std::function<void(std::string_view)> positional_;
};

}  // namespace g5r
