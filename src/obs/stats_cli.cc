#include "obs/stats_cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "exp/json.hh"
#include "obs/metrics.hh"
#include "sim/args.hh"

namespace g5r::obs {

namespace {

// Integer members that are sweep-configuration knobs, not measurements:
// they contribute to a point's identity and are excluded from comparison.
constexpr const char* kConfigIntKeys[] = {"accelerators", "maxInflight", "baseElems",
                                          "rep", "intervalCycles"};

bool isConfigIntKey(std::string_view key) {
    for (const char* k : kConfigIntKeys) {
        if (key == k) return true;
    }
    return false;
}

/// Host-dependent (or free-text) metric paths that must not gate CI.
bool isExcludedMetric(std::string_view path) {
    if (path == "wallSeconds" || path == "sweepWallSeconds") return true;
    if (path.size() >= 5 && path.substr(0, 5) == "host.") return true;
    return path.find("profileBuckets") != std::string_view::npos ||
           path.find("error") != std::string_view::npos;
}

/// Identity key of a bench point: its string members plus the whitelisted
/// integer config knobs, in member order.
std::string pointIdentity(const exp::Json& point) {
    std::string id;
    for (const auto& [key, value] : point.members()) {
        const bool take = value.isString() || (value.isNumber() && isConfigIntKey(key));
        if (!take) continue;
        if (key == "error") continue;
        if (!id.empty()) id += ',';
        id += key;
        id += '=';
        id += value.isString() ? value.asString() : value.dump();
    }
    return id;
}

/// Flatten numeric (and bool) leaves of @p node to dotted-path/value pairs.
void flattenNumeric(const exp::Json& node, const std::string& prefix,
                    std::vector<std::pair<std::string, double>>& out) {
    if (node.isNumber()) {
        out.emplace_back(prefix, node.asDouble());
    } else if (node.isBool()) {
        out.emplace_back(prefix, node.asBool() ? 1.0 : 0.0);
    } else if (node.isObject()) {
        for (const auto& [key, value] : node.members()) {
            flattenNumeric(value, prefix.empty() ? key : prefix + "." + key, out);
        }
    } else if (node.isArray()) {
        for (std::size_t i = 0; i < node.items().size(); ++i) {
            flattenNumeric(node.items()[i], prefix + "." + std::to_string(i), out);
        }
    }
}

double resolveThreshold(const StatsDiffOptions& opts, std::string_view metric) {
    for (const MetricThreshold& t : opts.perMetric) {
        if (metric.find(t.match) != std::string_view::npos) return t.threshold;
    }
    return opts.defaultThreshold;
}

/// Compare one metric pair and append a violation if out of threshold.
void compareMetric(const StatsDiffOptions& opts, const std::string& pointId,
                   const std::string& metric, double base, double cur,
                   StatsDiffReport& report) {
    ++report.metricsCompared;
    const double absDelta = std::abs(cur - base);
    if (absDelta < 1e-12) return;
    const double rel = absDelta / std::max(std::abs(base), 1e-9);
    const double threshold = resolveThreshold(opts, metric);
    if (rel <= threshold) return;
    report.violations.push_back(
        StatsDiffViolation{pointId, metric, base, cur, rel, threshold, ""});
}

}  // namespace

StatsDiffReport diffBenchDocuments(const exp::Json& baseline, const exp::Json& current,
                                   const StatsDiffOptions& opts) {
    StatsDiffReport report;
    if (!baseline.isObject() || !baseline.contains("points") ||
        !baseline.at("points").isArray()) {
        report.error = "baseline is not a BENCH document (no points array)";
        return report;
    }
    if (!current.isObject() || !current.contains("points") ||
        !current.at("points").isArray()) {
        report.error = "current is not a BENCH document (no points array)";
        return report;
    }
    if (baseline.contains("bench") && current.contains("bench") &&
        baseline.at("bench").asString() != current.at("bench").asString()) {
        report.error = "bench name mismatch: baseline \"" +
                       baseline.at("bench").asString() + "\" vs current \"" +
                       current.at("bench").asString() + "\"";
        return report;
    }
    report.comparable = true;

    // Index current points by identity (first occurrence wins).
    std::unordered_map<std::string, const exp::Json*> curByIdentity;
    for (const exp::Json& p : current.at("points").items()) {
        curByIdentity.emplace(pointIdentity(p), &p);
    }

    for (const exp::Json& basePoint : baseline.at("points").items()) {
        const std::string id = pointIdentity(basePoint);
        const auto it = curByIdentity.find(id);
        if (it == curByIdentity.end()) {
            report.violations.push_back(
                StatsDiffViolation{id, "", 0, 0, 0, 0, "missing point"});
            continue;
        }
        ++report.pointsCompared;

        std::vector<std::pair<std::string, double>> baseMetrics, curMetrics;
        flattenNumeric(basePoint, "", baseMetrics);
        flattenNumeric(*it->second, "", curMetrics);
        std::unordered_map<std::string_view, double> curByName;
        for (const auto& [name, value] : curMetrics) curByName.emplace(name, value);

        std::unordered_set<std::string_view> baseNames;
        for (const auto& [name, baseValue] : baseMetrics) {
            if (isConfigIntKey(name) || isExcludedMetric(name)) continue;
            baseNames.insert(name);
            const auto cit = curByName.find(name);
            if (cit == curByName.end()) {
                report.violations.push_back(
                    StatsDiffViolation{id, name, baseValue, 0, 0, 0, "missing metric"});
                continue;
            }
            compareMetric(opts, id, name, baseValue, cit->second, report);
        }
        for (const auto& [name, curValue] : curMetrics) {
            if (isConfigIntKey(name) || isExcludedMetric(name)) continue;
            if (baseNames.contains(name)) continue;
            report.violations.push_back(
                StatsDiffViolation{id, name, 0, curValue, 0, 0, "unexpected metric"});
        }
    }
    return report;
}

StatsDiffReport diffTimelines(const MetricsTimeline& baseline,
                              const MetricsTimeline& current,
                              const StatsDiffOptions& opts) {
    StatsDiffReport report;
    report.comparable = true;
    report.pointsCompared = 1;

    const std::vector<std::string> baseChannels = baseline.channels();
    const std::vector<std::string> curChannels = current.channels();
    const std::unordered_set<std::string_view> baseSet(baseChannels.begin(),
                                                       baseChannels.end());
    const std::unordered_set<std::string_view> curSet(curChannels.begin(),
                                                      curChannels.end());
    for (const std::string& channel : baseChannels) {
        const double baseValue = baseline.finalValue(channel);
        if (!curSet.contains(channel)) {
            report.violations.push_back(
                StatsDiffViolation{"", channel, baseValue, 0, 0, 0, "missing metric"});
            continue;
        }
        compareMetric(opts, "", channel, baseValue, current.finalValue(channel), report);
    }
    for (const std::string& channel : curChannels) {
        if (baseSet.contains(channel)) continue;
        report.violations.push_back(StatsDiffViolation{
            "", channel, 0, current.finalValue(channel), 0, 0, "unexpected metric"});
    }
    return report;
}

std::string formatStatsDiffReport(const StatsDiffReport& report,
                                  const std::string& baselinePath,
                                  const std::string& currentPath) {
    std::ostringstream os;
    if (!report.comparable) {
        os << "g5r stats: not comparable: " << report.error << '\n';
        return os.str();
    }
    os << "g5r stats diff\n  baseline: " << baselinePath << "\n  current:  " << currentPath
       << '\n';
    for (const StatsDiffViolation& v : report.violations) {
        if (!v.note.empty()) {
            os << "VIOLATION " << v.note;
            if (!v.point.empty()) os << " [" << v.point << ']';
            if (!v.metric.empty()) os << ' ' << v.metric;
            os << '\n';
            continue;
        }
        char buf[160];
        std::snprintf(buf, sizeof buf, "VIOLATION %s: %.6g -> %.6g (%+.1f%%, limit %.0f%%)",
                      v.metric.c_str(), v.baseline, v.current,
                      100.0 * (v.current - v.baseline) /
                          std::max(std::abs(v.baseline), 1e-9),
                      100.0 * v.threshold);
        os << buf;
        if (!v.point.empty()) os << "  [" << v.point << ']';
        os << '\n';
    }
    os << (report.violations.empty() ? "OK" : "FAIL") << ": " << report.pointsCompared
       << " points, " << report.metricsCompared << " metrics compared, "
       << report.violations.size() << " violation(s)\n";
    return os.str();
}

std::string renderTimeline(const MetricsTimeline& timeline,
                           const std::string& channelFilter, std::size_t maxChannels) {
    std::ostringstream os;
    os << "timeline: run=\"" << timeline.run << "\" interval=" << timeline.intervalTicks
       << " ticks, " << timeline.samples.size() << " samples, end tick "
       << timeline.endTick << '\n';

    static constexpr char kGlyphs[] = " .:-=+*#%@";
    static constexpr std::size_t kWidth = 60;
    std::size_t shown = 0;
    std::size_t matched = 0;
    for (const std::string& channel : timeline.channels()) {
        if (!channelFilter.empty() && channel.find(channelFilter) == std::string::npos) {
            continue;
        }
        ++matched;
        if (maxChannels != 0 && shown >= maxChannels) continue;
        ++shown;

        const auto series = timeline.series(channel);
        double lo = 0.0, hi = 0.0;
        for (const auto& [tick, value] : series) {
            lo = std::min(lo, value);
            hi = std::max(hi, value);
        }
        // Resample the series onto a fixed-width strip: each column shows
        // the last value at or before its share of the sample range.
        std::string strip(kWidth, ' ');
        if (!series.empty() && hi > lo) {
            for (std::size_t col = 0; col < kWidth; ++col) {
                const std::size_t idx =
                    std::min(series.size() - 1, col * series.size() / kWidth);
                const double norm = (series[idx].second - lo) / (hi - lo);
                const std::size_t glyph = static_cast<std::size_t>(
                    norm * (sizeof kGlyphs - 2));
                strip[col] = kGlyphs[std::min<std::size_t>(glyph, sizeof kGlyphs - 2)];
            }
        }
        char head[192];
        std::snprintf(head, sizeof head, "%-48s |%s| final %.6g\n", channel.c_str(),
                      strip.c_str(), series.empty() ? 0.0 : series.back().second);
        os << head;
    }
    if (maxChannels != 0 && matched > shown) {
        os << "... " << (matched - shown) << " more channel(s) hidden (--max)\n";
    }
    return os.str();
}

std::string renderBenchPercentiles(const exp::Json& doc) {
    std::ostringstream os;
    if (!doc.isObject() || !doc.contains("points") || !doc.at("points").isArray()) {
        return "no points array\n";
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-44s %10s %10s %10s %10s %10s %10s\n", "point/master",
                  "count", "min", "mean", "p50", "p99", "max");
    os << buf;
    for (const exp::Json& point : doc.at("points").items()) {
        if (!point.contains("memLatency") || !point.at("memLatency").isObject()) continue;
        const std::string id = pointIdentity(point);
        os << id << '\n';
        for (const auto& [suffix, lat] : point.at("memLatency").members()) {
            if (!lat.isObject()) continue;
            const auto get = [&lat](const char* key) {
                return lat.contains(key) ? lat.at(key).asDouble() : 0.0;
            };
            std::snprintf(buf, sizeof buf,
                          "  %-42s %10.0f %10.0f %10.1f %10.0f %10.0f %10.0f\n",
                          suffix.c_str(), get("count"), get("minTicks"), get("meanTicks"),
                          get("p50Ticks"), get("p99Ticks"), get("maxTicks"));
            os << buf;
        }
        if (point.contains("memLatencyP50")) {
            std::snprintf(buf, sizeof buf, "  %-42s %43s p50 %-10.0f p99 %-10.0f\n",
                          "(merged)", "", point.at("memLatencyP50").asDouble(),
                          point.contains("memLatencyP99")
                              ? point.at("memLatencyP99").asDouble()
                              : 0.0);
            os << buf;
        }
        // dmaSpm-path extras: per-descriptor DMA latency percentiles and the
        // SPM hit/miss/MSHR counters, when the point carries them.
        if (point.contains("dmaLatencyP50")) {
            const auto get = [&point](const char* key) {
                return point.contains(key) ? point.at(key).asDouble() : 0.0;
            };
            std::snprintf(buf, sizeof buf,
                          "  %-42s %10.0f %10s %10s %10.0f %10.0f %10.0f\n",
                          "dma.descriptorLatency", get("dmaDescriptors"), "-", "-",
                          get("dmaLatencyP50"), get("dmaLatencyP99"),
                          get("dmaLatencyMax"));
            os << buf;
            std::snprintf(buf, sizeof buf,
                          "  %-42s hits %-10.0f misses %-10.0f mshrJoins %-10.0f\n",
                          "spm.reads", get("spmReadHits"), get("spmReadMisses"),
                          get("spmMshrJoins"));
            os << buf;
        }
    }
    return os.str();
}

namespace {

constexpr const char* kUsage =
    "usage: g5r stats <command> ...\n"
    "  g5r stats timeline <file.metrics.jsonl> [--channel SUBSTR] [--max N]\n"
    "      render a GEM5RTL_METRICS timeline as per-channel strips\n"
    "  g5r stats percentiles <BENCH_*.json | file.metrics.jsonl>\n"
    "      print latency percentile tables\n"
    "  g5r stats diff <baseline> <current> [--threshold F] [--metric NAME[=F]]\n"
    "      compare two BENCH_*.json documents or two metrics timelines;\n"
    "      exit 1 when any metric moves more than its relative threshold\n"
    "      (default 0.25; --metric NAME=F overrides metrics containing NAME)\n";

/// A relative threshold: the whole of @p text must parse as a number >= 0,
/// so NaN, negatives and trailing characters are rejected.
bool parseThreshold(const std::string& text, double& out) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(v >= 0.0)) return false;
    out = v;
    return true;
}

/// What kind of stats file is this? BENCH documents are one JSON object;
/// timelines are JSONL whose first line carries the g5rMetrics marker.
enum class FileKind { kBench, kTimeline };

FileKind sniffKind(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::string firstLine;
    std::getline(in, firstLine);
    return firstLine.find("\"g5rMetrics\"") != std::string::npos ? FileKind::kTimeline
                                                                 : FileKind::kBench;
}

exp::Json loadBench(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
        return exp::Json::parse(buffer.str());
    } catch (const std::exception& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

StatsDiffReport diffFiles(const std::string& basePath, const std::string& curPath,
                          const StatsDiffOptions& opts) {
    const FileKind kind = sniffKind(basePath);
    if (sniffKind(curPath) != kind) {
        throw std::runtime_error("cannot diff a BENCH document against a timeline");
    }
    if (kind == FileKind::kBench) {
        return diffBenchDocuments(loadBench(basePath), loadBench(curPath), opts);
    }
    return diffTimelines(readMetricsTimeline(basePath), readMetricsTimeline(curPath), opts);
}

void printPercentiles(const std::string& path) {
    if (sniffKind(path) == FileKind::kBench) {
        std::cout << renderBenchPercentiles(loadBench(path));
        return;
    }
    // Timelines: the percentile channels are first-class; show them.
    const MetricsTimeline tl = readMetricsTimeline(path);
    for (const std::string& channel : tl.channels()) {
        const auto tail = channel.rfind('.');
        const std::string suffix = tail == std::string::npos ? channel : channel.substr(tail);
        if (suffix != ".p50" && suffix != ".p99" && suffix != ".p999") continue;
        std::printf("%-64s %14.6g\n", channel.c_str(), tl.finalValue(channel));
    }
}

}  // namespace

int statsCliMain(int argc, const char* const* argv) {
    const std::string cmd = argc > 1 ? argv[1] : "";
    std::vector<std::string> paths;
    std::string filter;
    std::size_t maxChannels = 32;
    StatsDiffOptions opts;
    // Bare --metric NAME entries take the final --threshold, wherever it
    // appears on the command line.
    std::vector<std::size_t> bareMetrics;
    std::size_t wantPaths = 0;

    ArgParser args{"stats", kUsage};
    args.positional(paths);
    if (cmd == "timeline") {
        args.value("--channel", filter).number("--max", maxChannels);
        wantPaths = 1;
    } else if (cmd == "percentiles") {
        wantPaths = 1;
    } else if (cmd == "diff") {
        args.value("--threshold",
                   [&](std::string_view v) {
                       return parseThreshold(std::string{v}, opts.defaultThreshold);
                   })
            .value("--metric", [&](std::string_view spec) {
                const auto eq = spec.find('=');
                MetricThreshold t;
                t.match = spec.substr(0, eq);
                if (eq == std::string_view::npos) {
                    bareMetrics.push_back(opts.perMetric.size());
                } else if (!parseThreshold(std::string{spec.substr(eq + 1)}, t.threshold)) {
                    return false;
                }
                opts.perMetric.push_back(std::move(t));
                return true;
            });
        wantPaths = 2;
    }
    // Without a known command everything after "stats" goes through the
    // parser, so --help still answers; any other argument is a usage error.
    if (const auto exit = args.parse(argc, argv, wantPaths > 0 ? 2 : 1)) return *exit;
    if (wantPaths == 0) return args.usageError(cmd.empty() ? "" : "unknown command " + cmd);
    if (paths.size() != wantPaths) return args.usageError();
    for (const std::size_t idx : bareMetrics) {
        opts.perMetric[idx].threshold = opts.defaultThreshold;
    }

    try {
        if (cmd == "timeline") {
            std::cout << renderTimeline(readMetricsTimeline(paths[0]), filter, maxChannels);
            return 0;
        }
        if (cmd == "percentiles") {
            printPercentiles(paths[0]);
            return 0;
        }
        const StatsDiffReport report = diffFiles(paths[0], paths[1], opts);
        std::cout << formatStatsDiffReport(report, paths[0], paths[1]);
        if (!report.comparable) return 2;
        return report.violations.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        return args.fail(e.what());
    }
}

}  // namespace g5r::obs
