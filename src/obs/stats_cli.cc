#include "obs/stats_cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "exp/json.hh"
#include "obs/metrics.hh"
#include "sim/parse.hh"

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
        os << "g5r-stats: not comparable: " << report.error << '\n';
        return os.str();
    }
    os << "g5r-stats diff\n  baseline: " << baselinePath << "\n  current:  " << currentPath
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

int usage() {
    std::cerr
        << "usage: g5r-stats <command> ...\n"
           "  g5r-stats timeline <file.metrics.jsonl> [--channel SUBSTR] [--max N]\n"
           "      render a GEM5RTL_METRICS timeline as per-channel strips\n"
           "  g5r-stats percentiles <BENCH_*.json | file.metrics.jsonl>\n"
           "      print latency percentile tables\n"
           "  g5r-stats diff <baseline> <current> [--threshold F] [--metric NAME[=F]]\n"
           "      compare two BENCH_*.json documents or two metrics timelines;\n"
           "      exit 1 when any metric moves more than its relative threshold\n"
           "      (default 0.25; --metric NAME=F overrides metrics containing NAME)\n";
    return 2;
}

/// A relative threshold: the whole of @p text must parse as a number >= 0,
/// so NaN, negatives and trailing characters are rejected.
bool parseThreshold(const char* text, double& out) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0)) return false;
    out = v;
    return true;
}

/// What kind of stats file is this? BENCH documents are one JSON object;
/// timelines are JSONL whose first line carries the g5rMetrics marker.
enum class FileKind { kBench, kTimeline, kUnknown };

FileKind sniffKind(const std::string& path, std::string& error) {
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return FileKind::kUnknown;
    }
    std::string firstLine;
    std::getline(in, firstLine);
    if (firstLine.find("\"g5rMetrics\"") != std::string::npos) return FileKind::kTimeline;
    return FileKind::kBench;
}

bool loadBench(const std::string& path, exp::Json& doc, std::string& error) {
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
        doc = exp::Json::parse(buffer.str());
    } catch (const std::exception& e) {
        error = path + ": " + e.what();
        return false;
    }
    return true;
}

int runDiff(const std::string& basePath, const std::string& curPath,
            const StatsDiffOptions& opts) {
    std::string error;
    const FileKind baseKind = sniffKind(basePath, error);
    if (baseKind == FileKind::kUnknown) {
        std::cerr << "g5r-stats: " << error << '\n';
        return 2;
    }
    const FileKind curKind = sniffKind(curPath, error);
    if (curKind == FileKind::kUnknown) {
        std::cerr << "g5r-stats: " << error << '\n';
        return 2;
    }
    if (baseKind != curKind) {
        std::cerr << "g5r-stats: cannot diff a BENCH document against a timeline\n";
        return 2;
    }

    StatsDiffReport report;
    if (baseKind == FileKind::kBench) {
        exp::Json base, cur;
        if (!loadBench(basePath, base, error) || !loadBench(curPath, cur, error)) {
            std::cerr << "g5r-stats: " << error << '\n';
            return 2;
        }
        report = diffBenchDocuments(base, cur, opts);
    } else {
        try {
            const MetricsTimeline base = readMetricsTimeline(basePath);
            const MetricsTimeline cur = readMetricsTimeline(curPath);
            report = diffTimelines(base, cur, opts);
        } catch (const std::exception& e) {
            std::cerr << "g5r-stats: " << e.what() << '\n';
            return 2;
        }
    }
    std::cout << formatStatsDiffReport(report, basePath, curPath);
    if (!report.comparable) return 2;
    return report.violations.empty() ? 0 : 1;
}

}  // namespace

int statsCliMain(int argc, const char* const* argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];

    if (cmd == "timeline") {
        std::string path, filter;
        std::size_t maxChannels = 32;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--channel") == 0 && i + 1 < argc) {
                filter = argv[++i];
            } else if (std::strcmp(argv[i], "--max") == 0 && i + 1 < argc) {
                const auto max = parseDecimal(argv[++i]);
                if (!max) return usage();
                maxChannels = static_cast<std::size_t>(*max);
            } else if (argv[i][0] == '-') {
                return usage();
            } else if (path.empty()) {
                path = argv[i];
            } else {
                return usage();
            }
        }
        if (path.empty()) return usage();
        try {
            std::cout << renderTimeline(readMetricsTimeline(path), filter, maxChannels);
        } catch (const std::exception& e) {
            std::cerr << "g5r-stats: " << e.what() << '\n';
            return 2;
        }
        return 0;
    }

    if (cmd == "percentiles") {
        if (argc != 3) return usage();
        const std::string path = argv[2];
        std::string error;
        const FileKind kind = sniffKind(path, error);
        if (kind == FileKind::kUnknown) {
            std::cerr << "g5r-stats: " << error << '\n';
            return 2;
        }
        if (kind == FileKind::kBench) {
            exp::Json doc;
            if (!loadBench(path, doc, error)) {
                std::cerr << "g5r-stats: " << error << '\n';
                return 2;
            }
            std::cout << renderBenchPercentiles(doc);
        } else {
            // Timelines: the percentile channels are first-class; show them.
            try {
                const MetricsTimeline tl = readMetricsTimeline(path);
                for (const std::string& channel : tl.channels()) {
                    const auto tail = channel.rfind('.');
                    const std::string suffix =
                        tail == std::string::npos ? channel : channel.substr(tail);
                    if (suffix != ".p50" && suffix != ".p99" && suffix != ".p999") continue;
                    std::printf("%-64s %14.6g\n", channel.c_str(),
                                tl.finalValue(channel));
                }
            } catch (const std::exception& e) {
                std::cerr << "g5r-stats: " << e.what() << '\n';
                return 2;
            }
        }
        return 0;
    }

    if (cmd == "diff") {
        StatsDiffOptions opts;
        std::string basePath, curPath;
        // Bare --metric NAME entries take the final --threshold, wherever
        // it appears on the command line.
        std::vector<std::size_t> bareMetrics;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
                if (!parseThreshold(argv[++i], opts.defaultThreshold)) return usage();
            } else if (std::strcmp(argv[i], "--metric") == 0 && i + 1 < argc) {
                const std::string spec = argv[++i];
                const auto eq = spec.find('=');
                MetricThreshold t;
                t.match = spec.substr(0, eq);
                if (eq == std::string::npos) {
                    bareMetrics.push_back(opts.perMetric.size());
                } else if (!parseThreshold(spec.c_str() + eq + 1, t.threshold)) {
                    return usage();
                }
                opts.perMetric.push_back(std::move(t));
            } else if (argv[i][0] == '-') {
                return usage();
            } else if (basePath.empty()) {
                basePath = argv[i];
            } else if (curPath.empty()) {
                curPath = argv[i];
            } else {
                return usage();
            }
        }
        if (curPath.empty()) return usage();
        for (const std::size_t idx : bareMetrics) {
            opts.perMetric[idx].threshold = opts.defaultThreshold;
        }
        return runDiff(basePath, curPath, opts);
    }

    return usage();
}

}  // namespace g5r::obs
