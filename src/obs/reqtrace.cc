#include "obs/reqtrace.hh"

#include <algorithm>
#include <deque>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exp/json.hh"

namespace g5r::obs {

void StageUnions::add(ReqStage stage, Tick begin, Tick end) {
    lastEnd = std::max(lastEnd, end);
    if (end <= begin) return;
    auto& set = stages[static_cast<unsigned>(stage)];
    if (set.empty() || end >= set.back().second) {
        // Ends at or past the tail: absorb the tail intervals the span
        // overlaps or touches, then append.
        while (!set.empty() && set.back().second >= begin) {
            begin = std::min(begin, set.back().first);
            set.pop_back();
        }
        set.emplace_back(begin, end);
        return;
    }
    // Elsewhere: [first, last) are the intervals the span overlaps or
    // touches; merge them into one, or insert the span if there are none.
    const auto first = std::lower_bound(
        set.begin(), set.end(), begin,
        [](const std::pair<Tick, Tick>& iv, Tick t) { return iv.second < t; });
    const auto last = std::upper_bound(
        first, set.end(), end,
        [](Tick t, const std::pair<Tick, Tick>& iv) { return t < iv.first; });
    if (first == last) {
        set.insert(first, {begin, end});
        return;
    }
    first->first = std::min(first->first, begin);
    first->second = std::max(std::prev(last)->second, end);
    set.erase(std::next(first), last);
}

ReqTraceSession::ReqTraceSession(std::string path, std::string runLabel, bool keepSpans)
    : path_(std::move(path)),
      runLabel_(std::move(runLabel)),
      keepSpans_(keepSpans || !path_.empty()) {
    // File-mode writability is only probed at finish(); until then the
    // session is a pure in-memory collector either way.
    ok_ = true;
}

ReqTraceSession::~ReqTraceSession() { finish(0); }

std::size_t ReqTraceSession::slotFor(ReqId id) {
    if (id >= index_.size()) index_.resize(id + 1, 0);
    if (index_[id] == 0) {
        records_.emplace_back();
        records_.back().id = id;
        records_.back().folded = true;
        index_[id] = records_.size();
    }
    return index_[id] - 1;
}

void ReqTraceSession::onBegin(ReqId id, ReqId parent, const char* kind, Tick when) {
    if (id == 0) return;
    ReqRecord& rec = records_[slotFor(id)];
    rec.parent = parent;
    rec.kind = kind;
    rec.beginTick = when;
}

void ReqTraceSession::onEnd(ReqId id, Tick when) {
    if (id == 0) return;
    ReqRecord& rec = records_[slotFor(id)];
    rec.endTick = when;
    rec.ended = true;
}

void ReqTraceSession::onSpan(ReqId id, ReqStage stage, Tick begin, Tick end) {
    if (id == 0 || end <= begin) return;
    ReqRecord& rec = records_[slotFor(id)];
    if (keepSpans_) rec.spans.push_back(ReqSpan{stage, begin, end});
    rec.unions.add(stage, begin, end);
}

void ReqTraceSession::finish(Tick finalTick) {
    if (finished_) return;
    finished_ = true;

    // Canonicalize: ID-ordered records, (begin, stage, end)-ordered spans.
    // This erases callback-arrival order, which is the only host-order
    // dependent thing about the collection, so the serialized sidecar is
    // identical across --jobs counts and idle-tick gating.
    std::sort(records_.begin(), records_.end(),
              [](const ReqRecord& a, const ReqRecord& b) { return a.id < b.id; });
    for (ReqRecord& rec : records_) {
        std::sort(rec.spans.begin(), rec.spans.end(),
                  [](const ReqSpan& a, const ReqSpan& b) {
                      if (a.begin != b.begin) return a.begin < b.begin;
                      if (a.stage != b.stage) return a.stage < b.stage;
                      return a.end < b.end;
                  });
    }

    if (path_.empty()) return;  // In-memory mode.
    std::ofstream out(path_, std::ios::out | std::ios::trunc);
    ok_ = static_cast<bool>(out);
    if (!ok_) return;

    exp::Json header = exp::Json::object();
    header["g5rReqTrace"] = 1;
    header["schema"] = kSchema;
    header["run"] = runLabel_;
    out << header.dump() << '\n';

    for (const ReqRecord& rec : records_) {
        exp::Json line = exp::Json::object();
        line["id"] = rec.id;
        line["par"] = rec.parent;
        line["kind"] = rec.kind;
        line["b"] = static_cast<std::uint64_t>(rec.beginTick);
        line["e"] = static_cast<std::uint64_t>(rec.ended ? rec.endTick : 0);
        exp::Json spans = exp::Json::array();
        Tick prevBegin = rec.beginTick;
        for (const ReqSpan& span : rec.spans) {
            exp::Json triple = exp::Json::array();
            triple.push(static_cast<std::uint64_t>(span.stage));
            triple.push(static_cast<std::int64_t>(span.begin) -
                        static_cast<std::int64_t>(prevBegin));
            triple.push(static_cast<std::uint64_t>(span.end - span.begin));
            spans.push(std::move(triple));
            prevBegin = span.begin;
        }
        line["spans"] = std::move(spans);
        out << line.dump() << '\n';
    }

    exp::Json footer = exp::Json::object();
    footer["end"] = static_cast<std::uint64_t>(finalTick);
    footer["requests"] = static_cast<std::uint64_t>(records_.size());
    out << footer.dump() << '\n';
    out.flush();
}

// --------------------------------------------------------------- analysis --

ReqTree buildReqTree(const std::vector<ReqRecord>& records) {
    ReqTree tree;
    tree.children.resize(records.size());
    std::vector<std::size_t> slotOf;  // id -> index + 1
    for (std::size_t i = 0; i < records.size(); ++i) {
        const ReqId id = records[i].id;
        if (id >= slotOf.size()) slotOf.resize(id + 1, 0);
        slotOf[id] = i + 1;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
        const ReqId parent = records[i].parent;
        if (parent != 0 && parent < slotOf.size() && slotOf[parent] != 0) {
            tree.children[slotOf[parent] - 1].push_back(i);
        } else {
            tree.roots.push_back(i);
        }
    }
    return tree;
}

std::vector<std::size_t> ReqTree::subtree(std::size_t root) const {
    std::vector<std::size_t> slots{root};
    for (std::size_t i = 0; i < slots.size(); ++i) {
        for (const std::size_t child : children[slots[i]]) slots.push_back(child);
    }
    return slots;
}

namespace {

/// A set of ticks as disjoint, begin-ordered [first, second) intervals.
using Intervals = std::vector<std::pair<Tick, Tick>>;
using IntervalIt = Intervals::const_iterator;

/// Add [b, e) to @p out, whose entries from @p from on are disjoint and
/// begin-ordered with no begin past @p b.
void extend(Intervals& out, std::size_t from, Tick b, Tick e) {
    if (out.size() > from && b <= out.back().second) {
        out.back().second = std::max(out.back().second, e);
    } else {
        out.emplace_back(b, e);
    }
}

/// Append the union of two interval sets to @p out.
void unite(IntervalIt a, IntervalIt aEnd, IntervalIt b, IntervalIt bEnd, Intervals& out) {
    const std::size_t from = out.size();
    while (a != aEnd || b != bEnd) {
        const auto& next = (b == bEnd || (a != aEnd && a->first <= b->first)) ? *a++ : *b++;
        extend(out, from, next.first, next.second);
    }
}

/// Fold the interval sets packed in @p set (set r starts at starts[r]) into
/// one, uniting neighbours pairwise: log2(sets) linear passes.
void uniteRuns(Intervals& set, std::vector<std::size_t>& starts, Intervals& scratch,
               std::vector<std::size_t>& scratchStarts) {
    while (starts.size() > 1) {
        scratch.clear();
        scratchStarts.clear();
        const auto at = [&](std::size_t r) {
            return set.cbegin() + static_cast<std::ptrdiff_t>(
                                      r < starts.size() ? starts[r] : set.size());
        };
        for (std::size_t r = 0; r < starts.size(); r += 2) {
            scratchStarts.push_back(scratch.size());
            unite(at(r), at(r + 1), at(r + 1), at(r + 2), scratch);
        }
        set.swap(scratch);
        starts.swap(scratchStarts);
    }
}

Tick measure(const Intervals& set) {
    Tick sum = 0;
    for (const auto& [b, e] : set) sum += e - b;
    return sum;
}

}  // namespace

BlameSummary computeBlame(const std::vector<ReqRecord>& records) {
    BlameSummary summary;
    const ReqTree tree = buildReqTree(records);

    // Every record's folded unions: its own, or its raw spans folded here.
    std::deque<StageUnions> refolded;  // Stable addresses for unionsOf.
    std::vector<const StageUnions*> unionsOf(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const ReqRecord& rec = records[i];
        if (rec.folded) {
            unionsOf[i] = &rec.unions;
            continue;
        }
        StageUnions& folded = refolded.emplace_back();
        for (const ReqSpan& span : rec.spans) folded.add(span.stage, span.begin, span.end);
        unionsOf[i] = &folded;
    }

    std::array<unsigned, kNumReqStages> byRank{};
    for (unsigned s = 0; s < kNumReqStages; ++s) byRank[s] = s;
    std::sort(byRank.begin(), byRank.end(),
              [](unsigned a, unsigned b) { return kStageRank[a] > kStageRank[b]; });

    // Scratch reused across roots: per stage, the subtree's interval sets
    // (one per record) packed end to end, then their union.
    std::array<Intervals, kNumReqStages> unions;
    std::array<std::vector<std::size_t>, kNumReqStages> starts;
    Intervals scratch;
    Intervals covered;
    std::vector<std::size_t> scratchStarts;

    for (const std::size_t rootIdx : tree.roots) {
        const ReqRecord& root = records[rootIdx];
        RequestBlame blame;
        blame.id = root.id;
        blame.kind = root.kind;
        blame.begin = root.beginTick;

        // The effective end: the explicit end if every piece of work
        // finished before it, else the last subtree activity (a run cut
        // short mid-request still attributes the ticks it simulated).
        const std::vector<std::size_t> subtree = tree.subtree(rootIdx);
        Tick effectiveEnd = root.ended ? root.endTick : root.beginTick;
        for (const std::size_t idx : subtree) {
            const ReqRecord& rec = records[idx];
            if (rec.ended && rec.endTick > effectiveEnd) effectiveEnd = rec.endTick;
            effectiveEnd = std::max(effectiveEnd, unionsOf[idx]->lastEnd);
        }
        blame.end = effectiveEnd;

        // Each record's per-stage unions, clipped to [begin, effectiveEnd]
        // (clipping keeps a union disjoint and begin-ordered).
        for (unsigned s = 0; s < kNumReqStages; ++s) {
            unions[s].clear();
            starts[s].clear();
        }
        for (const std::size_t idx : subtree) {
            for (unsigned s = 0; s < kNumReqStages; ++s) {
                const std::size_t from = unions[s].size();
                for (const auto& [spanBegin, spanEnd] : unionsOf[idx]->stages[s]) {
                    const Tick b = std::max(spanBegin, blame.begin);
                    const Tick e = std::min(spanEnd, effectiveEnd);
                    if (e > b) unions[s].emplace_back(b, e);
                }
                if (unions[s].size() > from) starts[s].push_back(from);
            }
        }

        // Highest rank first: each stage takes the ticks of its union that
        // no higher-ranked stage already covers — the per-tick precedence
        // rule, summed. Whatever no stage covers is unattributed.
        covered.clear();
        Tick coveredTicks = 0;
        for (const unsigned s : byRank) {
            uniteRuns(unions[s], starts[s], scratch, scratchStarts);
            scratch.clear();
            unite(covered.cbegin(), covered.cend(), unions[s].cbegin(), unions[s].cend(),
                  scratch);
            covered.swap(scratch);
            const Tick ticks = measure(covered);
            blame.stageTicks[s] = ticks - coveredTicks;
            coveredTicks = ticks;
        }
        if (effectiveEnd > blame.begin) {
            blame.unattributed = (effectiveEnd - blame.begin) - coveredTicks;
        }

        for (unsigned s = 0; s < kNumReqStages; ++s) summary.stageTicks[s] += blame.stageTicks[s];
        summary.unattributed += blame.unattributed;
        summary.totalTicks += blame.total();
        summary.roots.push_back(std::move(blame));
    }
    return summary;
}

// ---------------------------------------------------------------- reading --

ReqTraceFile readReqTrace(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open request trace: " + path);

    ReqTraceFile file;
    std::string lineText;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    while (std::getline(in, lineText)) {
        ++lineNo;
        if (lineText.empty()) continue;
        exp::Json line;
        try {
            line = exp::Json::parse(lineText);
        } catch (const std::exception& e) {
            std::ostringstream err;
            err << path << ":" << lineNo << ": bad JSONL line: " << e.what();
            throw std::runtime_error(err.str());
        }
        if (!sawHeader) {
            if (!line.isObject() || !line.contains("g5rReqTrace")) {
                throw std::runtime_error(path + ": not a g5r request trace (bad header)");
            }
            file.schema = static_cast<int>(line.at("schema").asInt());
            if (line.contains("run")) file.run = line.at("run").asString();
            sawHeader = true;
            continue;
        }
        if (line.contains("id")) {
            ReqRecord rec;
            rec.id = static_cast<ReqId>(line.at("id").asInt());
            rec.parent = static_cast<ReqId>(line.at("par").asInt());
            rec.kind = line.at("kind").asString();
            rec.beginTick = static_cast<Tick>(line.at("b").asInt());
            rec.endTick = static_cast<Tick>(line.at("e").asInt());
            rec.ended = rec.endTick != 0;
            Tick prevBegin = rec.beginTick;
            for (const exp::Json& triple : line.at("spans").items()) {
                const auto& parts = triple.items();
                const auto stage = static_cast<ReqStage>(parts.at(0).asInt());
                const Tick begin = static_cast<Tick>(static_cast<std::int64_t>(prevBegin) +
                                                     parts.at(1).asInt());
                const Tick dur = static_cast<Tick>(parts.at(2).asInt());
                rec.spans.push_back(ReqSpan{stage, begin, begin + dur});
                prevBegin = begin;
            }
            file.records.push_back(std::move(rec));
        } else if (line.contains("end")) {
            file.endTick = static_cast<Tick>(line.at("end").asInt());
            if (line.contains("requests")) {
                file.declaredRequests = static_cast<std::uint64_t>(line.at("requests").asInt());
            }
        }
    }
    if (!sawHeader) throw std::runtime_error(path + ": empty request trace");
    return file;
}

}  // namespace g5r::obs
