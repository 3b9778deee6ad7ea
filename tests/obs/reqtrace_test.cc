// Request-level causal tracing: sidecar format round-trip, the
// sums-to-100% blame invariant, overlap precedence, in-memory mode,
// computeBlame against a per-tick oracle on random span forests, blame of
// spans folded on arrival against blame of a sidecar read back, the trace
// sink's raw spans and request events, the `g5r critpath` CLI, and the ObsOptions environment overlay (including the
// combined multi-variable precedence case).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "exp/json.hh"
#include "obs/critpath_cli.hh"
#include "obs/options.hh"
#include "obs/reqtrace.hh"
#include "obs/session.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace g5r::obs {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in{path};
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// A small but representative tree: one root job with a DMA child, spans
/// overlapping across stages, reported deliberately out of order.
void populate(ReqTraceSession& session) {
    session.onBegin(7, 3, "dmaPrefetch", 1'000);        // Child arrives first.
    session.onSpan(7, ReqStage::kDmaStage, 1'000, 5'000);
    session.onBegin(3, 0, "nvdlaJob", 0);
    session.onSpan(3, ReqStage::kRtlCompute, 5'000, 9'000);
    session.onSpan(3, ReqStage::kDramService, 6'000, 8'000);
    session.onSpan(3, ReqStage::kHostLoad, 0, 1'000);
    session.onEnd(3, 10'000);
    session.onEnd(7, 5'000);
    session.onSpan(7, ReqStage::kDramService, 2'000, 4'000);
}

TEST(ReqTrace, SidecarRoundTrips) {
    const std::string path = ::testing::TempDir() + "/roundtrip.reqtrace.jsonl";
    {
        ReqTraceSession session{path, "unit"};
        populate(session);
        session.finish(12'345);
        ASSERT_TRUE(session.ok());
    }

    const ReqTraceFile file = readReqTrace(path);
    EXPECT_EQ(file.schema, ReqTraceSession::kSchema);
    EXPECT_EQ(file.run, "unit");
    EXPECT_EQ(file.endTick, 12'345u);
    EXPECT_EQ(file.declaredRequests, 2u);
    ASSERT_EQ(file.records.size(), 2u);

    const ReqRecord& job = file.records[0];
    EXPECT_EQ(job.id, 3u);
    EXPECT_EQ(job.parent, 0u);
    EXPECT_EQ(job.kind, "nvdlaJob");
    EXPECT_EQ(job.beginTick, 0u);
    EXPECT_TRUE(job.ended);
    EXPECT_EQ(job.endTick, 10'000u);
    ASSERT_EQ(job.spans.size(), 3u);
    // Canonical (begin, stage, end) order, delta decoding reversed exactly.
    EXPECT_EQ(job.spans[0].stage, ReqStage::kHostLoad);
    EXPECT_EQ(job.spans[0].begin, 0u);
    EXPECT_EQ(job.spans[0].end, 1'000u);
    EXPECT_EQ(job.spans[1].stage, ReqStage::kRtlCompute);
    EXPECT_EQ(job.spans[1].begin, 5'000u);
    EXPECT_EQ(job.spans[2].stage, ReqStage::kDramService);
    EXPECT_EQ(job.spans[2].end, 8'000u);

    const ReqRecord& dma = file.records[1];
    EXPECT_EQ(dma.id, 7u);
    EXPECT_EQ(dma.parent, 3u);
    EXPECT_EQ(dma.kind, "dmaPrefetch");
    ASSERT_EQ(dma.spans.size(), 2u);
    EXPECT_EQ(dma.spans[0].stage, ReqStage::kDmaStage);
    EXPECT_EQ(dma.spans[1].begin, 2'000u);
    std::remove(path.c_str());
}

TEST(ReqTrace, InMemoryModeWritesNoFile) {
    ReqTraceSession session{"", "inmem"};
    populate(session);
    session.finish(9'999);
    EXPECT_TRUE(session.ok());
    EXPECT_TRUE(session.path().empty());
    EXPECT_EQ(session.requestsRecorded(), 2u);
    // Records are canonical and analysable without any file.
    const BlameSummary blame = computeBlame(session.data());
    ASSERT_EQ(blame.roots.size(), 1u);
    EXPECT_EQ(blame.totalTicks, 10'000u);
}

TEST(ReqTrace, UnopenablePathDegrades) {
    ReqTraceSession session{"/nonexistent-g5r-dir/deep/x.reqtrace.jsonl", "bad"};
    populate(session);
    session.finish(1);
    EXPECT_FALSE(session.ok());
    EXPECT_EQ(session.requestsRecorded(), 2u);  // Data still collected.
}

TEST(ReqTrace, ZeroLengthAndUntaggedSpansAreDropped) {
    ReqTraceSession session{"", "edge"};
    session.onBegin(1, 0, "job", 0);
    session.onSpan(1, ReqStage::kDramService, 500, 500);  // Empty.
    session.onSpan(1, ReqStage::kDramService, 700, 600);  // Inverted.
    session.onSpan(0, ReqStage::kDramService, 0, 100);    // Untagged id 0.
    session.onEnd(1, 1'000);
    session.finish(1'000);
    ASSERT_EQ(session.data().size(), 1u);
    EXPECT_TRUE(session.data()[0].spans.empty());
}

TEST(ReqTrace, BlameSumsTo100PercentPerRoot) {
    ReqTraceSession session{"", "sum"};
    populate(session);
    session.finish(10'000);
    const BlameSummary blame = computeBlame(session.data());
    ASSERT_EQ(blame.roots.size(), 1u);
    const RequestBlame& root = blame.roots[0];
    Tick sum = root.unattributed;
    for (const Tick t : root.stageTicks) sum += t;
    EXPECT_EQ(sum, root.total());
    Tick aggregate = blame.unattributed;
    for (const Tick t : blame.stageTicks) aggregate += t;
    EXPECT_EQ(aggregate, blame.totalTicks);
}

TEST(ReqTrace, OverlapPrecedenceAndChildAttribution) {
    ReqTraceSession session{"", "prec"};
    populate(session);
    session.finish(10'000);
    const BlameSummary blame = computeBlame(session.data());
    const RequestBlame& root = blame.roots[0];

    const auto ticks = [&root](ReqStage s) {
        return root.stageTicks[static_cast<std::size_t>(s)];
    };
    // [0,1000) hostLoad; [1000,5000) the child's dmaStage span owns the
    // staging window outright — the DRAM service of its own traffic
    // ([2000,4000)) is subsumed, not double-counted.
    EXPECT_EQ(ticks(ReqStage::kHostLoad), 1'000u);
    EXPECT_EQ(ticks(ReqStage::kDmaStage), 4'000u);
    // [5000,9000) rtlCompute, except [6000,8000) where the root's own DRAM
    // span outranks it.
    EXPECT_EQ(ticks(ReqStage::kRtlCompute), 2'000u);
    EXPECT_EQ(ticks(ReqStage::kDramService), 2'000u);
    // [9000,10000) nothing is open.
    EXPECT_EQ(root.unattributed, 1'000u);
    EXPECT_EQ(root.total(), 10'000u);
}

TEST(ReqTrace, EffectiveEndCoversLateChildren) {
    // The job ends at 1000 but its drain child works until 4000: the blame
    // window stretches to the last subtree activity.
    ReqTraceSession session{"", "drain"};
    session.onBegin(1, 0, "nvdlaJob", 0);
    session.onEnd(1, 1'000);
    session.onBegin(2, 1, "dmaDrain", 1'000);
    session.onSpan(2, ReqStage::kDrain, 1'000, 4'000);
    session.onEnd(2, 4'000);
    session.finish(4'000);
    const BlameSummary blame = computeBlame(session.data());
    ASSERT_EQ(blame.roots.size(), 1u);
    EXPECT_EQ(blame.roots[0].end, 4'000u);
    EXPECT_EQ(blame.roots[0].stageTicks[static_cast<std::size_t>(ReqStage::kDrain)],
              3'000u);
}

TEST(ReqTrace, NeverEndedRootUsesLastSpan) {
    ReqTraceSession session{"", "cut"};
    session.onBegin(1, 0, "job", 100);
    session.onSpan(1, ReqStage::kXbarQueue, 100, 600);
    session.finish(10'000);  // Run cut short: no requestEnd.
    const BlameSummary blame = computeBlame(session.data());
    ASSERT_EQ(blame.roots.size(), 1u);
    EXPECT_FALSE(session.data()[0].ended);
    EXPECT_EQ(blame.roots[0].end, 600u);
    EXPECT_EQ(blame.totalTicks, 500u);
}

/// Reference blame: every tick of each root's window goes to the
/// highest-ranked subtree span covering it. Subtrees come from walking
/// parent links upward, independently of buildReqTree.
BlameSummary perTickBlame(const std::vector<ReqRecord>& records) {
    std::map<ReqId, std::size_t> slotOf;
    for (std::size_t i = 0; i < records.size(); ++i) slotOf[records[i].id] = i;
    const auto rootOf = [&](std::size_t i) {
        for (;;) {
            const auto it = slotOf.find(records[i].parent);
            if (records[i].parent == 0 || it == slotOf.end()) return i;
            i = it->second;
        }
    };

    BlameSummary summary;
    for (std::size_t r = 0; r < records.size(); ++r) {
        if (rootOf(r) != r) continue;
        std::vector<const ReqRecord*> members;
        for (std::size_t i = 0; i < records.size(); ++i) {
            if (rootOf(i) == r) members.push_back(&records[i]);
        }
        const ReqRecord& root = records[r];
        RequestBlame blame;
        blame.id = root.id;
        blame.kind = root.kind;
        blame.begin = root.beginTick;
        blame.end = root.ended ? root.endTick : root.beginTick;
        for (const ReqRecord* m : members) {
            if (m->ended) blame.end = std::max(blame.end, m->endTick);
            for (const ReqSpan& span : m->spans) blame.end = std::max(blame.end, span.end);
        }
        for (Tick t = blame.begin; t < blame.end; ++t) {
            int best = -1;
            for (const ReqRecord* m : members) {
                for (const ReqSpan& span : m->spans) {
                    const auto s = static_cast<int>(span.stage);
                    if (span.begin <= t && t < span.end &&
                        (best < 0 || kStageRank[s] > kStageRank[best])) {
                        best = s;
                    }
                }
            }
            if (best < 0) {
                ++blame.unattributed;
            } else {
                ++blame.stageTicks[static_cast<std::size_t>(best)];
            }
        }
        for (unsigned s = 0; s < kNumReqStages; ++s) summary.stageTicks[s] += blame.stageTicks[s];
        summary.unattributed += blame.unattributed;
        summary.totalTicks += blame.total();
        summary.roots.push_back(blame);
    }
    return summary;
}

/// A seeded random span forest, in shuffled record and span order. Sparse
/// IDs; roots are parentless or orphaned (parent ID absent); the first
/// three records always form a chain, so trees run at least three deep.
/// Spans overlap and nest within and across stages, start before their
/// root, and some records never end.
std::vector<ReqRecord> randomForest(std::mt19937_64& rng) {
    const auto uniform = [&rng](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>{lo, hi}(rng);
    };
    std::vector<ReqRecord> records(uniform(3, 12));
    std::vector<ReqId> ids(40);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i + 1;
    std::shuffle(ids.begin(), ids.end(), rng);
    for (std::size_t i = 0; i < records.size(); ++i) {
        ReqRecord& rec = records[i];
        rec.id = ids[i];
        rec.kind = strCat('k', i);
        if (i == 1 || i == 2) {
            rec.parent = records[i - 1].id;
        } else if (i > 0 && uniform(0, 9) < 7) {
            rec.parent = records[uniform(0, i - 1)].id;
        } else {
            rec.parent = uniform(0, 1) ? 0 : 1'000 + i;  // Parentless or orphaned.
        }
        rec.beginTick = uniform(0, 120);
        rec.ended = uniform(0, 9) < 7;
        rec.endTick = rec.ended ? rec.beginTick + uniform(0, 150) : 0;
        const std::size_t spans = uniform(0, 8);
        for (std::size_t k = 0; k < spans; ++k) {
            const auto stage = static_cast<ReqStage>(uniform(0, kNumReqStages - 1));
            const Tick b = uniform(0, 220);
            rec.spans.push_back(ReqSpan{stage, b, b + uniform(1, 60)});
            if (uniform(0, 9) < 3) {  // Nested span of the same stage.
                const ReqSpan& outer = rec.spans.back();
                const Tick nb = outer.begin + uniform(0, outer.end - outer.begin - 1);
                rec.spans.push_back(ReqSpan{stage, nb, nb + uniform(1, outer.end - nb)});
            }
        }
        std::shuffle(rec.spans.begin(), rec.spans.end(), rng);
    }
    std::shuffle(records.begin(), records.end(), rng);
    return records;
}

void expectSameBlame(const BlameSummary& got, const BlameSummary& want) {
    ASSERT_EQ(got.roots.size(), want.roots.size());
    for (std::size_t r = 0; r < want.roots.size(); ++r) {
        const RequestBlame& g = got.roots[r];
        const RequestBlame& w = want.roots[r];
        EXPECT_EQ(g.id, w.id);
        EXPECT_EQ(g.kind, w.kind);
        EXPECT_EQ(g.begin, w.begin);
        EXPECT_EQ(g.end, w.end);
        EXPECT_EQ(g.stageTicks, w.stageTicks) << "root " << w.id;
        EXPECT_EQ(g.unattributed, w.unattributed) << "root " << w.id;
    }
    EXPECT_EQ(got.stageTicks, want.stageTicks);
    EXPECT_EQ(got.unattributed, want.unattributed);
    EXPECT_EQ(got.totalTicks, want.totalTicks);
}

TEST(ReqTrace, BlameMatchesPerTickOracleOnRandomForests) {
    std::size_t deepTrees = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng{seed};
        const std::vector<ReqRecord> records = randomForest(rng);

        // Unsorted records and spans, as no finish() would leave them.
        expectSameBlame(computeBlame(records), perTickBlame(records));

        // The same forest through a session: canonical after finish().
        ReqTraceSession session{"", "oracle"};
        for (const ReqRecord& rec : records) {
            session.onBegin(rec.id, rec.parent, rec.kind.c_str(), rec.beginTick);
            for (const ReqSpan& span : rec.spans) {
                session.onSpan(rec.id, span.stage, span.begin, span.end);
            }
            if (rec.ended) session.onEnd(rec.id, rec.endTick);
        }
        session.finish(0);
        expectSameBlame(computeBlame(session.data()), perTickBlame(session.data()));

        const ReqTree tree = buildReqTree(records);
        for (const std::size_t root : tree.roots) {
            for (const std::size_t child : tree.children[root]) {
                for (const std::size_t grandchild : tree.children[child]) {
                    deepTrees += !tree.children[grandchild].empty() ||
                                 !records[grandchild].spans.empty();
                }
            }
        }
    }
    EXPECT_GT(deepTrees, 100u);  // Three-level trees with work at the bottom.
}

/// One observer callback of a request-trace stream.
struct TraceCall {
    enum Kind { kBegin, kSpan, kEnd } kind;
    ReqId id;
    ReqId parent;
    ReqStage stage;
    Tick begin;
    Tick end;
};

/// A random stream of request callbacks as a run delivers them: spans
/// mostly in end order, with touching, nested, zero-length, out-of-order
/// and past-the-root's-end spans mixed in, and arrival shuffled locally
/// (or, for every fourth seed, entirely).
std::vector<TraceCall> randomTraceStream(std::mt19937_64& rng, std::uint64_t seed) {
    const auto uniform = [&rng](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>{lo, hi}(rng);
    };
    std::vector<TraceCall> calls;
    const std::size_t numRecords = uniform(2, 9);
    for (ReqId id = 1; id <= numRecords; ++id) {
        const ReqId parent = id == 1 ? 0 : (uniform(0, 3) == 0 ? 0 : uniform(1, id - 1));
        const Tick begin = uniform(0, 400);
        calls.push_back({TraceCall::kBegin, id, parent, ReqStage::kHostLoad, begin, 0});
        Tick cursor = begin;
        std::vector<std::pair<Tick, Tick>> made;
        const std::size_t numSpans = uniform(0, 60);
        for (std::size_t k = 0; k < numSpans; ++k) {
            const auto stage = static_cast<ReqStage>(uniform(0, kNumReqStages - 1));
            Tick b = 0;
            Tick e = 0;
            switch (uniform(0, 9)) {
            case 0:  // Touching the previous span.
                b = made.empty() ? cursor : made.back().second;
                e = b + uniform(1, 40);
                break;
            case 1:  // Nested in an earlier span.
                if (!made.empty()) {
                    const auto& outer = made[uniform(0, made.size() - 1)];
                    b = outer.first + uniform(0, outer.second - outer.first - 1);
                    e = b + uniform(1, outer.second - b);
                    break;
                }
                [[fallthrough]];
            case 2:  // Anywhere: out of end order, possibly before begin.
                b = uniform(0, cursor + 200);
                e = b + uniform(1, 120);
                break;
            case 3:  // Zero-length or inverted: dropped on arrival.
                b = uniform(0, cursor + 50);
                e = b - std::min<Tick>(b, uniform(0, 3));
                break;
            default:  // End order: ends at or after every earlier one.
                cursor += uniform(0, 30);
                b = cursor - std::min<Tick>(cursor, uniform(0, 90));
                e = cursor;
                break;
            }
            if (e > b) made.emplace_back(b, e);
            calls.push_back({TraceCall::kSpan, id, 0, stage, b, e});
        }
        // Most requests end; some before their last spans (work past the
        // end), some never.
        if (uniform(0, 9) < 8) {
            const Tick end = uniform(0, 2) == 0 ? begin + uniform(0, 100) : cursor + uniform(0, 50);
            calls.push_back({TraceCall::kEnd, id, 0, ReqStage::kHostLoad, end, 0});
        }
    }
    if (seed % 4 == 0) {
        std::shuffle(calls.begin(), calls.end(), rng);
    } else {
        for (std::size_t i = 1; i < calls.size(); ++i) {
            if (uniform(0, 4) == 0) std::swap(calls[i - 1], calls[i]);
        }
    }
    return calls;
}

template <typename Sink>
void replay(const std::vector<TraceCall>& calls, Sink& sink) {
    for (const TraceCall& c : calls) {
        switch (c.kind) {
        case TraceCall::kBegin: sink.onBegin(c.id, c.parent, "k", c.begin); break;
        case TraceCall::kSpan: sink.onSpan(c.id, c.stage, c.begin, c.end); break;
        case TraceCall::kEnd: sink.onEnd(c.id, c.begin); break;
        }
    }
}

// The in-memory session folds spans into per-stage unions as they arrive
// and keeps no span list; a sidecar session writes the raw spans, which
// computeBlame folds after reading them back. Both must blame alike.
TEST(ReqTrace, FoldedBlameEqualsSidecarBlameOnRandomStreams) {
    const std::string path = ::testing::TempDir() + "/fold.reqtrace.jsonl";
    std::size_t spansSeen = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng{seed};
        const std::vector<TraceCall> calls = randomTraceStream(rng, seed);

        ReqTraceSession folded{"", "fold", /*keepSpans=*/false};
        replay(calls, folded);
        folded.finish(0);
        {
            ReqTraceSession sidecar{path, "fold"};
            replay(calls, sidecar);
            sidecar.finish(0);
            ASSERT_TRUE(sidecar.ok());
        }
        const ReqTraceFile file = readReqTrace(path);
        for (const ReqRecord& rec : folded.data()) EXPECT_TRUE(rec.spans.empty());
        for (const ReqRecord& rec : file.records) spansSeen += rec.spans.size();

        const BlameSummary want = computeBlame(file.records);
        expectSameBlame(computeBlame(folded.data()), want);
        expectSameBlame(want, perTickBlame(file.records));
    }
    EXPECT_GT(spansSeen, 2'000u);
    std::remove(path.c_str());
}

/// Feeds a replayed stream into an observer's request hooks.
struct ObserverSink {
    SimObserver& obs;
    void onBegin(ReqId id, ReqId parent, const char* kind, Tick when) {
        obs.requestBegin(id, parent, kind, when);
    }
    void onSpan(ReqId id, ReqStage stage, Tick b, Tick e) { obs.requestSpan(id, stage, b, e); }
    void onEnd(ReqId id, Tick when) { obs.requestEnd(id, when); }
};

/// What an ObsSession left behind for one replayed stream: its request
/// records and its trace file's request events ("request"/"reqstage").
struct SessionOutput {
    std::vector<ReqRecord> records;
    std::vector<std::string> requestEvents;
};

SessionOutput runObsSession(const std::vector<TraceCall>& calls, const std::string& name,
                            const std::string& reqtracePath, bool trace) {
    ObsOptions opts;
    opts.traceEnabled = trace;
    opts.traceDir = ::testing::TempDir();
    opts.reqtraceEnabled = true;
    opts.reqtracePath = reqtracePath;
    Simulation sim;
    const auto session = ObsSession::create(sim, opts, name);
    ObserverSink sink{*session};
    replay(calls, sink);
    session->finish();
    SessionOutput out;
    out.records = session->reqtrace()->data();
    if (trace) {
        std::istringstream lines{slurp(session->trace()->path())};
        for (std::string line; std::getline(lines, line);) {
            if (!line.empty() && line.back() == ',') line.pop_back();
            if (line.find("\"cat\":\"reqstage\"") != std::string::npos ||
                line.find("\"cat\":\"request\"") != std::string::npos) {
                out.requestEvents.push_back(line);
            }
        }
        std::remove(session->trace()->path().c_str());
    }
    return out;
}

using SpanTuple = std::tuple<ReqStage, Tick, Tick>;

std::vector<std::vector<SpanTuple>> spansOf(const std::vector<ReqRecord>& records) {
    std::vector<std::vector<SpanTuple>> out;
    for (const ReqRecord& rec : records) {
        auto& spans = out.emplace_back();
        for (const ReqSpan& span : rec.spans) spans.emplace_back(span.stage, span.begin, span.end);
    }
    return out;
}

// The Perfetto trace reads raw spans, so an in-memory session feeding one
// keeps them, and its request events are the ones a sidecar session's
// trace carries. Without a trace (the DSE harness) no span list is kept.
TEST(ReqTrace, TraceSinkKeepsRawSpansAndRequestEvents) {
    const std::string sidecarPath = ::testing::TempDir() + "/sink.reqtrace.jsonl";
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng{seed};
        const std::vector<TraceCall> calls = randomTraceStream(rng, seed);

        const SessionOutput inMemory = runObsSession(calls, "sink_inmem", "-", true);
        const SessionOutput sidecar = runObsSession(calls, "sink_sidecar", sidecarPath, true);
        const SessionOutput bare = runObsSession(calls, "sink_bare", "-", false);
        const ReqTraceFile file = readReqTrace(sidecarPath);

        EXPECT_EQ(spansOf(inMemory.records), spansOf(file.records));
        std::size_t spans = 0;
        for (const ReqRecord& rec : file.records) spans += rec.spans.size();
        EXPECT_EQ(inMemory.requestEvents.size(), file.records.size() + spans);
        EXPECT_EQ(inMemory.requestEvents, sidecar.requestEvents);
        for (const ReqRecord& rec : bare.records) EXPECT_TRUE(rec.spans.empty());
        expectSameBlame(computeBlame(bare.records), computeBlame(file.records));
    }
    std::remove(sidecarPath.c_str());
}

TEST(ReqTrace, BlameClipsSpansToTheRootWindow) {
    // Spans that start before their root's begin are clipped to it; the
    // window runs to the last span end, past the explicit end, so nothing
    // extends beyond the effective end.
    std::vector<ReqRecord> records(2);
    records[0].id = 1;
    records[0].beginTick = 100;
    records[0].endTick = 150;
    records[0].ended = true;
    records[0].spans = {{ReqStage::kXbarQueue, 40, 130}};
    records[1].id = 2;
    records[1].parent = 1;
    records[1].spans = {{ReqStage::kDrain, 160, 200}, {ReqStage::kHostLoad, 0, 120}};
    const BlameSummary blame = computeBlame(records);
    ASSERT_EQ(blame.roots.size(), 1u);
    const RequestBlame& root = blame.roots[0];
    EXPECT_EQ(root.end, 200u);
    EXPECT_EQ(root.stageTicks[static_cast<std::size_t>(ReqStage::kXbarQueue)], 30u);
    EXPECT_EQ(root.stageTicks[static_cast<std::size_t>(ReqStage::kHostLoad)], 0u);
    EXPECT_EQ(root.stageTicks[static_cast<std::size_t>(ReqStage::kDrain)], 40u);
    EXPECT_EQ(root.unattributed, 30u);
    expectSameBlame(blame, perTickBlame(records));
}

TEST(ReqTrace, BlameReportJsonSharesSumTo100) {
    const std::string path = ::testing::TempDir() + "/shares.reqtrace.jsonl";
    {
        ReqTraceSession session{path, "shares"};
        populate(session);
        session.finish(10'000);
    }
    const ReqTraceFile file = readReqTrace(path);
    const BlameSummary blame = computeBlame(file.records);
    const exp::Json doc = blameReportJson(file, blame);
    double shareSum = 0;
    for (const auto& [stage, share] : doc.at("stageShares").members()) {
        shareSum += share.asDouble();
    }
    EXPECT_NEAR(shareSum, 100.0, 1e-9);
    EXPECT_EQ(doc.at("rootRequests").asInt(), 1);
    EXPECT_EQ(doc.at("totalTicks").asInt(), 10'000);
    std::remove(path.c_str());
}

TEST(ReqTrace, WaterfallRendersPrecedenceGlyphs) {
    ReqTraceSession session{"", "wf"};
    populate(session);
    session.finish(10'000);
    const BlameSummary blame = computeBlame(session.data());
    const std::string wf = renderWaterfall(session.data(), blame, 0, 20);
    // 20 columns over 10k ticks = 500 ticks/column: h h d d d d d d r r
    // r r m m m m r r . .
    EXPECT_NE(wf.find("hhdddddddd"), std::string::npos);
    EXPECT_NE(wf.find("mmmm"), std::string::npos);
    EXPECT_NE(wf.find(".."), std::string::npos);
    EXPECT_NE(wf.find("nvdlaJob"), std::string::npos);
    // Children are folded into their root, not printed as strips.
    EXPECT_EQ(wf.find("dmaPrefetch"), std::string::npos);
}

TEST(ReqTrace, CritpathCliExitCodes) {
    const std::string path = ::testing::TempDir() + "/cli.reqtrace.jsonl";
    {
        ReqTraceSession session{path, "cli"};
        populate(session);
        session.finish(10'000);
    }
    {
        const char* argv[] = {"critpath", "--assert-sum", path.c_str()};
        EXPECT_EQ(critpathCliMain(3, argv), 0);
    }
    {
        const char* argv[] = {"critpath", "--json", path.c_str()};
        EXPECT_EQ(critpathCliMain(3, argv), 0);
    }
    {
        const char* argv[] = {"critpath", "/no/such/file.reqtrace.jsonl"};
        EXPECT_EQ(critpathCliMain(2, argv), 2);
    }
    {
        const char* argv[] = {"critpath"};
        EXPECT_EQ(critpathCliMain(1, argv), 2);  // Usage.
    }
    {
        const char* argv[] = {"critpath", "--bogus", path.c_str()};
        EXPECT_EQ(critpathCliMain(3, argv), 2);
    }
    {
        const char* argv[] = {"critpath", "--waterfall=1", path.c_str()};
        EXPECT_EQ(critpathCliMain(3, argv), 0);
    }
    // A malformed count is a usage error, not 0 ("all roots").
    for (const char* bad : {"--waterfall=abc", "--waterfall=3x", "--waterfall=", "--waterfall=-1"}) {
        const char* argv[] = {"critpath", bad, path.c_str()};
        EXPECT_EQ(critpathCliMain(3, argv), 2) << bad;
    }
    std::remove(path.c_str());
}

// --help goes to stdout with exit 0. The text is streamed, not printf'd, so
// "100%" must not come out as a doubled "100%%".
TEST(ReqTrace, CritpathHelpTextIsLiteral) {
    const char* argv[] = {"critpath", "--help"};
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(critpathCliMain(2, argv), 0);
    const std::string help = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(help.find("100% of every"), std::string::npos) << help;
    EXPECT_EQ(help.find("%%"), std::string::npos) << help;
}

TEST(ReqTrace, OptionsComeFromEnvironment) {
    ::setenv("GEM5RTL_REQTRACE", "/tmp/reqtrace-out", 1);
    ObsOptions o = ObsOptions::fromEnv();
    EXPECT_TRUE(o.reqtraceEnabled);
    EXPECT_TRUE(o.anyEnabled());
    EXPECT_EQ(o.reqtraceDir, "/tmp/reqtrace-out");

    ::setenv("GEM5RTL_REQTRACE", "1", 1);
    o = ObsOptions::fromEnv();
    EXPECT_TRUE(o.reqtraceEnabled);
    EXPECT_EQ(o.reqtraceDir, ".");

    ::setenv("GEM5RTL_REQTRACE", "0", 1);
    o = ObsOptions::fromEnv();
    EXPECT_FALSE(o.reqtraceEnabled);

    ::unsetenv("GEM5RTL_REQTRACE");
    o = ObsOptions::fromEnv();
    EXPECT_FALSE(o.reqtraceEnabled);
}

TEST(ReqTrace, CombinedEnvOverlayPrecedence) {
    // The overlay contract: every GEM5RTL_* variable independently wins
    // over the programmatic SocConfig::obs base; untouched fields pass
    // through. Exercise all four sidecar families at once with deliberately
    // conflicting settings.
    ObsOptions base;
    base.traceEnabled = true;       // Env turns this OFF.
    base.traceDir = "/cfg/trace";
    base.metricsEnabled = false;    // Env turns this ON with its own dir.
    base.recordEnabled = true;      // Env doesn't mention it: base wins.
    base.recordDir = "/cfg/rec";
    base.reqtraceEnabled = false;   // Env turns this ON, dir form.
    base.reqtracePath = "-";        // Path is NOT env-controlled: survives.

    ::setenv("GEM5RTL_TRACE", "0", 1);
    ::setenv("GEM5RTL_METRICS", "/env/metrics", 1);
    ::setenv("GEM5RTL_REQTRACE", "/env/reqtrace", 1);
    ::unsetenv("GEM5RTL_RECORD");

    const ObsOptions merged = ObsOptions::fromEnv(base);
    EXPECT_FALSE(merged.traceEnabled);
    EXPECT_EQ(merged.traceDir, "/cfg/trace");  // Dir untouched by "0".
    EXPECT_TRUE(merged.metricsEnabled);
    EXPECT_EQ(merged.metricsDir, "/env/metrics");
    EXPECT_TRUE(merged.recordEnabled);
    EXPECT_EQ(merged.recordDir, "/cfg/rec");
    EXPECT_TRUE(merged.reqtraceEnabled);
    EXPECT_EQ(merged.reqtraceDir, "/env/reqtrace");
    EXPECT_EQ(merged.reqtracePath, "-");
    EXPECT_TRUE(merged.anyEnabled());

    ::unsetenv("GEM5RTL_TRACE");
    ::unsetenv("GEM5RTL_METRICS");
    ::unsetenv("GEM5RTL_REQTRACE");
}

}  // namespace
}  // namespace g5r::obs
