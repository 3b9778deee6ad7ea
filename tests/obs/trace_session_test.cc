// TraceSession: Chrome trace-event JSON emission, escaping, failure paths.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exp/json.hh"
#include "obs/trace_session.hh"

namespace g5r::obs {
namespace {

std::string tempPath(const std::string& stem) {
    return ::testing::TempDir() + "g5r_" + stem + ".trace.json";
}

std::string slurp(const std::string& path) {
    std::ifstream in{path};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// Count events with the given ph in a parsed trace document.
std::size_t countPh(const exp::Json& doc, const std::string& ph) {
    std::size_t n = 0;
    for (const auto& ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() == ph) ++n;
    }
    return n;
}

TEST(TraceSession, EmitsParsableChromeTraceDocument) {
    const std::string path = tempPath("parsable");
    {
        TraceSession t{path};
        ASSERT_TRUE(t.ok());
        t.threadName(1, "system.membus");
        t.completeEvent(1, "system.membus.reqDeliver", "dispatch", 10.0, 2.5, 4000);
        t.counterEvent("system.membus.reqsRouted", 12.0, 42.0);
        t.flowBegin(7, 1, 10.5);
        t.flowStep(7, 1, 11.0);
        t.flowEnd(7, 1, 12.0);
        t.finish();
        EXPECT_EQ(t.spansWritten(), 1u);
        EXPECT_EQ(t.eventsWritten(), 6u);
    }

    const exp::Json doc = exp::Json::parse(slurp(path));
    ASSERT_TRUE(doc.isObject());
    const auto& events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.size(), 6u);

    // Every event carries the mandatory viewer fields (metadata events
    // have no timestamp).
    for (const auto& ev : events.items()) {
        EXPECT_TRUE(ev.contains("ph"));
        EXPECT_TRUE(ev.contains("pid"));
        if (ev.at("ph").asString() != "M") {
            EXPECT_TRUE(ev.contains("ts"));
        }
    }

    // The span ("X") has name/cat/tid/dur and the simulated tick.
    const auto& span = events.items()[1];
    EXPECT_EQ(span.at("ph").asString(), "X");
    EXPECT_EQ(span.at("name").asString(), "system.membus.reqDeliver");
    EXPECT_EQ(span.at("cat").asString(), "dispatch");
    EXPECT_EQ(span.at("tid").asInt(), 1);
    EXPECT_DOUBLE_EQ(span.at("ts").asDouble(), 10.0);
    EXPECT_DOUBLE_EQ(span.at("dur").asDouble(), 2.5);
    EXPECT_EQ(span.at("args").at("tick").asInt(), 4000);

    // Counter carries its value; flow events share an id; the end event
    // binds to its enclosing slice (bp:"e").
    EXPECT_DOUBLE_EQ(events.items()[2].at("args").at("value").asDouble(), 42.0);
    EXPECT_EQ(events.items()[3].at("ph").asString(), "s");
    EXPECT_EQ(events.items()[4].at("ph").asString(), "t");
    EXPECT_EQ(events.items()[5].at("ph").asString(), "f");
    EXPECT_EQ(events.items()[5].at("bp").asString(), "e");
    EXPECT_EQ(events.items()[3].at("id").asInt(), events.items()[5].at("id").asInt());

    // Metadata labels the track.
    EXPECT_EQ(events.items()[0].at("ph").asString(), "M");
    EXPECT_EQ(events.items()[0].at("name").asString(), "thread_name");

    std::remove(path.c_str());
}

TEST(TraceSession, EscapesSpecialCharactersInNames) {
    const std::string path = tempPath("escaping");
    const std::string nasty = "a\"b\\c\nd\te";
    {
        TraceSession t{path};
        ASSERT_TRUE(t.ok());
        t.completeEvent(0, nasty, "cat", 0.0, 1.0, 0);
        t.finish();
    }
    const exp::Json doc = exp::Json::parse(slurp(path));  // Must not throw.
    EXPECT_EQ(doc.at("traceEvents").items()[0].at("name").asString(), nasty);
    std::remove(path.c_str());
}

TEST(TraceSession, UnwritablePathReportsNotOkAndDropsEmits) {
    TraceSession t{"/nonexistent-g5r-dir/sub/trace.json"};
    EXPECT_FALSE(t.ok());
    // Every emit is a silent no-op; nothing throws and nothing is counted
    // as written.
    t.completeEvent(0, "x", "c", 0.0, 1.0, 0);
    t.counterEvent("n", 0.0, 1.0);
    t.flowBegin(1, 0, 0.0);
    t.finish();
    EXPECT_EQ(t.spansWritten(), 0u);
    EXPECT_EQ(t.eventsWritten(), 0u);
    EXPECT_FALSE(t.ok());
}

TEST(TraceSession, FinishIsIdempotent) {
    const std::string path = tempPath("idempotent");
    TraceSession t{path};
    t.completeEvent(0, "x", "c", 0.0, 1.0, 0);
    t.finish();
    const std::string once = slurp(path);
    t.finish();  // Second finish must not append another array tail.
    EXPECT_EQ(slurp(path), once);
    EXPECT_NO_THROW(exp::Json::parse(once));
    std::remove(path.c_str());
}

TEST(TraceSession, SpanCounterOnlyCountsCompleteEvents) {
    const std::string path = tempPath("spans");
    TraceSession t{path};
    t.counterEvent("n", 0.0, 1.0);
    t.flowBegin(1, 0, 0.0);
    t.flowEnd(1, 0, 1.0);
    EXPECT_EQ(t.spansWritten(), 0u);
    t.completeEvent(0, "x", "c", 0.0, 1.0, 0);
    t.completeEvent(0, "y", "c", 1.0, 1.0, 0);
    EXPECT_EQ(t.spansWritten(), 2u);
    EXPECT_EQ(t.eventsWritten(), 5u);
    t.finish();
    std::remove(path.c_str());
}

TEST(TraceSession, EmptySessionStillParses) {
    const std::string path = tempPath("empty");
    {
        TraceSession t{path};
        t.finish();
    }
    const exp::Json doc = exp::Json::parse(slurp(path));
    EXPECT_EQ(doc.at("traceEvents").size(), 0u);
    std::remove(path.c_str());
}

// countPh is exercised by session_test.cc too; keep a local sanity check.
TEST(TraceSession, FlowBeginEndPairsBalance) {
    const std::string path = tempPath("flows");
    {
        TraceSession t{path};
        for (std::uint64_t id = 0; id < 5; ++id) {
            t.flowBegin(id, 0, static_cast<double>(id));
            t.flowEnd(id, 0, static_cast<double>(id) + 0.5);
        }
        t.finish();
    }
    const exp::Json doc = exp::Json::parse(slurp(path));
    EXPECT_EQ(countPh(doc, "s"), 5u);
    EXPECT_EQ(countPh(doc, "f"), 5u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace g5r::obs
