// HDR histogram: quantiles verified against an exact-sort oracle across
// distribution shapes, lossless merge, bucket geometry, and edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "exp/json.hh"
#include "sim/stats.hh"

namespace g5r::stats {
namespace {

/// Deterministic 64-bit LCG (no std::random_device / Math.random in tests:
/// the suite must behave identically everywhere).
class Lcg {
public:
    explicit Lcg(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
        return state_ >> 16;
    }

private:
    std::uint64_t state_;
};

/// The exact quantile the histogram approximates: value of rank
/// ceil(q * n) in the sorted sample set.
std::uint64_t exactQuantile(std::vector<std::uint64_t> sorted, double q) {
    std::sort(sorted.begin(), sorted.end());
    const auto n = sorted.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0) rank = 1;
    if (rank > n) rank = n;
    return sorted[rank - 1];
}

/// The histogram reports the upper edge of the bucket holding the exact
/// quantile, so it may only exceed the oracle by one bucket's width:
/// exact <= reported <= exact * (1 + 1/kSubBuckets) + 1.
void expectWithinOneBucket(const HistogramData& h,
                           const std::vector<std::uint64_t>& values, double q) {
    const double exact = static_cast<double>(exactQuantile(values, q));
    const double reported = h.quantile(q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported,
              exact * (1.0 + 1.0 / static_cast<double>(HistogramData::kSubBuckets)) + 1.0)
        << "q=" << q;
}

void checkAllQuantiles(const HistogramData& h, const std::vector<std::uint64_t>& values) {
    for (const double q : {0.5, 0.9, 0.99, 0.999}) expectWithinOneBucket(h, values, q);
}

TEST(Histogram, UniformShapeMatchesSortOracle) {
    Lcg rng{1};
    HistogramData h;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t v = rng.next() % 1'000'000;
        values.push_back(v);
        h.sampleInt(v);
    }
    ASSERT_EQ(h.count(), values.size());
    checkAllQuantiles(h, values);
}

TEST(Histogram, BimodalShapeMatchesSortOracle) {
    // Latency under contention: a fast mode near 100 ticks and a slow mode
    // near 10M ticks. Percentiles must not blur the modes the way mean does.
    Lcg rng{2};
    HistogramData h;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t base = (rng.next() % 10 < 7) ? 100 : 10'000'000;
        const std::uint64_t v = base + rng.next() % (base / 10 + 1);
        values.push_back(v);
        h.sampleInt(v);
    }
    checkAllQuantiles(h, values);
    // The modes are visible: p50 sits in the fast mode, p99 in the slow one.
    EXPECT_LT(h.p50(), 1'000.0);
    EXPECT_GT(h.p99(), 1'000'000.0);
}

TEST(Histogram, HeavyTailShapeMatchesSortOracle) {
    // Exponentially heavy tail: a base value shifted left by a geometric
    // number of octaves — the shape that breaks mean-based summaries.
    Lcg rng{3};
    HistogramData h;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t v = (1 + rng.next() % 1'000) << (rng.next() % 20);
        values.push_back(v);
        h.sampleInt(v);
    }
    checkAllQuantiles(h, values);
    EXPECT_GT(h.p999(), h.p50());
}

TEST(Histogram, MergeIsLossless) {
    // Sampling two disjoint streams into two histograms and merging must
    // produce bucket-for-bucket the same state as one histogram fed both —
    // the property the SoC-wide memLatencyP50/P99 rollup rests on.
    Lcg rng{4};
    HistogramData a, b, whole;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 5'000; ++i) {
        const std::uint64_t v = rng.next() % 500'000;
        values.push_back(v);
        (i % 2 == 0 ? a : b).sampleInt(v);
        whole.sampleInt(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
    EXPECT_DOUBLE_EQ(a.minValue(), whole.minValue());
    EXPECT_DOUBLE_EQ(a.maxValue(), whole.maxValue());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
    }
    std::vector<std::uint64_t> bucketsMerged, bucketsWhole;
    a.forEachBucket([&](std::uint64_t lo, std::uint64_t, std::uint64_t n) {
        bucketsMerged.push_back(lo);
        bucketsMerged.push_back(n);
    });
    whole.forEachBucket([&](std::uint64_t lo, std::uint64_t, std::uint64_t n) {
        bucketsWhole.push_back(lo);
        bucketsWhole.push_back(n);
    });
    EXPECT_EQ(bucketsMerged, bucketsWhole);
    checkAllQuantiles(a, values);

    // Merging an empty histogram is a no-op (min/max must not be poisoned
    // by the empty side's sentinels).
    HistogramData empty;
    const double beforeMin = a.minValue(), beforeMax = a.maxValue();
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.minValue(), beforeMin);
    EXPECT_DOUBLE_EQ(a.maxValue(), beforeMax);

    // And merge into an empty histogram adopts the other side exactly.
    HistogramData fresh;
    fresh.merge(whole);
    EXPECT_EQ(fresh.count(), whole.count());
    EXPECT_DOUBLE_EQ(fresh.minValue(), whole.minValue());
    EXPECT_DOUBLE_EQ(fresh.p99(), whole.p99());
}

TEST(Histogram, BulkSampleEqualsRepeatedSingleSamples) {
    // sampleInt(v, n) is how the RTL bridge accounts a run of skipped
    // cycles at once; it must leave exactly the state of n single samples.
    Lcg rng{11};
    HistogramData bulk, single;
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t v = rng.next() % (i % 2 == 0 ? 300 : 5'000'000);
        const std::uint64_t n = rng.next() % 40;  // Zero included: a no-op.
        bulk.sampleInt(v, n);
        for (std::uint64_t k = 0; k < n; ++k) single.sampleInt(v);
    }
    EXPECT_GT(single.count(), 0u);
    EXPECT_EQ(bulk, single);
    EXPECT_EQ(bulk.mean(), single.mean());
    EXPECT_EQ(bulk.p99(), single.p99());

    HistogramData untouched;
    untouched.sampleInt(7, 0);
    EXPECT_EQ(untouched, HistogramData{});
    EXPECT_EQ(untouched.minValue(), 0.0);

    Histogram stat{"h", "bulk via the Stat wrapper"};
    stat.sampleInt(3, 5);
    EXPECT_EQ(stat.count(), 5u);
    EXPECT_EQ(stat.mean(), 3.0);
}

TEST(Histogram, SmallValuesAreExact) {
    // Identity buckets: every value below kSubBuckets is its own bucket, so
    // quantiles of small queue depths are exact, not approximate.
    HistogramData h;
    for (std::uint64_t v = 0; v < HistogramData::kSubBuckets; ++v) {
        for (std::uint64_t i = 0; i <= v; ++i) h.sampleInt(v);  // Weight v+1.
    }
    for (std::uint64_t v = 0; v < HistogramData::kSubBuckets; ++v) {
        EXPECT_EQ(HistogramData::bucketLow(HistogramData::bucketIndex(v)), v);
        EXPECT_EQ(HistogramData::bucketHigh(HistogramData::bucketIndex(v)), v);
    }
    // n = 32*33/2 = 528; rank ceil(0.5*528) = 264 -> value 22 exactly
    // (cumulative weight through 21 is 253, through 22 is 276).
    EXPECT_DOUBLE_EQ(h.p50(), 22.0);
}

TEST(Histogram, BucketGeometryIsConsistent) {
    Lcg rng{5};
    for (int i = 0; i < 10'000; ++i) {
        const std::uint64_t v = rng.next() << (rng.next() % 17);
        const std::size_t idx = HistogramData::bucketIndex(v);
        EXPECT_LE(HistogramData::bucketLow(idx), v);
        EXPECT_GE(HistogramData::bucketHigh(idx), v);
        if (idx > 0) {
            EXPECT_EQ(HistogramData::bucketLow(idx), HistogramData::bucketHigh(idx - 1) + 1);
        }
    }
    // The top octave's high edge saturates at the type maximum (unsigned
    // wraparound of ((sub+1) << exp) - 1 lands exactly there).
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(HistogramData::bucketHigh(HistogramData::bucketIndex(top)), top);
    HistogramData h;
    h.sampleInt(top);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.maxValue(), static_cast<double>(top));
}

TEST(Histogram, EdgeCasesAndClamping) {
    HistogramData h;
    // Empty: everything reads zero.
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);

    // Quantiles never report above the largest observed sample, even though
    // the bucket's upper edge lies beyond it.
    h.sampleInt(1'000'000);
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(h.quantile(q), 1'000'000.0) << "q=" << q;
    }

    // q outside (0,1) clamps to min/max.
    h.sampleInt(10);
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), 10.0);
    EXPECT_DOUBLE_EQ(h.quantile(2.0), 1'000'000.0);

    // Doubles: negatives and NaN clamp to the zero bucket; huge values cap.
    HistogramData d;
    d.sample(-5.0);
    d.sample(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(d.count(), 2u);
    EXPECT_DOUBLE_EQ(d.maxValue(), 0.0);
    d.sample(1e300);
    EXPECT_GE(d.maxValue(), 9e18);

    // Reset restores the empty state.
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 0.0);
}

// Latencies measured in absolute ticks late in a long run ride on a large
// common offset. Count, min and max are exact integers and the mean is one
// sum/count division, so small deltas on top of the offset survive exactly.
TEST(Histogram, LargeTickOffsetKeepsExactMeanMinMax) {
    HistogramData h;
    constexpr std::uint64_t kOffset = 1'000'000'000'000;  // 1e12 ticks.
    for (const std::uint64_t delta : {4u, 7u, 13u, 16u}) h.sampleInt(kOffset + delta);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.minValue(), static_cast<double>(kOffset + 4));
    EXPECT_EQ(h.maxValue(), static_cast<double>(kOffset + 16));
    EXPECT_EQ(h.mean(), static_cast<double>(kOffset + 10));
    // Quantiles stay inside the observed range.
    EXPECT_GE(h.p50(), h.minValue());
    EXPECT_LE(h.p999(), h.maxValue());

    // Two samples whose mean falls on a half tick.
    h.reset();
    h.sampleInt(kOffset + 1);
    h.sampleInt(kOffset + 2);
    EXPECT_EQ(h.mean(), static_cast<double>(kOffset) + 1.5);
}

TEST(Histogram, GroupWrapperRegistersAndDumps) {
    Group g{"xbar"};
    Histogram& h = g.histogram("latencyHist.cpu0", "round-trip ticks");
    for (const std::uint64_t v : {100u, 200u, 300u, 400u}) h.sampleInt(v);

    // Registered and findable like any other stat; headline value = mean.
    const Stat* found = g.find("latencyHist.cpu0");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name(), "xbar.latencyHist.cpu0");
    EXPECT_DOUBLE_EQ(found->value(), 250.0);
    ASSERT_NE(dynamic_cast<const Histogram*>(found), nullptr);

    // dumpJson carries the quantile block.
    const exp::Json doc = exp::Json::parse(g.dumpJson().dump());
    const exp::Json& j = doc.at("latencyHist.cpu0");
    EXPECT_EQ(j.at("count").asInt(), 4);
    EXPECT_DOUBLE_EQ(j.at("min").asDouble(), 100.0);
    EXPECT_DOUBLE_EQ(j.at("mean").asDouble(), 250.0);
    EXPECT_DOUBLE_EQ(j.at("max").asDouble(), 400.0);
    EXPECT_GE(j.at("p50").asDouble(), 200.0);
    EXPECT_LE(j.at("p99").asDouble(), j.at("p999").asDouble() + 1e-12);
    EXPECT_LE(j.at("p999").asDouble(), 400.0);

    // reset() through the Stat interface clears the histogram.
    g.resetAll();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

}  // namespace
}  // namespace g5r::stats
