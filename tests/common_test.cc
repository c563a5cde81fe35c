/**
 * @file
 * Unit tests for the common utilities: units, RNG, stats, tables.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace camllm {
namespace {

TEST(Units, TimeLiterals)
{
    EXPECT_EQ(kUs, 1000u);
    EXPECT_EQ(kMs, 1000u * 1000u);
    EXPECT_EQ(kSec, 1000u * 1000u * 1000u);
}

TEST(Units, TransferTimeExact)
{
    // 1 GB/s == 1 byte per ns.
    EXPECT_EQ(transferTime(1000, 1.0), 1000u);
    EXPECT_EQ(transferTime(16384, 1.0), 16384u);
}

TEST(Units, TransferTimeRoundsUp)
{
    // 3 bytes at 2 GB/s is 1.5 ns -> must round to 2.
    EXPECT_EQ(transferTime(3, 2.0), 2u);
}

TEST(Units, TransferTimeZeroBytes)
{
    EXPECT_EQ(transferTime(0, 1.0), 0u);
}

TEST(Units, BandwidthInverse)
{
    EXPECT_DOUBLE_EQ(bandwidthGBps(4000, 1000), 4.0);
    EXPECT_DOUBLE_EQ(bandwidthGBps(100, 0), 0.0);
}

TEST(Units, SecondsRoundTrip)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSec), 1.0);
    EXPECT_EQ(secondsToTicks(2.5), Tick(2500) * kMs);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(5);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.below(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Accumulator, Basics)
{
    Accumulator a;
    a.add(1.0);
    a.add(2.0);
    a.add(3.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
    EXPECT_DOUBLE_EQ(a.variance(), 1.0);
}

TEST(Accumulator, EmptyIsSafe)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, SingleSampleVarianceZero)
{
    Accumulator a;
    a.add(5.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

// Samples with a large common offset (tick timestamps): the textbook
// sum-of-squares variance cancels catastrophically (1e30 magnitudes
// differing by ~1), while Welford's online form stays exact here.
TEST(Accumulator, VarianceStableUnderLargeOffset)
{
    Accumulator a;
    a.add(1e15);
    a.add(1e15 + 1.0);
    a.add(1e15 + 2.0);
    EXPECT_DOUBLE_EQ(a.mean(), 1e15 + 1.0);
    EXPECT_DOUBLE_EQ(a.variance(), 1.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 1.0);
    EXPECT_DOUBLE_EQ(a.min(), 1e15);
    EXPECT_DOUBLE_EQ(a.max(), 1e15 + 2.0);
}

TEST(SampleSet, EmptySetIsAllZero)
{
    SampleSet s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 0.0);
}

TEST(SampleSet, SingleSampleIsEveryPercentile)
{
    SampleSet s;
    s.add(7.25);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 7.25);
    EXPECT_DOUBLE_EQ(s.max(), 7.25);
    for (double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), 7.25) << "p" << p;
}

TEST(SampleSet, NearestRankPercentiles)
{
    SampleSet s;
    // Unsorted on purpose: percentile() sorts lazily.
    for (double v : {30.0, 10.0, 50.0, 20.0, 40.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(20.0), 10.0); // rank ceil(1) = 1st
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 30.0);
    EXPECT_DOUBLE_EQ(s.percentile(95.0), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 50.0);
    EXPECT_DOUBLE_EQ(s.mean(), 30.0);
    // Interleaving add() with queries keeps the order stats fresh.
    s.add(60.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 60.0);
    EXPECT_DOUBLE_EQ(s.max(), 60.0);
}

TEST(BusyTracker, AccumulatesIntervals)
{
    BusyTracker b;
    b.addBusy(0, 10);
    b.addBusy(20, 25);
    EXPECT_EQ(b.busyTicks(), 15u);
    EXPECT_DOUBLE_EQ(b.utilization(100), 0.15);
}

TEST(BusyTracker, IgnoresEmptyInterval)
{
    BusyTracker b;
    b.addBusy(5, 5);
    EXPECT_EQ(b.busyTicks(), 0u);
    EXPECT_DOUBLE_EQ(b.utilization(0), 0.0);
}

// The ring keeps FIFO order while its head wraps around the array and
// when its storage grows with the live range wrapped.
TEST(RingQueue, FifoAcrossWrapAndGrowth)
{
    RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    int next_in = 0;
    int next_out = 0;
    // Cycle at depth 5 so the head walks around the first array.
    for (int i = 0; i < 5; ++i)
        q.push_back(next_in++);
    for (int i = 0; i < 13; ++i) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
        q.push_back(next_in++);
    }
    // Grow while wrapped, then drain.
    for (int i = 0; i < 20; ++i)
        q.push_back(next_in++);
    ASSERT_EQ(q.size(), 25u);
    for (std::size_t i = 0; i < q.size(); ++i)
        EXPECT_EQ(q[i], next_out + int(i));
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
    q.push_back(7);
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(Table, RendersAllCells)
{
    Table t("demo");
    t.header({"a", "b"});
    t.row({"1", "22"});
    t.row({"333", "4"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmtPercent(0.5, 1), "50.0%");
    EXPECT_EQ(Table::fmtInt(12345), "12345");
}

} // namespace
} // namespace camllm
