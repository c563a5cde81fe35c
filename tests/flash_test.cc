/**
 * @file
 * Unit tests for the flash substrate: geometry/addressing, the
 * priority channel bus, die pipelines (read and read-compute), the
 * per-channel scheduler, weight placement, and a seeded channel-level
 * differential table that pins every completion tick.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "flash/address.h"
#include "flash/channel_engine.h"
#include "flash/flash_system.h"
#include "flash/placement.h"
#include "sim/event_queue.h"
#include "sim/inline_callback.h"

namespace {

/** Global operator new calls in this process, for allocation tests. */
std::atomic<std::uint64_t> g_news{0};

} // namespace

// Counting replacements of the global allocation functions (the array
// and sized forms forward to these).
void *
operator new(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace camllm::flash {
namespace {

/** Small, fast parameters for exact-timing tests. */
FlashParams
testParams()
{
    FlashParams p;
    p.geometry.channels = 1;
    p.geometry.chips_per_channel = 1;
    p.geometry.dies_per_chip = 1;
    p.geometry.planes_per_die = 2;
    p.geometry.blocks_per_plane = 8;
    p.geometry.pages_per_block = 16;
    p.geometry.page_bytes = 1024;
    p.timing.t_read = 1000;
    p.timing.bus_mts = 1000; // 1 B/ns
    p.timing.bus_bits = 8;
    p.timing.grant_overhead = 10;
    p.timing.t_reg_move = 50;
    p.timing.slice_bytes = 256;
    return p;
}

/**
 * One connected flash client: records tagged completions. Pass the
 * router of the channel under test (or FlashSystem::connect below).
 */
struct TestClient
{
    EventQueue *eq = nullptr;
    ClientId id = 0;
    std::map<std::uint64_t, std::uint64_t> rc_results;
    std::map<std::uint64_t, std::uint64_t> read_bytes;
    std::vector<Tick> rc_times;
    std::vector<Tick> read_times;

    void
    on(const Completion &c)
    {
        EXPECT_EQ(c.client, id);
        if (c.kind == Completion::Kind::RcResult) {
            ++rc_results[c.op_id];
            if (eq)
                rc_times.push_back(eq->now());
        } else {
            read_bytes[c.op_id] += c.bytes;
            if (eq)
                read_times.push_back(eq->now());
        }
    }

    void
    attach(CompletionRouter &router)
    {
        id = router.connect([this](const Completion &c) { on(c); });
    }

    void
    attach(FlashSystem &fs)
    {
        id = fs.connect([this](const Completion &c) { on(c); });
    }
};

/** A read-page job tagged for @p cl. */
ReadPageJob
readJob(const TestClient &cl, std::uint64_t op, std::uint32_t bytes,
        bool sliced)
{
    ReadPageJob j;
    j.client = cl.id;
    j.op_id = op;
    j.bytes = bytes;
    j.sliced = sliced;
    return j;
}

// --- geometry -------------------------------------------------------------

TEST(FlashGeometry, DerivedCounts)
{
    FlashGeometry g;
    g.channels = 8;
    g.chips_per_channel = 2;
    g.dies_per_chip = 2;
    g.planes_per_die = 2;
    EXPECT_EQ(g.diesPerChannel(), 4u);
    EXPECT_EQ(g.coresPerChannel(), 4u);
    EXPECT_EQ(g.totalDies(), 32u);
}

TEST(FlashGeometry, CapacityMath)
{
    FlashGeometry g = testParams().geometry;
    EXPECT_EQ(g.planeBytes(), 8u * 16 * 1024);
    EXPECT_EQ(g.dieBytes(), 2u * 8 * 16 * 1024);
    EXPECT_EQ(g.totalPages(), 2u * 8 * 16);
}

TEST(FlashGeometry, TableIIPresetCapacityHoldsA70BModel)
{
    FlashGeometry g; // defaults: 2048 blocks x 256 pages x 16 KB
    g.channels = 8;
    g.chips_per_channel = 2;
    // >= 80 GB for INT8 Llama2-70B.
    EXPECT_GT(g.totalBytes(), 80ull * 1000 * 1000 * 1000);
}

TEST(FlashGeometry, InvalidWhenZeroField)
{
    FlashGeometry g;
    g.channels = 0;
    EXPECT_FALSE(g.valid());
}

TEST(FlashTiming, BusBytesPerNs)
{
    FlashTiming t;
    t.bus_mts = 1000;
    t.bus_bits = 8;
    EXPECT_DOUBLE_EQ(t.busBytesPerNs(), 1.0);
    t.bus_mts = 2000;
    EXPECT_DOUBLE_EQ(t.busBytesPerNs(), 2.0);
}

TEST(FlashTiming, MatchedComputeEqualsReadTime)
{
    FlashTiming t;
    t.t_read = 30000;
    t.core_gops = 0.0; // matched design point
    EXPECT_EQ(t.computeTime(16384, 16384), 30000u);
    EXPECT_EQ(t.computeTime(8192, 16384), 15000u);
}

TEST(FlashTiming, ExplicitGopsCompute)
{
    FlashTiming t;
    t.core_gops = 4.0; // 4 ops per ns
    EXPECT_EQ(t.computeTime(16384, 16384), Tick(2 * 16384 / 4));
}

// --- addressing -------------------------------------------------------------

TEST(PageIndexer, RoundTripExhaustiveSmall)
{
    FlashGeometry g = testParams().geometry;
    PageIndexer ix(g);
    for (std::uint64_t i = 0; i < ix.totalPages(); ++i) {
        PageAddress a = ix.toAddress(i);
        EXPECT_TRUE(a.validFor(g));
        EXPECT_EQ(ix.toLinear(a), i);
    }
}

TEST(PageIndexer, ChannelIsSlowestCoordinate)
{
    FlashGeometry g;
    g.channels = 4;
    PageIndexer ix(g);
    PageAddress a = ix.toAddress(0);
    EXPECT_EQ(a.channel, 0u);
    PageAddress b = ix.toAddress(ix.totalPages() - 1);
    EXPECT_EQ(b.channel, 3u);
}

TEST(PageAddress, ValidityBounds)
{
    FlashGeometry g = testParams().geometry;
    PageAddress a;
    EXPECT_TRUE(a.validFor(g));
    a.plane = 2;
    EXPECT_FALSE(a.validFor(g));
}

// --- channel bus ------------------------------------------------------------

TEST(ChannelBus, SingleGrantTiming)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 10);
    Tick done = 0;
    bus.request(BusPriority::Low, 100, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 110u); // overhead + bytes
    EXPECT_EQ(bus.bytesLow(), 100u);
    EXPECT_EQ(bus.grants(), 1u);
}

TEST(ChannelBus, HighPreemptsQueuedLow)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    std::vector<int> order;
    bus.request(BusPriority::Low, 100, [&] { order.push_back(0); });
    bus.request(BusPriority::Low, 100, [&] { order.push_back(1); });
    bus.request(BusPriority::High, 10, [&] { order.push_back(2); });
    eq.run();
    // The first low grant was already in flight; the high one jumps
    // the remaining queue.
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(ChannelBus, NonPreemptiveWithinGrant)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    Tick high_done = 0;
    bus.request(BusPriority::Low, 1000, [] {});
    bus.request(BusPriority::High, 10, [&] { high_done = eq.now(); });
    eq.run();
    // High must wait for the full 1000-byte low grant.
    EXPECT_EQ(high_done, 1010u);
}

TEST(ChannelBus, TracksBusyTime)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 10);
    bus.request(BusPriority::Low, 90, [] {});
    bus.request(BusPriority::High, 40, [] {});
    eq.run();
    EXPECT_EQ(bus.busy().busyTicks(), 100u + 50u);
}

TEST(ChannelBus, TraceHookSeesGrants)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    std::vector<ChannelBus::GrantTrace> traces;
    bus.setTraceHook([&](const ChannelBus::GrantTrace &g) {
        traces.push_back(g);
    });
    bus.request(BusPriority::High, 8, [] {}, "input");
    bus.request(BusPriority::Low, 16, [] {}, "slice");
    eq.run();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].bytes, 8u);
    EXPECT_EQ(traces[0].priority, BusPriority::High);
    EXPECT_STREQ(traces[1].label, "slice");
}

// A callable too big for the inline slot is boxed on the heap: it still
// runs exactly once and its capture dies with the finished grant.
TEST(ChannelBus, OversizedCallbackRunsOnceAndIsDestroyed)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    auto payload = std::make_shared<int>(41);
    std::weak_ptr<int> watch = payload;
    int runs = 0;
    std::uint64_t sum = 0;
    struct Big
    {
        std::shared_ptr<int> p;
        std::uint64_t pad[8];
    } big{std::move(payload), {1, 2, 3, 4, 5, 6, 7, 8}};
    static_assert(sizeof(Big) > InlineCallback::kInlineBytes);
    bus.request(BusPriority::Low, 16, [big = std::move(big), &runs, &sum] {
        ++runs;
        sum = std::uint64_t(*big.p) + big.pad[7];
    });
    eq.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sum, 49u);
    EXPECT_TRUE(watch.expired());
}

// Tearing a bus down mid-run (one grant on the wire, more queued in
// both classes) releases everything their callables captured.
TEST(ChannelBus, DestructionReleasesQueuedAndInFlightCaptures)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        ChannelBus bus(eq, 1.0, 0);
        bus.request(BusPriority::Low, 100, [token] {}); // in flight
        bus.request(BusPriority::Low, 100, [token] {});
        bus.request(BusPriority::High, 10, [token] {});
        struct Big
        {
            std::shared_ptr<int> p;
            std::uint64_t pad[8];
        } big{token, {}};
        bus.request(BusPriority::Low, 100,
                    [big = std::move(big)] { (void)big; });
        EXPECT_FALSE(bus.idle());
        EXPECT_EQ(token.use_count(), 5);
    }
    EXPECT_EQ(token.use_count(), 1);
}

// --- die + channel engine ---------------------------------------------------

// The flash hot path is allocation-free once warm: after one batch has
// grown the event pool, bus node pool and queue rings to the batch's
// peak depth, an identical batch performs no heap allocation at all.
TEST(ChannelEngine, SteadyStateBatchAllocatesNothing)
{
    EventQueue eq;
    CompletionRouter router(eq);
    std::uint64_t results = 0;
    std::uint64_t read_bytes = 0;
    router.connect([&](const Completion &c) {
        if (c.kind == Completion::Kind::RcResult)
            ++results;
        else
            read_bytes += c.bytes;
    });
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;
    p.geometry.dies_per_chip = 2; // 4 cores on the channel
    ChannelEngine ce(eq, p, router);
    RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = 4;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500;
    ReadPageJob read;
    read.op_id = 2;
    read.bytes = p.geometry.page_bytes;
    read.sliced = true;
    const auto batch = [&] {
        for (int i = 0; i < 12; ++i) {
            ce.submitTile(tile);
            ce.submitRead(read);
        }
        eq.run();
    };

    batch();
    const std::uint64_t warm = g_news.load();
    batch();
    EXPECT_EQ(g_news.load() - warm, 0u);
    EXPECT_EQ(results, 2u * 12 * 4);
    EXPECT_EQ(read_bytes, 2u * 12 * p.geometry.page_bytes);
}

TEST(ChannelEngine, ReadJobExactTiming)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    ce.submitRead(readJob(cl, 7, 1024, true));
    eq.run();
    // tR + reg move + 4 slices of (10 + 256).
    EXPECT_EQ(cl.read_times.at(0), 1000u + 50 + 4 * 266);
    EXPECT_EQ(cl.read_bytes[7], 1024u);
    EXPECT_EQ(ce.pagesRead(), 1u);
}

TEST(ChannelEngine, UnslicedReadIsOneGrant)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    ce.submitRead(readJob(cl, 7, 1024, false));
    eq.run();
    EXPECT_EQ(cl.read_times.at(0), 1000u + 50 + 10 + 1024);
    EXPECT_EQ(ce.bus().grants(), 1u);
}

TEST(ChannelEngine, PartialPageReadFewerSlices)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    ce.submitRead(readJob(cl, 1, 300, true));
    eq.run();
    // ceil(300/256) = 2 slices.
    EXPECT_EQ(ce.bus().grants(), 2u);
    EXPECT_EQ(cl.read_bytes[1], 300u);
}

TEST(ChannelEngine, RcTileExactTiming)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    RcTileWork tile;
    tile.op_id = 3;
    tile.cores_used = 1;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500;
    ce.submitTile(tile);
    eq.run();
    // input grant [0,74]; array read [74,1074] (step 1 precedes
    // step 2); move [1074,1124]; compute [1124,1624]; result grant
    // [1624,1666].
    EXPECT_EQ(cl.rc_times.at(0), 1666u);
    EXPECT_EQ(cl.rc_results[3], 1u);
    EXPECT_EQ(ce.pagesComputed(), 1u);
}

TEST(ChannelEngine, RcSteadyStateCadenceReadBound)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = 1;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500; // < tR: cadence = t_reg_move + tR
    for (int i = 0; i < 4; ++i)
        ce.submitTile(tile);
    eq.run();
    ASSERT_EQ(cl.rc_times.size(), 4u);
    for (std::size_t i = 1; i < cl.rc_times.size(); ++i)
        EXPECT_EQ(cl.rc_times[i] - cl.rc_times[i - 1], 1050u);
}

TEST(ChannelEngine, RcSteadyStateCadenceComputeBound)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = 1;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 2000; // > tR: core limits
    for (int i = 0; i < 4; ++i)
        ce.submitTile(tile);
    eq.run();
    ASSERT_EQ(cl.rc_times.size(), 4u);
    for (std::size_t i = 1; i < cl.rc_times.size(); ++i)
        EXPECT_EQ(cl.rc_times[i] - cl.rc_times[i - 1], 2050u);
}

TEST(ChannelEngine, TileFansOutToAllCores)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;
    p.geometry.dies_per_chip = 2; // 4 cores on the channel
    ChannelEngine ce(eq, p, router);
    RcTileWork tile;
    tile.op_id = 9;
    tile.cores_used = 4;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 16;
    tile.compute_time = 500;
    ce.submitTile(tile);
    eq.run();
    EXPECT_EQ(cl.rc_results[9], 4u);
    EXPECT_EQ(ce.pagesComputed(), 4u);
    // One broadcast input grant + 4 result grants.
    EXPECT_EQ(ce.bus().grants(), 5u);
}

TEST(ChannelEngine, PartialTileUsesSubsetOfCores)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 4; // 4 dies
    ChannelEngine ce(eq, p, router);
    RcTileWork tile;
    tile.op_id = 2;
    tile.cores_used = 3;
    tile.input_bytes = 8;
    tile.out_bytes_per_core = 8;
    tile.compute_time = 100;
    ce.submitTile(tile);
    eq.run();
    EXPECT_EQ(cl.rc_results[2], 3u);
    EXPECT_EQ(ce.die(3).pagesComputed(), 0u);
}

TEST(ChannelEngine, LockstepDiesStepAsOneGroup)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 4; // 4 dies
    ChannelEngine ce(eq, p, router);
    RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = 4;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500;
    ce.submitTile(tile);
    eq.run();
    EXPECT_EQ(ce.rcGroups(), 1u);
    // One input grant, one sense, one move and one compute event for
    // the whole group, then four result grants and their deliveries.
    // One event per die and stage would make 21.
    EXPECT_EQ(eq.executed(), 12u);
    EXPECT_EQ(cl.rc_times, (std::vector<Tick>{1666, 1708, 1750, 1792}));
    for (std::size_t d = 0; d < ce.dieCount(); ++d)
        EXPECT_EQ(ce.die(d).pagesComputed(), 1u);
    EXPECT_EQ(ce.arrayReads(), 4u);
}

TEST(ChannelEngine, PartialTileSplitsGroupUntilHalvesRestartTogether)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 4;
    ChannelEngine ce(eq, p, router);
    RcTileWork tile;
    tile.op_id = 1;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500;
    tile.cores_used = 2;
    ce.submitTile(tile);
    tile.cores_used = 4;
    ce.submitTile(tile);
    EXPECT_EQ(ce.rcGroups(), 2u);
    eq.run();
    // Drained halves stay apart until work restarts them...
    EXPECT_EQ(ce.rcGroups(), 2u);
    EXPECT_EQ(ce.die(1).pagesComputed(), 2u);
    EXPECT_EQ(ce.die(2).pagesComputed(), 1u);
    // ...and a full tile then senses on both at once, as one group:
    // the same 12 events as on a fresh channel.
    const std::uint64_t before = eq.executed();
    ce.submitTile(tile);
    eq.run();
    EXPECT_EQ(ce.rcGroups(), 1u);
    EXPECT_EQ(eq.executed() - before, 12u);
    EXPECT_EQ(cl.rc_results[1], 2u + 4 + 4);
}

TEST(ChannelEngine, SplitHalvesRejoinOnceTheirPipelinesAlign)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 4;
    ChannelEngine ce(eq, p, router);
    RcTileWork tile;
    tile.op_id = 1;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500;
    tile.cores_used = 2;
    ce.submitTile(tile);
    // The second tile's input lands at 1274, while dies 0-1 still
    // compute the first tile (until 1624): both halves sense it from
    // 1274, the left one with a compute still pending, so they stay
    // apart until both move it to the cache register at 2274.
    RcTileWork full = tile;
    full.op_id = 2;
    full.cores_used = 4;
    eq.schedule(1200, [&] { ce.submitTile(full); });
    eq.runUntil(2000);
    EXPECT_EQ(ce.rcGroups(), 2u);
    eq.runUntil(2300);
    EXPECT_EQ(ce.rcGroups(), 1u);
    eq.run();
    EXPECT_EQ(cl.rc_results[1], 2u);
    EXPECT_EQ(cl.rc_results[2], 4u);
}

TEST(ChannelEngine, ReadsSpreadRoundRobinAcrossDies)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;
    p.geometry.dies_per_chip = 2;
    ChannelEngine ce(eq, p, router);
    for (int i = 0; i < 8; ++i)
        ce.submitRead(readJob(cl, 1, p.geometry.page_bytes, true));
    eq.run();
    for (std::size_t d = 0; d < ce.dieCount(); ++d)
        EXPECT_EQ(ce.die(d).pagesRead(), 2u);
}

TEST(ChannelEngine, InterleavesTwoClientsWithTaggedCompletions)
{
    // Two decode streams share the one channel; each must see exactly
    // its own completions, tagged with its own op ids.
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient a, b;
    a.attach(router);
    b.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    RcTileWork tile;
    tile.cores_used = 1;
    tile.input_bytes = 8;
    tile.out_bytes_per_core = 8;
    tile.compute_time = 100;
    for (int i = 0; i < 3; ++i) {
        tile.client = a.id;
        tile.op_id = 10 + i;
        ce.submitTile(tile);
        tile.client = b.id;
        tile.op_id = 20 + i;
        ce.submitTile(tile);
        ce.submitRead(readJob(b, 33, 512, true));
    }
    eq.run();
    EXPECT_EQ(a.rc_results.size(), 3u);
    EXPECT_EQ(b.rc_results.size(), 3u);
    EXPECT_EQ(a.read_bytes.size(), 0u);
    EXPECT_EQ(b.read_bytes[33], 3u * 512);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(a.rc_results[10 + i], 1u);
        EXPECT_EQ(b.rc_results[20 + i], 1u);
    }
}

TEST(ChannelEngine, ReadsDoNotStallRcStream)
{
    // The paper's key scheduling property: sliced reads fill channel
    // bubbles without delaying read-compute completions.
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2; // 2 dies

    auto run_rc = [&](bool with_reads) {
        EventQueue eq;
        CompletionRouter router(eq);
        TestClient cl;
        cl.eq = &eq;
        cl.attach(router);
        ChannelEngine ce(eq, p, router);
        RcTileWork tile;
        tile.op_id = 1;
        tile.cores_used = 2;
        tile.input_bytes = 64;
        tile.out_bytes_per_core = 32;
        tile.compute_time = 900;
        for (int i = 0; i < 10; ++i)
            ce.submitTile(tile);
        if (with_reads)
            for (int i = 0; i < 40; ++i)
                ce.submitRead(readJob(cl, 2, p.geometry.page_bytes,
                                      true));
        eq.run();
        return cl.rc_times.back();
    };

    const Tick alone = run_rc(false);
    const Tick with_reads = run_rc(true);
    // Sliced reads may add at most a slice-grant's worth of delay per
    // tile, a few percent here.
    EXPECT_LT(double(with_reads), double(alone) * 1.10);
}

TEST(ChannelEngine, UnslicedReadsDoStallRcStream)
{
    // Without Slice Control the channel loses both the slicing and
    // the priority arbitration (a conventional FIFO flash channel):
    // monolithic page transfers land ahead of rc inputs and block
    // them, stretching the read-compute stream (paper Fig 6b vs 6c).
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;

    auto run_rc = [&](bool slice_control) {
        EventQueue eq;
        CompletionRouter router(eq);
        TestClient cl;
        cl.eq = &eq;
        cl.attach(router);
        ChannelEngine ce(eq, p, router, 3, slice_control);
        RcTileWork tile;
        tile.op_id = 1;
        tile.cores_used = 2;
        tile.input_bytes = 64;
        tile.out_bytes_per_core = 32;
        tile.compute_time = 900;
        for (int i = 0; i < 10; ++i)
            ce.submitTile(tile);
        for (int i = 0; i < 40; ++i)
            ce.submitRead(readJob(cl, 2, p.geometry.page_bytes,
                                  slice_control));
        eq.run();
        return cl.rc_times.back();
    };

    const Tick with_slice = run_rc(true);
    const Tick without = run_rc(false);
    EXPECT_GT(double(without), double(with_slice) * 1.2);
}

TEST(ChannelEngine, TileWindowBoundsInFlightTiles)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router, 2);
    RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = 1;
    tile.input_bytes = 8;
    tile.out_bytes_per_core = 8;
    tile.compute_time = 100;
    for (int i = 0; i < 6; ++i)
        ce.submitTile(tile);
    EXPECT_EQ(ce.tilesInFlight(), 6u);
    eq.run();
    EXPECT_EQ(ce.tilesInFlight(), 0u);
    EXPECT_EQ(cl.rc_results[1], 6u);
}

// --- flash system -----------------------------------------------------------

TEST(FlashSystem, RoutesWorkToChannels)
{
    EventQueue eq;
    FlashParams p = testParams();
    p.geometry.channels = 4;
    FlashSystem fs(eq, p);
    TestClient cl;
    cl.attach(fs);
    RcTileWork tile;
    tile.client = cl.id;
    tile.op_id = 5;
    tile.cores_used = 1;
    tile.input_bytes = 8;
    tile.out_bytes_per_core = 8;
    tile.compute_time = 100;
    for (std::uint32_t c = 0; c < 4; ++c)
        fs.submitTile(c, tile);
    fs.submitRead(2, readJob(cl, 6, 512, true));
    eq.run();
    EXPECT_EQ(cl.rc_results[5], 4u);
    EXPECT_EQ(cl.read_bytes[6], 512u);
    EXPECT_EQ(fs.pagesComputed(), 4u);
    EXPECT_EQ(fs.pagesRead(), 1u);
    EXPECT_EQ(fs.arrayReads(), 5u);
}

TEST(FlashSystem, ChannelByteAccounting)
{
    EventQueue eq;
    FlashParams p = testParams();
    FlashSystem fs(eq, p);
    TestClient cl;
    cl.attach(fs);
    RcTileWork tile;
    tile.client = cl.id;
    tile.op_id = 1;
    tile.cores_used = 1;
    tile.input_bytes = 100;
    tile.out_bytes_per_core = 20;
    tile.compute_time = 10;
    fs.submitTile(0, tile);
    fs.submitRead(0, readJob(cl, 2, 512, true));
    eq.run();
    EXPECT_EQ(fs.channelBytesHigh(), 120u);
    EXPECT_EQ(fs.channelBytesLow(), 512u);
    EXPECT_EQ(fs.channelBytes(), 632u);
}

TEST(FlashSystem, ArmedFaultsKeepEveryDieItsOwnGroup)
{
    // The fault model draws each sense's retry ladder from one stream
    // in die order, so with faults armed no two dies share a group.
    EventQueue eq;
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 4;
    FlashSystem fs(eq, p);
    FaultSpec spec;
    spec.channel_faults.push_back({0, 1.0, 0, 1000000, false});
    fs.armFaults(spec);
    TestClient cl;
    cl.attach(fs);
    RcTileWork tile;
    tile.client = cl.id;
    tile.op_id = 1;
    tile.cores_used = 4;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500;
    fs.submitTile(0, tile);
    EXPECT_EQ(fs.channel(0).rcGroups(), 4u);
    eq.run();
    EXPECT_EQ(fs.channel(0).rcGroups(), 4u);
    EXPECT_EQ(cl.rc_results[1], 4u);
}

TEST(FlashSystem, UtilizationBetweenZeroAndOne)
{
    EventQueue eq;
    FlashParams p = testParams();
    FlashSystem fs(eq, p);
    TestClient cl;
    cl.attach(fs);
    for (int i = 0; i < 5; ++i)
        fs.submitRead(0, readJob(cl, 1, 1024, true));
    eq.run();
    double u = fs.avgChannelUtilization(eq.now());
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
}

// --- channel differential table ------------------------------------------

/**
 * Expand @p seed into one small FlashSystem run and fold it into a
 * digest. A seed mixes 1-3 clients, full and partial tiles, a tile
 * window of 1-4, compute time equal to tR or not, Slice Control on or
 * off, sliced and unsliced reads, follow-up work submitted from the
 * completion handlers, and one of four fault modes: none, an armed
 * but inert slowdown (factor 1.0), a failing ECC ladder, or a channel
 * lost mid-tile. The digest covers the completion log as (tick,
 * client, op, kind, bytes) and, per channel, the page, sense, byte,
 * busy-tick and grant counters plus every die's computed pages.
 */
std::uint64_t
channelRunDigest(std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint32_t fault_mode =
        rng.chance(0.5) ? 0 : std::uint32_t(1 + rng.below(3));
    FlashParams p = testParams();
    p.geometry.channels =
        fault_mode == 3 ? 2 : std::uint32_t(1 + rng.below(2));
    p.geometry.chips_per_channel = std::uint32_t(1 + rng.below(2));
    p.geometry.dies_per_chip = std::uint32_t(1 + rng.below(4));
    const std::uint32_t dies = p.geometry.diesPerChannel();
    // Compute time: tR (the matched design point), one other value
    // for every tile (t_reg_move, tR/2, tR + t_reg_move, 2 tR), or a
    // fresh draw per tile.
    const std::uint64_t compute_mode = rng.below(3);
    const Tick fixed_compute = std::array<Tick, 4>{50, 500, 1050,
                                                   2000}[rng.below(4)];
    const std::uint32_t window = std::uint32_t(1 + rng.below(4));
    const bool slice_control = rng.chance(0.75);

    EventQueue eq;
    FlashSystem fs(eq, p, window, slice_control);
    if (fault_mode != 0) {
        FaultSpec spec;
        spec.seed = seed;
        if (fault_mode == 1)
            spec.channel_faults.push_back({0, 1.0, 0, Tick(1) << 30, false});
        if (fault_mode == 2)
            spec.ucp_rate = 0.3;
        if (fault_mode == 3)
            spec.channel_faults.push_back(
                {std::uint32_t(rng.below(2)), 1.0,
                 Tick(2000 + rng.below(6000)), 0, true});
        fs.armFaults(spec);
    }

    struct Record
    {
        Tick tick;
        ClientId client;
        std::uint64_t op;
        Completion::Kind kind;
        std::uint32_t bytes;
    };
    std::vector<Record> log;

    const auto makeTile = [&](Rng &r, ClientId client, std::uint64_t op) {
        RcTileWork t;
        t.client = client;
        t.op_id = op;
        t.cores_used = r.chance(0.6)
                           ? dies
                           : std::uint32_t(1 + r.below(dies));
        t.input_bytes = std::uint32_t(16 + r.below(113));
        t.out_bytes_per_core = std::uint32_t(8 + r.below(57));
        t.compute_time = compute_mode == 0   ? p.timing.t_read
                         : compute_mode == 1 ? fixed_compute
                                             : Tick(50 + r.below(1951));
        return t;
    };
    const auto makeRead = [&](Rng &r, ClientId client, std::uint64_t op) {
        ReadPageJob j;
        j.client = client;
        j.op_id = op;
        j.bytes = std::uint32_t(1 + r.below(p.geometry.page_bytes));
        j.sliced = r.chance(0.7);
        return j;
    };

    // Each client answers every fourth completion with one more tile
    // or read from its own stream while its budget lasts.
    struct Client
    {
        Rng rng;
        ClientId id = 0;
        std::uint32_t seen = 0;
        std::uint32_t follow_ups = 0;
    };
    std::vector<Client> clients(1 + rng.below(3));
    for (std::size_t c = 0; c < clients.size(); ++c) {
        clients[c].rng = Rng(seed * 131 + c);
        clients[c].follow_ups = std::uint32_t(rng.below(12));
        clients[c].id = fs.connect([&, c](const Completion &done) {
            log.push_back({eq.now(), done.client, done.op_id, done.kind,
                           done.bytes});
            Client &me = clients[c];
            if (++me.seen % 4 != 0 || me.follow_ups == 0)
                return;
            --me.follow_ups;
            const std::uint32_t ch =
                std::uint32_t(me.rng.below(p.geometry.channels));
            if (me.rng.chance(0.6))
                fs.submitTile(ch, makeTile(me.rng, me.id, 900 + me.seen));
            else
                fs.submitRead(ch, makeRead(me.rng, me.id, 900 + me.seen));
        });
    }

    // Open-loop batches: every client submits 3-6 batches of tiles
    // and reads, interleaved, at seeded ticks.
    for (const Client &cl : clients) {
        const std::uint64_t batches = 3 + rng.below(4);
        for (std::uint64_t b = 0; b < batches; ++b) {
            const Tick at = Tick(rng.below(12000));
            const std::uint32_t ch =
                std::uint32_t(rng.below(p.geometry.channels));
            const std::uint64_t tiles = rng.below(6);
            const std::uint64_t reads = rng.below(4);
            const std::uint64_t op = 10 * b + 1;
            std::vector<RcTileWork> ts;
            std::vector<ReadPageJob> rs;
            for (std::uint64_t i = 0; i < tiles; ++i)
                ts.push_back(makeTile(rng, cl.id, op));
            for (std::uint64_t i = 0; i < reads; ++i)
                rs.push_back(makeRead(rng, cl.id, op + 1));
            eq.schedule(at, [&fs, ch, ts, rs] {
                for (std::size_t i = 0; i < std::max(ts.size(), rs.size());
                     ++i) {
                    if (i < ts.size())
                        fs.submitTile(ch, ts[i]);
                    if (i < rs.size())
                        fs.submitRead(ch, rs[i]);
                }
            });
        }
    }
    eq.run();

    Fnv1a h;
    h.add(std::uint64_t(log.size()));
    for (const Record &r : log) {
        h.add(r.tick).add(r.client).add(r.op);
        h.add(std::uint8_t(r.kind)).add(r.bytes);
    }
    for (std::uint32_t c = 0; c < p.geometry.channels; ++c) {
        ChannelEngine &ce = fs.channel(c);
        h.add(ce.pagesComputed()).add(ce.arrayReads());
        h.add(ce.bus().bytesHigh()).add(ce.bus().bytesLow());
        h.add(ce.bus().busy().busyTicks()).add(ce.bus().grants());
        for (std::size_t d = 0; d < ce.dieCount(); ++d)
            h.add(ce.die(d).pagesComputed());
    }
    return h.value();
}

// Digests of seeds 1..50, recorded on the per-die read-compute model
// (one event per die and pipeline stage), before the lockstep dies of
// a tile were stepped as groups. A change to how a channel advances
// its dies must keep every one.
constexpr std::uint64_t kChannelDigests[] = {
    0x7858ba947b7749f2, 0xb8fb39972e60a802, 0xab9813ef3a5ec565,
    0x68b80c5d761e0bb0, 0x72d49aae22d99ea9, 0xf3bcce91abd5234f,
    0xa53735c055bc77b4, 0x2dcd31a9c95b0636, 0x21016faa3577d4e8,
    0x04a24fa73687c785, 0x4d16a57153798e57, 0xdd27114a9499fded,
    0x0b49c22d8b5b5276, 0x3fe78ec9ec1ebfc4, 0xc3bd3abf1ddf03fd,
    0x2b650ce5a529b7b5, 0x0595b4eeddc9e3b2, 0x34db0424324ed96f,
    0xc0790062421d589a, 0x1cb20168ce87a2c2, 0xe1a6548a9331e286,
    0x4cd9b7e9390ca98f, 0x1bb23fc29a87f5fa, 0xd6444c3974c7e0fd,
    0xa90429dd1918c472, 0xbb49d63079c77a62, 0xae141c286a5a518a,
    0xa6786355aa4d39f2, 0x7001f716da9a6522, 0x90b9bc260f84f65d,
    0x9df973a25b2c14b4, 0x23556f44bd145c3e, 0xd78cdc73e0895596,
    0x2563ae04589527a0, 0x7e3b7413095ef0fa, 0x9d6853e1b385dfc9,
    0xf1e08e0c72967a52, 0x0ac4e375553d11c6, 0x23a0d2fbef4a192e,
    0x3131714f21455862, 0xaaa6da632054e9a9, 0x00e32e1685c4eaf0,
    0x4b9e3e16bcc20849, 0xe6836dc1c93d3f31, 0x08e0a61f858831af,
    0x2647a14577211289, 0x0d3dac2116f6682e, 0xd5fd01b41bbacd92,
    0x310a4dce581b5fb4, 0xe925bb08a2d79e41,
};

TEST(ChannelDifferential, SeededRunsMatchRecordedDigests)
{
    for (std::size_t i = 0; i < std::size(kChannelDigests); ++i) {
        char got[24], want[24];
        std::snprintf(got, sizeof got, "0x%016llx",
                      (unsigned long long)channelRunDigest(i + 1));
        std::snprintf(want, sizeof want, "0x%016llx",
                      (unsigned long long)kChannelDigests[i]);
        EXPECT_STREQ(got, want) << "seed " << (i + 1);
    }
}

// --- placement --------------------------------------------------------------

TEST(WeightPlacement, RcPagesLandOnComputePlane)
{
    WeightPlacement wp(testParams().geometry);
    PageAddress a = wp.allocRcPage(0, 0);
    EXPECT_EQ(a.plane, 0u);
    EXPECT_EQ(a.block, 0u);
    EXPECT_EQ(a.page, 0u);
    PageAddress b = wp.allocRcPage(0, 0);
    EXPECT_EQ(b.page, 1u);
}

TEST(WeightPlacement, ReadPagesAvoidComputePlane)
{
    WeightPlacement wp(testParams().geometry);
    PageAddress a = wp.allocReadPage();
    EXPECT_EQ(a.plane, 1u); // last plane first
}

TEST(WeightPlacement, RoundRobinAcrossDies)
{
    FlashGeometry g = testParams().geometry;
    g.channels = 2;
    g.chips_per_channel = 2;
    WeightPlacement wp(g);
    PageAddress a = wp.allocReadPage();
    PageAddress b = wp.allocReadPage();
    PageAddress c = wp.allocReadPage();
    // Different dies for consecutive pages.
    EXPECT_FALSE(a.channel == b.channel && a.chip == b.chip &&
                 a.die == b.die);
    EXPECT_FALSE(b.channel == c.channel && b.chip == c.chip &&
                 b.die == c.die);
}

TEST(WeightPlacement, OccupancyTracksAllocations)
{
    WeightPlacement wp(testParams().geometry);
    const std::uint64_t cap = wp.capacityPages();
    for (std::uint64_t i = 0; i < cap / 2; ++i)
        wp.allocReadPage();
    EXPECT_DOUBLE_EQ(wp.occupancy(), 0.5);
    EXPECT_EQ(wp.freePages(), cap / 2);
}

TEST(WeightPlacement, FillsEntireDeviceWithoutOverlap)
{
    FlashGeometry g = testParams().geometry;
    WeightPlacement wp(g);
    PageIndexer ix(g);
    std::vector<bool> seen(ix.totalPages(), false);
    for (std::uint64_t i = 0; i < ix.totalPages(); ++i) {
        PageAddress a = wp.allocReadPage();
        std::uint64_t lin = ix.toLinear(a);
        EXPECT_FALSE(seen[lin]);
        seen[lin] = true;
    }
    EXPECT_EQ(wp.freePages(), 0u);
}

} // namespace
} // namespace camllm::flash
