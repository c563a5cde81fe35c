/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/inline_callback.h"

namespace camllm {
namespace {

TEST(EventQueue, StartsEmptyAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    std::vector<Tick> times;
    eq.schedule(10, [&] {
        times.push_back(eq.now());
        eq.scheduleIn(5, [&] { times.push_back(eq.now()); });
    });
    eq.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 10u);
    EXPECT_EQ(times[1], 15u);
}

TEST(EventQueue, ScheduleAtCurrentTickRuns)
{
    EventQueue eq;
    int hits = 0;
    eq.schedule(7, [&] {
        eq.schedule(7, [&] { ++hits; }); // zero-delay follow-up
    });
    eq.run();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, RunUntilAdvancesClock)
{
    EventQueue eq;
    int hits = 0;
    eq.schedule(10, [&] { ++hits; });
    eq.schedule(100, [&] { ++hits; });
    eq.runUntil(50);
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, CountsExecuted)
{
    EventQueue eq;
    for (int i = 0; i < 25; ++i)
        eq.schedule(Tick(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 25u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    eq.step();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 5000; ++i)
        eq.schedule(Tick((i * 7919) % 1000), [&] {
            monotone = monotone && eq.now() >= last;
            last = eq.now();
        });
    eq.run();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(eq.executed(), 5000u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.step();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduled in the past");
}

// Determinism regression for the pooled calendar/heap kernel: 10k
// events with randomized ticks (dense same-tick bursts inside the
// calendar window plus far-future outliers that migrate from the
// heap) must execute in exact (tick, insertion order).
TEST(EventQueue, RandomizedSameTickInsertionOrderPreserved)
{
    Rng rng(1234);
    EventQueue eq;
    std::vector<std::pair<Tick, int>> fired; // (tick, insertion idx)
    std::vector<std::pair<Tick, int>> want;
    fired.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        // ~40 insertions per tick near now, sparse far tail.
        Tick when = (i % 10 == 0) ? Tick(rng.below(2'000'000))
                                  : Tick(rng.below(250));
        want.emplace_back(when, i);
        eq.schedule(when, [&fired, when, i] {
            fired.emplace_back(when, i);
        });
    }
    eq.run();
    // Stable sort by tick == required order: ties keep insertion order.
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), want.size());
    EXPECT_EQ(fired, want);
    EXPECT_EQ(eq.executed(), 10000u);
}

// Pool recycling: draining and refilling the queue must reuse event
// records from the free list instead of growing the pool.
TEST(EventQueue, PoolRecyclesEventRecords)
{
    EventQueue eq;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 100; ++i)
            eq.schedule(eq.now() + Tick(i % 7), [] {});
        eq.run();
    }
    // 100 concurrently-pending events, 50 rounds: without recycling
    // the pool would hold 5000 records.
    EXPECT_LE(eq.poolAllocated(), 512u);
    EXPECT_EQ(eq.executed(), 5000u);
}

TEST(EventQueue, ReservePreallocatesPool)
{
    EventQueue eq;
    eq.reserve(4000);
    const std::size_t pre = eq.poolAllocated();
    EXPECT_GE(pre, 4000u);
    for (int i = 0; i < 4000; ++i)
        eq.schedule(Tick(i), [] {});
    eq.run();
    // Scheduling within the reservation must not grow the pool.
    EXPECT_EQ(eq.poolAllocated(), pre);
}

// Callbacks bigger than the inline storage take the boxed path; their
// captures must survive and be destroyed exactly once.
TEST(EventQueue, OversizedCallbacksExecuteAndDestroy)
{
    EventQueue eq;
    auto payload = std::make_shared<int>(41);
    std::weak_ptr<int> watch = payload;
    std::uint64_t sum = 0;
    struct Big
    {
        std::shared_ptr<int> p;
        std::uint64_t pad[8];
    } big{std::move(payload), {1, 2, 3, 4, 5, 6, 7, 8}};
    static_assert(sizeof(Big) > EventQueue::kInlineBytes);
    eq.schedule(5, [big = std::move(big), &sum] {
        sum = *big.p + big.pad[7];
    });
    eq.run();
    EXPECT_EQ(sum, 49u);
    EXPECT_TRUE(watch.expired()); // capture destroyed after execution
}

// The callback slot event records share with the flash bus's
// transaction nodes: inline and boxed callables both run, and both
// release their captures on reset() and when a filled slot dies.
TEST(InlineCallback, InlineAndBoxedCapturesReleased)
{
    auto payload = std::make_shared<int>(41);
    struct Big
    {
        std::shared_ptr<int> p;
        std::uint64_t pad[8];
    };
    static_assert(sizeof(Big) > InlineCallback::kInlineBytes);
    std::uint64_t sum = 0;
    {
        InlineCallback small;
        InlineCallback boxed;
        small.emplace([p = payload, &sum] { sum += std::uint64_t(*p); });
        boxed.emplace([big = Big{payload, {1, 2, 3, 4, 5, 6, 7, 8}}, &sum] {
            sum += std::uint64_t(*big.p) + big.pad[7];
        });
        EXPECT_EQ(payload.use_count(), 3);
        small();
        boxed();
        EXPECT_EQ(sum, 41u + 49u);
        small.reset();
        EXPECT_EQ(payload.use_count(), 2);
    } // `boxed` is destroyed still filled
    EXPECT_EQ(payload.use_count(), 1);
}

// --- configurable calendar window ---------------------------------------

TEST(EventQueueWindow, DefaultAndRounding)
{
    EXPECT_EQ(EventQueue().windowTicks(), EventQueue::kDefaultWindow);
    EXPECT_EQ(EventQueue(100).windowTicks(), 128u);
    EXPECT_EQ(EventQueue(64).windowTicks(), 64u);
    // Clamped to the minimum width.
    EXPECT_EQ(EventQueue(1).windowTicks(), EventQueue::kMinWindow);
}

// Events repeatedly straddling a tiny calendar window (some in the
// current window, some migrating through the far-future heap) must
// still execute in exact (tick, insertion) order.
TEST(EventQueueWindow, StraddlingEventsKeepOrderAcrossBoundary)
{
    Rng rng(99);
    EventQueue eq(16);
    ASSERT_EQ(eq.windowTicks(), 16u);
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, int>> want;
    for (int i = 0; i < 4000; ++i) {
        // Dense ticks spanning several windows plus far outliers.
        Tick when = (i % 5 == 0) ? Tick(1000 + rng.below(500))
                                 : Tick(rng.below(80));
        want.emplace_back(when, i);
        eq.schedule(when, [&fired, when, i] {
            fired.emplace_back(when, i);
        });
    }
    eq.run();
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, want);
}

// Nested scheduling exactly at the window edge: an event at the last
// in-window tick schedules one just past the (advanced) boundary and
// one far beyond it.
TEST(EventQueueWindow, NestedSchedulingAcrossBoundary)
{
    EventQueue eq(16);
    std::vector<Tick> times;
    eq.schedule(15, [&] {
        times.push_back(eq.now());
        eq.schedule(16, [&] { times.push_back(eq.now()); });
        eq.schedule(500, [&] { times.push_back(eq.now()); });
    });
    eq.schedule(31, [&] { times.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{15, 16, 31, 500}));
}

// Events exactly at (and adjacent to) every wheel-block boundary, each
// tick scheduled twice, inserted in descending order: the hierarchy
// must still execute in exact (tick, insertion) order, and only ticks
// beyond the top wheel's block may touch the far-future heap.
TEST(EventQueueWindow, EventsAtExactBlockBoundaries)
{
    EventQueue eq(16); // W=16: block widths 2^14, 2^24, 2^34, 2^44
    const std::vector<Tick> edges = {
        Tick(1) << 4,  Tick(1) << 14, Tick(1) << 24,
        Tick(1) << 34, Tick(1) << 44,
    };
    std::vector<Tick> ticks = {0};
    for (Tick e : edges) {
        ticks.push_back(e - 1);
        ticks.push_back(e);
        ticks.push_back(e + 1);
    }
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, int>> want;
    int idx = 0;
    for (auto it = ticks.rbegin(); it != ticks.rend(); ++it)
        for (int rep = 0; rep < 2; ++rep, ++idx) {
            const Tick when = *it;
            want.emplace_back(when, idx);
            eq.schedule(when, [&fired, when, idx] {
                fired.emplace_back(when, idx);
            });
        }
    // Only 2^44 and 2^44 + 1 lie beyond the top block (x2 each).
    EXPECT_EQ(eq.heapPending(), 4u);
    eq.run();
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, want);
}

// Randomized mix spanning every level (dense same-tick collisions in
// the window, mid wheels, and past-top-block heap events).
TEST(EventQueueWindow, RandomizedAllLevelsOrderPreserved)
{
    Rng rng(7);
    EventQueue eq(16);
    const Tick scales[] = {64, Tick(1) << 16, Tick(1) << 26,
                           Tick(1) << 36, Tick(1) << 45};
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, int>> want;
    for (int i = 0; i < 4000; ++i) {
        const Tick when = Tick(rng.below(scales[i % 5]));
        want.emplace_back(when, i);
        eq.schedule(when, [&fired, when, i] {
            fired.emplace_back(when, i);
        });
    }
    eq.run();
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, want);
    EXPECT_EQ(eq.executed(), 4000u);
}

// Regression for the lazily-cascading calendar: a runUntil() that
// stops inside an idle gap peeks at (but must not commit past) the
// next pending tick. Events scheduled afterwards, below that tick,
// must still run first and in order.
TEST(EventQueue, RunUntilIdleGapThenEarlierSchedule)
{
    EventQueue eq(16);
    std::vector<Tick> times;
    auto mark = [&] { times.push_back(eq.now()); };
    eq.schedule(100000, mark); // two wheels up for W=16
    eq.runUntil(50);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.schedule(60, mark);
    eq.schedule(55, mark); // same upper-wheel slot as 60, earlier tick
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{55, 60, 100000}));
}

// The bucket-scan cursor caches the last found tick; an event
// scheduled below it (but past now) must rewind the cursor.
TEST(EventQueue, RunUntilKeepsScanCursorConsistent)
{
    EventQueue eq;
    std::vector<Tick> times;
    auto mark = [&] { times.push_back(eq.now()); };
    eq.schedule(100, mark);
    eq.schedule(900, mark);
    eq.runUntil(500); // runs 100, scan cursor parks on 900
    eq.schedule(600, mark);
    eq.runUntil(700); // must find 600 despite the parked cursor
    EXPECT_EQ(times, (std::vector<Tick>{100, 600}));
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{100, 600, 900}));
}

// reset() must clear every level (window, wheels, heap) and the scan
// cursor, so earlier ticks are schedulable again from a cold clock.
TEST(EventQueue, ResetClearsScanCursorAndWheels)
{
    EventQueue eq(16);
    eq.schedule(30, [] {});
    eq.schedule(100000, [] {});        // upper wheel
    eq.schedule(Tick(1) << 44, [] {}); // heap
    eq.runUntil(40);                   // executes 30, peeks the rest
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    std::vector<Tick> times;
    auto mark = [&] { times.push_back(eq.now()); };
    eq.schedule(5, mark);
    eq.schedule(2, mark);
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{2, 5}));
    EXPECT_EQ(eq.executed(), 2u);
}

// Same-tick FIFO across cascade depths: events for one far tick are
// inserted at different anchor positions (so they enter at different
// wheel levels) and must still interleave in insertion order.
TEST(EventQueue, SameTickFifoAcrossWheelCascades)
{
    EventQueue eq(16);
    std::vector<int> order;
    const Tick far = 20'000'000; // third wheel for W=16
    eq.schedule(far, [&] { order.push_back(0); });
    eq.schedule(100, [&] {
        eq.schedule(far, [&] { order.push_back(2); });
    });
    eq.schedule(far, [&] { order.push_back(1); });
    // After this runs the anchor sits one block below `far`, so the
    // callback's insertion enters at a lower wheel than 0/1/2 did —
    // yet it must still run last within the tick.
    eq.schedule(17'000'000, [&] {
        eq.schedule(far, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// reserve() must be idempotent and respect free-list refills: only a
// genuinely larger requirement may grow the pool.
TEST(EventQueue, ReserveTopUpAccounting)
{
    EventQueue eq;
    eq.reserve(1000);
    const std::size_t p1 = eq.poolAllocated();
    EXPECT_GE(p1, 1000u);
    eq.reserve(500); // already covered
    EXPECT_EQ(eq.poolAllocated(), p1);
    for (int i = 0; i < 800; ++i)
        eq.schedule(Tick(i % 97), [] {});
    eq.run();
    eq.reserve(1000); // free list was refilled by the run
    EXPECT_EQ(eq.poolAllocated(), p1);
    eq.reserve(5000);
    EXPECT_GE(eq.poolAllocated(), 5000u);
}

// Same-tick ordering must hold across the calendar/heap boundary:
// events scheduled for one far tick from the heap and events
// scheduled for that tick after the window advanced must interleave
// in insertion order.
TEST(EventQueue, HeapMigrationKeepsFifoWithinTick)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick far = 1'000'000;
    eq.schedule(far, [&] { order.push_back(0); }); // via heap
    eq.schedule(10, [&eq, &order, far] {
        // Scheduled third in real time, so it runs after both others.
        eq.schedule(far, [&order] { order.push_back(1); });
    });
    eq.schedule(far, [&] { order.push_back(2); }); // via heap
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

// --- same-tick chains ----------------------------------------------------

// A same-tick burst is linked, cascaded and popped as one head: the
// die pattern (every die finishing in the same tR) costs one pop.
TEST(EventQueueChain, SameTickBurstCostsOnePop)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(30'000, [&order, i] { order.push_back(i); });
    EXPECT_EQ(eq.pending(), 16u);
    eq.run();
    std::vector<int> want(16);
    for (int i = 0; i < 16; ++i)
        want[i] = i;
    EXPECT_EQ(order, want);
    EXPECT_EQ(eq.executed(), 16u);
    EXPECT_EQ(eq.popped(), 1u);
}

// step() runs exactly one callback, also inside a chain; the rest of
// the chain stays pending for the next calls.
TEST(EventQueueChain, StepRunsOneCallbackOfAChain)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        eq.schedule(4, [&order, i] { order.push_back(i); });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.popped(), 1u);
    ASSERT_TRUE(eq.step());
    ASSERT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.popped(), 1u);
}

// An event scheduled at the current tick from inside a chain member
// starts a new head (the running one is unlinked), so it runs after
// every remaining member of the running chain, in schedule order.
TEST(EventQueueChain, ZeroDelayFromMemberRunsAfterRestOfChain)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(10, [&eq, &order, i] {
            order.push_back(i);
            if (i == 0 || i == 2) {
                eq.schedule(10, [&order, i] { order.push_back(10 + i); });
                eq.scheduleIn(0, [&order, i] { order.push_back(20 + i); });
            }
        });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<int>{0, 1, 2, 3, 4, 10, 20, 12, 22}));
    EXPECT_EQ(eq.now(), 10u);
    // The four follow-ups chain behind one new head.
    EXPECT_EQ(eq.popped(), 2u);
}

// A wheel slot spans many ticks: an event whose slot ends with a head
// of another tick is linked as a new head, not chained. Cascading the
// slot re-joins same-tick heads, and FIFO order holds throughout.
TEST(EventQueueChain, WheelSlotTailOfOtherTickDoesNotChain)
{
    EventQueue eq(16); // ticks 96..111 share one wheel-1 slot
    std::vector<int> order;
    auto at = [&](Tick when, int id) {
        eq.schedule(when, [&order, id] { order.push_back(id); });
    };
    at(100, 0);
    at(101, 1); // other tick: new head
    at(100, 2); // slot ends with tick 101: new head, not chained
    at(100, 3); // chains behind 2
    at(101, 4); // slot ends with tick 100: new head
    EXPECT_EQ(eq.pending(), 5u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1, 4}));
    // The cascade into level 0 folds each tick into one head.
    EXPECT_EQ(eq.popped(), 2u);
}

// Events parked in the far-future heap never chain there; migrated
// into the wheels they become one chain, ahead of same-tick events
// scheduled after the migration, which chain behind them.
TEST(EventQueueChain, HeapMigratedEventsStayAheadOfLaterChained)
{
    EventQueue eq(16); // wheels end at 2^44 ticks
    const Tick far = (Tick(1) << 45) + 100;
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        eq.schedule(far, [&order, i] { order.push_back(i); });
    eq.schedule(far - 5, [&eq, &order, far] {
        order.push_back(-1);
        for (int i = 3; i < 5; ++i)
            eq.schedule(far, [&order, i] { order.push_back(i); });
    });
    EXPECT_EQ(eq.heapPending(), 4u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.popped(), 2u);
    EXPECT_EQ(eq.executed(), 6u);
}

// pending() counts chained events, runUntil() stops between ticks,
// and reset() drops whole chains from every level.
TEST(EventQueueChain, PendingRunUntilAndResetWithChains)
{
    EventQueue eq(16);
    int hits = 0;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&hits] { ++hits; });
    for (int i = 0; i < 4; ++i)
        eq.schedule(20, [&hits] { ++hits; });
    for (int i = 0; i < 3; ++i)
        eq.schedule(100000, [&hits] { ++hits; }); // upper wheel
    EXPECT_EQ(eq.pending(), 15u);
    EXPECT_EQ(eq.runUntil(10), 10u);
    EXPECT_EQ(hits, 8);
    EXPECT_EQ(eq.pending(), 7u);
    ASSERT_TRUE(eq.step()); // first of the tick-20 chain
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 6u);
    EXPECT_EQ(eq.runUntil(20), 20u); // the rest of that chain
    EXPECT_EQ(hits, 12);
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_EQ(eq.popped(), 2u);
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.popped(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    for (int i = 0; i < 4; ++i)
        eq.schedule(3, [&hits] { ++hits; });
    eq.run();
    EXPECT_EQ(hits, 16);
    EXPECT_EQ(eq.popped(), 1u);
}

// reset() from inside a chain member drops the rest of the running
// chain (releasing its captures) just as it drops everything linked;
// the queue is then usable from a cold clock.
TEST(EventQueueChain, ResetFromCallbackDropsRestOfChain)
{
    EventQueue eq;
    auto token = std::make_shared<int>(0);
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        eq.schedule(7, [&eq, &order, i, token] {
            order.push_back(i);
            if (i == 2) {
                eq.reset();
                eq.schedule(1, [&order] { order.push_back(100); });
            }
        });
    eq.schedule(9, [token] {});
    EXPECT_EQ(token.use_count(), 8);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100}));
    EXPECT_EQ(eq.now(), 1u);
    EXPECT_EQ(eq.executed(), 1u); // counted afresh after the reset
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(token.use_count(), 1);
}

// Every pending chain member's capture is destroyed on reset() and on
// queue destruction, at every level.
TEST(EventQueueChain, PendingChainCapturesReleased)
{
    auto token = std::make_shared<int>(0);
    const Tick ticks[] = {40, 40, 40, 200000, 200000, Tick(1) << 45};
    {
        EventQueue eq(16);
        for (Tick t : ticks)
            for (int i = 0; i < 4; ++i)
                eq.schedule(t, [token] {});
        EXPECT_EQ(token.use_count(), 25);
        eq.reset();
        EXPECT_EQ(token.use_count(), 1);
        for (Tick t : ticks)
            for (int i = 0; i < 4; ++i)
                eq.schedule(t, [token] {});
        EXPECT_TRUE(eq.step()); // leaves a running chain behind
        EXPECT_EQ(token.use_count(), 24);
    }
    EXPECT_EQ(token.use_count(), 1);
}

// Differential test against a std::map<(when, seq)> reference: bursty
// same-tick schedules (zero-delay ones from callbacks included) at
// every wheel level, with the window at its minimum and its default.
void
chainDifferential(std::size_t window, std::uint64_t seed)
{
    constexpr int kMaxEvents = 30000;
    // Delays: mostly same-tick bursts, tR-like and gap-like spans,
    // and the odd far-future one for the upper wheels and the heap.
    const Tick delays[] = {0,       0,       0,    7,    30'000,
                           30'000,  1024,    4096, 100'000,
                           1 << 22, Tick(1) << 36, Tick(1) << 45};
    // Children of event `id` depend only on (seed, id), so both sides
    // replay the same workload for as long as their orders agree.
    auto children = [&](int id, Tick now, auto &&sched) {
        Rng r(seed * 1000003 + std::uint64_t(id));
        const int n = int(r.below(4));
        const Tick d = delays[r.below(std::size(delays))];
        for (int c = 0; c < n; ++c)
            sched(now + (r.below(3) == 0 ? delays[r.below(std::size(delays))]
                                         : d));
    };

    using Fired = std::vector<std::pair<Tick, int>>;
    Fired got;
    {
        EventQueue eq(window);
        int next_id = 0;
        std::function<void(Tick)> sched = [&](Tick when) {
            if (next_id >= kMaxEvents)
                return;
            const int id = next_id++;
            eq.schedule(when, [&, id] {
                got.emplace_back(eq.now(), id);
                children(id, eq.now(), sched);
            });
        };
        Rng roots(seed);
        for (int i = 0; i < 200; ++i)
            sched(Tick(roots.below(4)) * 30'000);
        eq.run();
        EXPECT_EQ(eq.executed(), got.size());
        EXPECT_LT(eq.popped() * 2, eq.executed()); // chains engaged
    }

    Fired want;
    {
        std::map<std::pair<Tick, std::uint64_t>, int> ref;
        std::uint64_t seq = 0;
        int next_id = 0;
        auto sched = [&](Tick when) {
            if (next_id >= kMaxEvents)
                return;
            ref.emplace(std::make_pair(when, seq++), next_id++);
        };
        Rng roots(seed);
        for (int i = 0; i < 200; ++i)
            sched(Tick(roots.below(4)) * 30'000);
        while (!ref.empty()) {
            const auto [key, id] = *ref.begin();
            ref.erase(ref.begin());
            want.emplace_back(key.first, id);
            children(id, key.first, sched);
        }
    }
    EXPECT_EQ(got.size(), std::size_t(kMaxEvents));
    EXPECT_EQ(got, want);
}

TEST(EventQueueChain, RandomizedDifferentialWindow16)
{
    chainDifferential(16, 11);
    chainDifferential(16, 12);
}

TEST(EventQueueChain, RandomizedDifferentialWindow1024)
{
    chainDifferential(1024, 21);
    chainDifferential(1024, 22);
}

} // namespace
} // namespace camllm
