/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single-threaded event queue with deterministic ordering: events
 * scheduled for the same tick execute in insertion order. All device
 * models (flash channels, dies, the NPU, DRAM) are driven from one
 * queue so cross-device interleavings are exact and reproducible.
 *
 * The kernel is allocation-free on the hot path: event records are
 * fixed-size nodes with inline callback storage (no std::function, no
 * per-event heap traffic) recycled through a free list. Pending events
 * live in a hierarchical timing-wheel calendar — a one-tick-resolution
 * near-future window scanned through an occupancy bitmap, backed by
 * geometrically coarser wheels whose slots cascade lazily into the
 * level below as the clock reaches them — so schedule/pop stay O(1)
 * amortized whether events are nanoseconds or whole simulated seconds
 * apart. Only events beyond the combined wheel span (window x 1024^4
 * ticks, ~2 weeks at the default window) fall back to a binary heap.
 *
 * Device models schedule in same-tick bursts (every die of a channel
 * finishes a tile in the same tR), so the calendar stores a tick's
 * events as chains: an event scheduled behind a calendar entry of the
 * same tick joins that entry's chain instead of being linked itself.
 * Only chain heads are linked, cascaded, heap-migrated and popped; a
 * popped head's chain then runs in schedule order without touching
 * the calendar again. executed() still counts callbacks, one per
 * scheduled event; popped() counts the heads, which is what chaining
 * cuts.
 */

#ifndef CAMLLM_SIM_EVENT_QUEUE_H
#define CAMLLM_SIM_EVENT_QUEUE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/inline_callback.h"

namespace camllm {

/**
 * Min-ordered event queue keyed by (tick, insertion sequence).
 *
 * Invariants (W = windowTicks(), a power of two; the level-0 window
 * [cal_base_, cal_base_ + W) is always W-aligned):
 *  - an event's level is decided by the highest base-kUpperSlots
 *    "digit" of its tick (counting from the W-aligned low bits) that
 *    differs from cal_base_'s: no digit differs -> level-0 slot
 *    `when & (W - 1)`; digit k differs (k = 1..kUpperLevels) ->
 *    wheel k, slot index = that digit; beyond the top wheel's block
 *    -> the far-future heap;
 *  - cal_base_ moves within a wheel's block only by cascading that
 *    wheel's earliest occupied slot into the levels below it, and
 *    jumps across the top block only when everything else is empty
 *    (re-pulling now-in-block heap events in (when, seq) order) — so
 *    a pending event's level only ever decreases, each drain re-adds
 *    events in their original insertion order, and a newer event can
 *    never land in a lower level than an older same-tick one. Every
 *    pending event of one tick therefore sits in one slot, in seq
 *    order, which keeps same-tick FIFO order exact end to end;
 *  - levels are disjoint in time: every level-k event precedes every
 *    level-(k+1) event (they differ from cal_base_ at a higher
 *    digit), so the earliest pending event is always in the lowest
 *    non-empty level, found by an occupancy-bitmap scan;
 *  - chains: a slot links only chain heads. An event bound for a slot
 *    whose last head has the same tick — always so at level 0, where
 *    a slot is one tick wide — joins that head's chain instead (a
 *    cascaded head brings its own chain along). By the invariant
 *    above that head's chain holds the newest pending events of the
 *    tick, so the joiner would have run right after them: a head and
 *    its chain run back to back in seq order. Heap entries never
 *    chain at schedule time. An event scheduled while a chain runs
 *    finds its head already unlinked and starts a new head, so it
 *    still runs after the rest of that chain. executed() counts
 *    callbacks; popped() counts heads, and only pops fall.
 */
class EventQueue
{
  public:
    /** Inline capacity of an event record's callback storage. */
    static constexpr std::size_t kInlineBytes = InlineCallback::kInlineBytes;

    /**
     * @param window_ticks level-0 calendar width in ticks; rounded up
     * to a power of two and clamped to [kMinWindow, kMaxWindow]. 0
     * selects kDefaultWindow. The upper wheels scale with the window
     * (slot width of wheel k is window x 1024^(k-1) ticks), so a wider
     * window also widens the span the heap never sees.
     */
    explicit EventQueue(std::size_t window_ticks = 0);
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Total number of callbacks executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Chain heads popped from the calendar so far; each runs with its
     * chain, so executed() / popped() is the mean chain length.
     */
    std::uint64_t popped() const { return popped_; }

    /**
     * Events scheduled so far, which is also the sequence number the
     * next scheduled event receives: a caller that records it after
     * scheduling can later tell whether its event is still the newest.
     */
    std::uint64_t scheduled() const { return next_seq_; }

    /** Number of events still pending, chained ones included. */
    std::size_t pending() const { return pending_; }

    bool empty() const { return pending_ == 0; }

    /**
     * Schedule callable @p fn at absolute time @p when.
     * @pre when >= now(); scheduling in the past is a simulator bug
     * and panics with the offending (when, now, seq).
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        // Construct the callback before linking the event in, so a
        // throwing callable constructor leaves no half-initialized
        // node in the calendar (the unlinked node merely leaks back
        // to the pool on queue destruction).
        Event *ev = acquire(when);
        ev->fn.emplace(std::forward<F>(fn));
        enqueue(ev);
        ++pending_;
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Pre-size the far-future heap and the event pool for @p events
     * pending events, avoiding regrowth mid-simulation.
     */
    void reserve(std::size_t events);

    /**
     * Execute the single earliest event (one callback: a popped head
     * leaves the rest of its chain to the following calls).
     * @return false if none left.
     */
    bool step() { return stepUntil(kTickMax); }

    /** Run until the queue drains. */
    void run();

    /**
     * Run every event with timestamp <= @p limit, then advance the
     * clock to @p limit (even if idle). @return the new current time.
     */
    Tick runUntil(Tick limit);

    /**
     * Drop all pending events and rewind the clock to zero. Called
     * from a callback, it also drops the rest of the running chain.
     */
    void reset();

    /**
     * Event records ever carved from the pool (recycled nodes are not
     * re-counted); exposed so tests can verify free-list reuse.
     */
    std::size_t poolAllocated() const { return pool_allocated_; }

    /** Realized level-0 calendar width in ticks (power of two). */
    std::size_t windowTicks() const { return slots0_.size(); }

    /** Events currently parked in the far-future heap (beyond the
     *  combined wheel span); exposed so tests can pin when the heap
     *  fallback engages. */
    std::size_t heapPending() const { return heap_.size(); }

    static constexpr std::size_t kDefaultWindow = 1024;
    static constexpr std::size_t kMinWindow = 16;
    static constexpr std::size_t kMaxWindow = std::size_t(1) << 20;

    /** Slots per upper wheel; slot width of wheel k (1-based) is
     *  windowTicks() * kUpperSlots^(k-1). */
    static constexpr std::size_t kUpperSlots = 1024;

    /** Upper wheels above the level-0 window. */
    static constexpr unsigned kUpperLevels = 4;

  private:
    /** Event records per pool chunk. */
    static constexpr std::size_t kChunk = 512;

    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Event *next = nullptr; ///< wheel-slot FIFO / free-list link
        /**
         * Chain link. On a head: the last member of its chain, or
         * nullptr when it has none. On a member: the next member,
         * the last one pointing back to the first (a ring, so a head
         * reaches both chain ends through this one pointer).
         */
        Event *chain = nullptr;
        InlineCallback fn;
    };

    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /**
     * One upper wheel: kUpperSlots buckets of 2^shift ticks each,
     * indexed by the tick's level digit `(when >> shift) % kUpperSlots`.
     * It holds exactly the events inside cal_base_'s 2^(shift+10)-tick
     * block whose digit differs from cal_base_'s; a slot keeps its
     * heads in insertion order, and cascading drains the earliest
     * occupied slot at/after cal_base_'s digit into the levels below
     * (the slot span is exactly the next level's whole block).
     */
    struct Wheel
    {
        std::array<Bucket, kUpperSlots> slots;
        std::array<std::uint64_t, kUpperSlots / 64> occ{};
        std::size_t count = 0; ///< heads across this wheel's slots
        unsigned shift = 0;    ///< log2 slot width in ticks
    };

    /** Far-future reference; heap-ordered by (when, seq). */
    struct FarEvent
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
    };

    /** Heap ordering predicate: a executes after b. */
    static bool farLater(const FarEvent &a, const FarEvent &b);

    /** Pop a pooled record and stamp (when, seq); not yet linked in. */
    Event *acquire(Tick when);
    /** Destroy the callback and return the node to the pool. */
    void release(Event *ev);
    /** Release chain members @p first through @p last, in ring
     *  order. */
    void releaseMembers(Event *first, Event *last);
    /** Release @p head and every member of its chain. */
    void releaseGroup(Event *head);
    Event *allocate();
    void addChunk();
    /**
     * Put head @p ev (with any chain it carries) into its level: onto
     * the chain of a same-tick head ending its slot, else linked as a
     * new head, else (beyond the wheels) into the heap.
     */
    void enqueue(Event *ev);
    /** Append head @p ev and its chain behind @p head's chain. */
    static void joinChain(Event *head, Event *ev);
    /**
     * Jump cal_base_ to the heap's earliest tick (W-aligned) and pull
     * every heap event inside the new top-wheel block into the
     * wheels/calendar; requires the calendar and all wheels empty.
     */
    void migrateFromHeap();
    /**
     * Tick of the earliest pending head, lazily cascading upper
     * wheels and migrating the heap as needed; some head must be
     * linked. Re-anchors (cal_base_ advances) commit only while the
     * new anchor is <= @p commit_limit; past that the return value is
     * merely a lower bound > commit_limit (the anchor is untouched,
     * so a caller that stops at commit_limit never leaves cal_base_
     * ahead of the clock — which is what keeps later schedules at
     * ticks below the anchor impossible). A return value <=
     * @p commit_limit is the tick of a level-0 head.
     */
    Tick peekEarliestTick(Tick commit_limit);
    /**
     * Run the earliest pending callback if its tick is <= @p limit:
     * the next member of the running chain, else a newly popped head.
     * @return false if nothing ran.
     */
    bool stepUntil(Tick limit);

    std::vector<Event *> slots0_; ///< level 0: one tick, one head each
    std::vector<std::uint64_t> occ0_; ///< level-0 occupancy bitmap
    Tick slot_mask_ = 0; ///< slots0_.size() - 1 (power of two)
    std::size_t cal_count_ = 0; ///< heads in level 0
    Tick cal_base_ = 0; ///< W-aligned window start (the level anchor)
    Tick cal_scan_ = 0; ///< resume point for the earliest-slot scan

    std::array<Wheel, kUpperLevels> wheels_;
    std::size_t wheel_count_ = 0; ///< heads across all upper wheels

    std::vector<FarEvent> heap_;

    /** Rest of the running chain: next member to run (nullptr when
     *  no chain is running) and the chain's last member. */
    Event *ready_ = nullptr;
    Event *ready_last_ = nullptr;

    std::vector<std::unique_ptr<Event[]>> chunks_;
    Event *free_ = nullptr;
    std::size_t free_count_ = 0;
    std::size_t chunk_used_ = kChunk; ///< cursor into chunks_.back()
    std::size_t pool_allocated_ = 0;

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t popped_ = 0;
    std::size_t pending_ = 0;
};

} // namespace camllm

#endif // CAMLLM_SIM_EVENT_QUEUE_H
