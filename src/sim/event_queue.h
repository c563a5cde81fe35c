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
 *    differs from cal_base_'s: no digit differs -> level-0 bucket
 *    `when & (W - 1)`; digit k differs (k = 1..kUpperLevels) ->
 *    wheel k, slot index = that digit; beyond the top wheel's block
 *    -> the far-future heap;
 *  - cal_base_ moves within a wheel's block only by cascading that
 *    wheel's earliest occupied slot into the levels below it, and
 *    jumps across the top block only when everything else is empty
 *    (re-pulling now-in-block heap events in (when, seq) order) — so
 *    a pending event's level only ever decreases, each drain re-adds
 *    events in their original insertion order, and a newer event can
 *    never land in a lower level than an older same-tick one. That
 *    keeps same-tick FIFO order exact end to end;
 *  - levels are disjoint in time: every level-k event precedes every
 *    level-(k+1) event (they differ from cal_base_ at a higher
 *    digit), so the earliest pending event is always in the lowest
 *    non-empty level, found by an occupancy-bitmap scan.
 */
class EventQueue
{
  public:
    /** Inline capacity of an event record's callback storage. */
    static constexpr std::size_t kInlineBytes = InlineCallback::kInlineBytes;

    /**
     * @param window_ticks level-0 calendar width in ticks; rounded up
     * to a power of two and clamped to [kMinWindow, kMaxWindow]. 0
     * selects the CAMLLM_EQ_WINDOW environment variable when set, else
     * kDefaultWindow. The upper wheels scale with the window (slot
     * width of wheel k is window x 1024^(k-1) ticks), so a wider
     * window also widens the span the heap never sees.
     */
    explicit EventQueue(std::size_t window_ticks = 0);
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Number of events still pending. */
    std::size_t
    pending() const
    {
        return cal_count_ + wheel_count_ + heap_.size();
    }

    bool empty() const { return pending() == 0; }

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

    /** Execute the single earliest event. @return false if none left. */
    bool step();

    /** Run until the queue drains. */
    void run();

    /**
     * Run every event with timestamp <= @p limit, then advance the
     * clock to @p limit (even if idle). @return the new current time.
     */
    Tick runUntil(Tick limit);

    /** Drop all pending events and rewind the clock to zero. */
    void reset();

    /**
     * Event records ever carved from the pool (recycled nodes are not
     * re-counted); exposed so tests can verify free-list reuse.
     */
    std::size_t poolAllocated() const { return pool_allocated_; }

    /** Realized level-0 calendar width in ticks (power of two). */
    std::size_t windowTicks() const { return buckets_.size(); }

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

    /** Window a default-constructed queue uses: CAMLLM_EQ_WINDOW when
     *  set to a valid count, otherwise kDefaultWindow. The variable
     *  must be a plain base-10 tick count >= 1; anything else (trailing
     *  garbage, "1e6", empty, out of range) warns and is ignored. */
    static std::size_t defaultWindow();

  private:
    /** Event records per pool chunk. */
    static constexpr std::size_t kChunk = 512;

    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Event *next = nullptr; ///< bucket FIFO / free-list link
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
     * events in insertion order, and cascading drains the earliest
     * occupied slot at/after cal_base_'s digit into the levels below
     * (the slot span is exactly the next level's whole block).
     */
    struct Wheel
    {
        std::array<Bucket, kUpperSlots> slots;
        std::array<std::uint64_t, kUpperSlots / 64> occ{};
        std::size_t count = 0;
        unsigned shift = 0; ///< log2 slot width in ticks
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
    Event *allocate();
    void addChunk();
    /** Link a fully-constructed event into its level or the heap. */
    void enqueue(Event *ev);
    static void appendToBucket(Bucket &b, Event *ev);
    /**
     * Jump cal_base_ to the heap's earliest tick (W-aligned) and pull
     * every heap event inside the new top-wheel block into the
     * wheels/calendar; requires the calendar and all wheels empty.
     */
    void migrateFromHeap();
    /**
     * Tick of the earliest pending event, lazily cascading upper
     * wheels and migrating the heap as needed; pending() must be
     * nonzero. Re-anchors (cal_base_ advances) commit only while the
     * new anchor is <= @p commit_limit; past that the return value is
     * merely a lower bound > commit_limit (the anchor is untouched,
     * so a caller that stops at commit_limit never leaves cal_base_
     * ahead of the clock — which is what keeps later schedules at
     * ticks below the anchor impossible).
     */
    Tick peekEarliestTick(Tick commit_limit);
    /** Unlink and return the first pending event. */
    Event *popEarliest();

    std::vector<Bucket> buckets_; ///< level 0: one tick per bucket
    std::vector<std::uint64_t> occ0_; ///< level-0 occupancy bitmap
    Tick bucket_mask_ = 0; ///< buckets_.size() - 1 (power of two)
    std::size_t cal_count_ = 0;
    Tick cal_base_ = 0; ///< W-aligned window start (the level anchor)
    Tick cal_scan_ = 0; ///< resume point for the earliest-bucket scan

    std::array<Wheel, kUpperLevels> wheels_;
    std::size_t wheel_count_ = 0; ///< events across all upper wheels

    std::vector<FarEvent> heap_;

    std::vector<std::unique_ptr<Event[]>> chunks_;
    Event *free_ = nullptr;
    std::size_t free_count_ = 0;
    std::size_t chunk_used_ = kChunk; ///< cursor into chunks_.back()
    std::size_t pool_allocated_ = 0;

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace camllm

#endif // CAMLLM_SIM_EVENT_QUEUE_H
