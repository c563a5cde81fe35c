#include "event_queue.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace camllm {

bool
EventQueue::farLater(const FarEvent &a, const FarEvent &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    return a.seq > b.seq;
}

namespace {

/** Smallest power of two >= @p n within [lo, hi]. */
std::size_t
roundUpPow2Clamped(std::size_t n, std::size_t lo, std::size_t hi)
{
    n = std::max(n, lo);
    n = std::min(n, hi);
    std::size_t p = lo;
    while (p < n)
        p <<= 1;
    return p;
}

/**
 * Ring-scan an occupancy bitmap: visit @p count slots of the
 * @p size-slot ring (size a power of two) starting at @p start and
 * return the offset of the first occupied one, or @p count if none.
 */
std::size_t
scanOccupied(const std::uint64_t *occ, std::size_t size,
             std::size_t start, std::size_t count)
{
    std::size_t off = 0;
    while (off < count) {
        const std::size_t idx = (start + off) & (size - 1);
        const unsigned bit = idx & 63;
        // Stop each stride at the word edge and at the ring edge so
        // shifted-out low bits and wrapped slots are never misread.
        const std::size_t stride = std::min(
            count - off, std::min<std::size_t>(64 - bit, size - idx));
        const std::uint64_t word = occ[idx >> 6] >> bit;
        if (word != 0) {
            const std::size_t tz = std::size_t(std::countr_zero(word));
            if (tz < stride)
                return off + tz;
        }
        off += stride;
    }
    return count;
}

} // namespace

EventQueue::EventQueue(std::size_t window_ticks)
    : slots0_(roundUpPow2Clamped(window_ticks == 0 ? kDefaultWindow
                                                   : window_ticks,
                                 kMinWindow, kMaxWindow),
              nullptr)
{
    slot_mask_ = Tick(slots0_.size() - 1);
    occ0_.assign((slots0_.size() + 63) / 64, 0);
    const unsigned window_log2 =
        unsigned(std::countr_zero(slots0_.size()));
    for (unsigned k = 0; k < kUpperLevels; ++k)
        wheels_[k].shift = window_log2 + 10 * k; // kUpperSlots == 2^10
    heap_.reserve(slots0_.size());
    addChunk();
}

// Pending callbacks are destroyed with the pool's records (every
// InlineCallback releases its capture), so captured state is freed.
EventQueue::~EventQueue() = default;

void
EventQueue::addChunk()
{
    chunks_.push_back(std::make_unique<Event[]>(kChunk));
    chunk_used_ = 0;
}

EventQueue::Event *
EventQueue::allocate()
{
    if (free_ != nullptr) {
        Event *ev = free_;
        free_ = ev->next;
        --free_count_;
        return ev;
    }
    if (chunk_used_ == kChunk)
        addChunk();
    ++pool_allocated_;
    return &chunks_.back()[chunk_used_++];
}

EventQueue::Event *
EventQueue::acquire(Tick when)
{
    CAMLLM_ASSERT(when >= now_,
                  "event scheduled in the past "
                  "(when=%llu now=%llu seq=%llu)",
                  (unsigned long long)when, (unsigned long long)now_,
                  (unsigned long long)next_seq_);
    Event *ev = allocate();
    ev->when = when;
    ev->seq = next_seq_++;
    ev->next = nullptr;
    ev->chain = nullptr;
    return ev;
}

void
EventQueue::joinChain(Event *head, Event *ev)
{
    // Rings: head->chain is its last member, whose link is the first
    // member. Splice ev (then ev's own members) in after head's last.
    Event *const head_last = head->chain;
    Event *const ev_last = ev->chain;
    Event *const first = head_last != nullptr ? head_last->chain : ev;
    if (ev_last != nullptr) {
        ev->chain = ev_last->chain;
        ev_last->chain = first;
    } else {
        ev->chain = first;
    }
    if (head_last != nullptr)
        head_last->chain = ev;
    head->chain = ev_last != nullptr ? ev_last : ev;
}

void
EventQueue::enqueue(Event *ev)
{
    const Tick when = ev->when;
    // Level = highest digit differing from the anchor (see header).
    // The anchor never crosses a block boundary without draining the
    // covering slot first, so for a fixed tick this level is monotone
    // non-increasing over time — a newer event can never land below
    // an older same-tick one, which keeps same-tick FIFO order exact
    // and makes a same-tick head ending the slot the right chain to
    // join.
    if ((when >> wheels_[0].shift) == (cal_base_ >> wheels_[0].shift)) {
        const std::size_t idx = std::size_t(when & slot_mask_);
        Event *&head = slots0_[idx];
        if (head != nullptr) {
            joinChain(head, ev); // a level-0 slot is one tick wide
            return;
        }
        head = ev;
        occ0_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
        ++cal_count_;
        if (when < cal_scan_)
            cal_scan_ = when;
        return;
    }
    for (Wheel &w : wheels_) {
        if ((when >> (w.shift + 10)) == (cal_base_ >> (w.shift + 10))) {
            const std::size_t idx =
                std::size_t(when >> w.shift) & (kUpperSlots - 1);
            Bucket &b = w.slots[idx];
            if (b.tail != nullptr && b.tail->when == when) {
                joinChain(b.tail, ev);
                return;
            }
            ev->next = nullptr;
            if (b.tail == nullptr) {
                b.head = ev;
                w.occ[idx >> 6] |= std::uint64_t(1) << (idx & 63);
            } else {
                b.tail->next = ev;
            }
            b.tail = ev;
            ++w.count;
            ++wheel_count_;
            return;
        }
    }
    heap_.push_back(FarEvent{when, ev->seq, ev});
    std::push_heap(heap_.begin(), heap_.end(), farLater);
}

void
EventQueue::release(Event *ev)
{
    ev->fn.reset();
    ev->next = free_;
    free_ = ev;
    ++free_count_;
}

void
EventQueue::releaseMembers(Event *first, Event *last)
{
    for (Event *m = first;;) {
        Event *const next = m->chain;
        const bool done = m == last;
        release(m);
        if (done)
            return;
        m = next;
    }
}

void
EventQueue::releaseGroup(Event *head)
{
    if (Event *const last = head->chain)
        releaseMembers(last->chain, last);
    release(head);
}

void
EventQueue::migrateFromHeap()
{
    CAMLLM_ASSERT(cal_count_ == 0 && wheel_count_ == 0 &&
                  !heap_.empty());
    const Tick top = heap_.front().when;
    CAMLLM_ASSERT(top >= now_);
    cal_base_ = top & ~slot_mask_;
    cal_scan_ = top;
    // Heap pops arrive in (when, seq) order, so FIFO appends and
    // chain joins keep the same-tick sequence ordering intact.
    // Everything inside the new top-wheel block moves now, so the
    // heap afterwards holds only events in later blocks — which keeps
    // wheels-before-heap a total order in time.
    const unsigned top_shift = wheels_[kUpperLevels - 1].shift + 10;
    while (!heap_.empty() && (heap_.front().when >> top_shift) ==
                                 (cal_base_ >> top_shift)) {
        std::pop_heap(heap_.begin(), heap_.end(), farLater);
        Event *ev = heap_.back().ev;
        heap_.pop_back();
        enqueue(ev);
    }
}

Tick
EventQueue::peekEarliestTick(Tick commit_limit)
{
    for (;;) {
        if (cal_count_ > 0) {
            const Tick from = std::max(cal_scan_, now_);
            const Tick end = cal_base_ + slots0_.size();
            CAMLLM_ASSERT(from < end);
            const std::size_t off =
                scanOccupied(occ0_.data(), slots0_.size(),
                             std::size_t(from & slot_mask_),
                             std::size_t(end - from));
            CAMLLM_ASSERT(off < std::size_t(end - from),
                          "non-empty calendar scanned empty");
            cal_scan_ = from + Tick(off);
            return cal_scan_;
        }
        if (wheel_count_ > 0) {
            // The lowest non-empty wheel holds the globally earliest
            // event: higher levels differ from the anchor at a higher
            // digit, i.e. lie in strictly later blocks.
            unsigned k = 0;
            while (wheels_[k].count == 0)
                ++k;
            Wheel &w = wheels_[k];
            // Only slots at/after the anchor's digit can be occupied
            // (an earlier digit would mean a tick below the anchor),
            // so the scan never crosses the block edge into stale
            // slot indices.
            const std::size_t digit =
                std::size_t(cal_base_ >> w.shift) & (kUpperSlots - 1);
            const std::size_t off =
                scanOccupied(w.occ.data(), kUpperSlots, digit,
                             kUpperSlots - digit);
            CAMLLM_ASSERT(off < kUpperSlots - digit,
                          "non-empty wheel scanned empty in-block");
            const std::size_t idx = digit + off;
            const Tick start =
                ((cal_base_ >> (w.shift + 10)) << (w.shift + 10)) |
                (Tick(idx) << w.shift);
            if (start > commit_limit)
                return start; // lower bound; anchor stays put
            // Cascade: drain the slot's heads in stored (insertion)
            // order into the levels below, each with its chain. Its
            // span is exactly the next level's whole block, so every
            // event lands at least one level down; only anchor digits
            // below level k change, so no other event's level shifts.
            cal_base_ = start;
            cal_scan_ = start;
            Bucket &b = w.slots[idx];
            Event *ev = b.head;
            b.head = b.tail = nullptr;
            w.occ[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
            while (ev != nullptr) {
                Event *next = ev->next;
                --w.count;
                --wheel_count_;
                enqueue(ev);
                ev = next;
            }
            continue;
        }
        CAMLLM_ASSERT(!heap_.empty());
        const Tick top = heap_.front().when;
        if (top > commit_limit)
            return top;
        migrateFromHeap();
    }
}

void
EventQueue::reserve(std::size_t events)
{
    if (heap_.capacity() < events)
        heap_.reserve(events);
    if (free_count_ + (kChunk - chunk_used_) >= events)
        return;
    // Pre-carve records onto the free list until @p events can be
    // handed out without growing the pool — first the live chunk's
    // unused tail (so it is not orphaned when a new chunk replaces
    // it as the carve target), then whole fresh chunks.
    const auto carve = [this](Event *ev) {
        ev->next = free_;
        free_ = ev;
        ++pool_allocated_;
        ++free_count_;
    };
    while (chunk_used_ < kChunk)
        carve(&chunks_.back()[chunk_used_++]);
    while (free_count_ < events) {
        addChunk();
        for (std::size_t i = 0; i < kChunk; ++i)
            carve(&chunks_.back()[i]);
        chunk_used_ = kChunk;
    }
}

bool
EventQueue::stepUntil(Tick limit)
{
    Event *ev = ready_;
    if (ev != nullptr) {
        // Members run at the head's tick, which is now() <= limit.
        ready_ = ev == ready_last_ ? nullptr : ev->chain;
    } else {
        if (pending_ == 0)
            return false;
        const Tick t = peekEarliestTick(limit);
        if (t > limit)
            return false;
        const std::size_t idx = std::size_t(t & slot_mask_);
        ev = slots0_[idx];
        slots0_[idx] = nullptr;
        occ0_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
        --cal_count_;
        ++popped_;
        now_ = t;
        if (Event *const last = ev->chain) {
            ready_ = last->chain;
            ready_last_ = last;
        }
    }
    --pending_;
    ++executed_;
    ev->fn();
    release(ev);
    return true;
}

void
EventQueue::run()
{
    while (stepUntil(kTickMax)) {
    }
}

Tick
EventQueue::runUntil(Tick limit)
{
    // The bounded peek never commits an anchor advance past @p limit,
    // so when the loop stops the clock lands at limit >= cal_base_
    // and later schedules can never target a tick below the anchor.
    while (stepUntil(limit)) {
    }
    if (now_ < limit)
        now_ = limit;
    return now_;
}

void
EventQueue::reset()
{
    // The rest of a running chain is linked nowhere; drop it first.
    if (ready_ != nullptr)
        releaseMembers(ready_, ready_last_);
    ready_ = ready_last_ = nullptr;
    for (Event *&head : slots0_) {
        if (head != nullptr)
            releaseGroup(head);
        head = nullptr;
    }
    std::fill(occ0_.begin(), occ0_.end(), 0);
    cal_count_ = 0;
    for (Wheel &w : wheels_) {
        for (Bucket &b : w.slots) {
            for (Event *ev = b.head; ev != nullptr;) {
                Event *next = ev->next;
                releaseGroup(ev);
                ev = next;
            }
            b.head = b.tail = nullptr;
        }
        w.occ.fill(0);
        w.count = 0;
    }
    wheel_count_ = 0;
    for (FarEvent &fe : heap_)
        releaseGroup(fe.ev);
    heap_.clear();
    cal_base_ = 0;
    cal_scan_ = 0;
    now_ = 0;
    next_seq_ = 0;
    executed_ = 0;
    popped_ = 0;
    pending_ = 0;
}

} // namespace camllm
