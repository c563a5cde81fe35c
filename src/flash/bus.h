/**
 * @file
 * Flash channel bus model.
 *
 * The channel is a half-duplex 8-bit bus shared by every chip on the
 * channel; only one transfer proceeds at a time. Read-compute traffic
 * (input-vector broadcasts and result vectors) is latency critical and
 * tiny, so it is arbitrated ahead of bulk read-page slices. Grants are
 * non-preemptive: once a transfer starts it occupies the bus to the
 * end, which is exactly why unsliced page reads block read-compute
 * requests (Figure 6 of the paper).
 */

#ifndef CAMLLM_FLASH_BUS_H
#define CAMLLM_FLASH_BUS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/units.h"
#include "sim/event_queue.h"
#include "sim/inline_callback.h"

namespace camllm::flash {

/** Arbitration class of a bus transaction. */
enum class BusPriority
{
    High, ///< read-compute inputs / results
    Low   ///< read-page data slices
};

/**
 * Priority-arbitrated, non-preemptive channel bus.
 *
 * Every grant is a page slice, a result vector or an input broadcast,
 * so the bus is the simulator's busiest component. Transactions live
 * in pooled nodes that carry their completion callable inline and
 * link into intrusive per-class FIFOs: a request allocates nothing
 * once the pool has grown to the channel's peak queue depth.
 */
class ChannelBus
{
  public:
    /** Trace record emitted per completed grant (for Fig 6). */
    struct GrantTrace
    {
        Tick start;
        Tick end;
        BusPriority priority;
        std::uint64_t bytes;
        const char *label;
    };

    using TraceHook = std::function<void(const GrantTrace &)>;

    /**
     * @param priority_arbitration when true (Slice Control present)
     * read-compute traffic bypasses queued read slices; when false the
     * bus is a plain FIFO, as in a conventional flash channel.
     */
    ChannelBus(EventQueue &eq, double bytes_per_ns, Tick grant_overhead,
               bool priority_arbitration = true)
        : eq_(eq), bytes_per_ns_(bytes_per_ns),
          grant_overhead_(grant_overhead),
          priority_(priority_arbitration)
    {
    }

    ChannelBus(const ChannelBus &) = delete;
    ChannelBus &operator=(const ChannelBus &) = delete;

    /**
     * Request a bus grant for @p bytes. @p done runs when the transfer
     * completes. @p label is only used for tracing.
     */
    template <typename F>
    void
    request(BusPriority prio, std::uint64_t bytes, F &&done,
            const char *label = "")
    {
        CAMLLM_ASSERT(bytes > 0, "zero-byte bus transaction");
        Txn *txn = acquire();
        txn->done.emplace(std::forward<F>(done));
        txn->seq = next_seq_++;
        txn->bytes = bytes;
        txn->label = label;
        (prio == BusPriority::High ? high_ : low_).push(txn);
        tryStart();
    }

    /** Install a per-grant trace hook (nullptr to disable). */
    void setTraceHook(TraceHook hook) { trace_ = std::move(hook); }

    /**
     * Degrade (or restore) the channel's transfer rate: effective
     * bandwidth becomes bytes_per_ns * @p scale. Used by the fault
     * layer's slowdown windows; the grant in flight keeps the rate it
     * started with, only future grants see the new scale.
     */
    void
    setRateScale(double scale)
    {
        CAMLLM_ASSERT(scale > 0.0 && scale <= 1.0,
                      "bus rate scale %.3f out of (0, 1]", scale);
        rate_scale_ = scale;
    }

    double rateScale() const { return rate_scale_; }

    const BusyTracker &busy() const { return busy_; }
    std::uint64_t bytesHigh() const { return bytes_high_; }
    std::uint64_t bytesLow() const { return bytes_low_; }
    std::uint64_t grants() const { return grants_; }
    bool idle() const { return in_flight_ == nullptr; }

    /** Time to move @p bytes including the per-grant overhead. */
    Tick
    grantTime(std::uint64_t bytes) const
    {
        return grant_overhead_ +
               transferTime(bytes, bytes_per_ns_ * rate_scale_);
    }

  private:
    /** One pooled transaction; `next` links its FIFO or the free list. */
    struct Txn
    {
        Txn *next = nullptr;
        std::uint64_t seq = 0;
        std::uint64_t bytes = 0;
        const char *label = "";
        InlineCallback done;
    };

    /** Intrusive FIFO of queued transactions. */
    struct TxnList
    {
        Txn *head = nullptr;
        Txn *tail = nullptr;

        bool empty() const { return head == nullptr; }

        void
        push(Txn *t)
        {
            t->next = nullptr;
            (tail ? tail->next : head) = t;
            tail = t;
        }

        Txn *
        pop()
        {
            Txn *t = head;
            head = t->next;
            if (head == nullptr)
                tail = nullptr;
            return t;
        }
    };

    /** Transaction nodes per pool chunk. */
    static constexpr std::size_t kChunk = 64;

    Txn *acquire();
    void release(Txn *txn);
    void tryStart();
    void finishGrant();

    EventQueue &eq_;
    double bytes_per_ns_;
    Tick grant_overhead_;
    bool priority_;
    double rate_scale_ = 1.0;
    std::uint64_t next_seq_ = 0;
    TxnList high_;
    TxnList low_;
    /** The grant on the wire; its end event captures only `this`. */
    Txn *in_flight_ = nullptr;
    /** Node storage: queued, in-flight and free nodes all live here,
     *  so destroying the bus destroys every pending callable. */
    std::vector<std::unique_ptr<Txn[]>> chunks_;
    Txn *free_ = nullptr;
    BusyTracker busy_;
    std::uint64_t bytes_high_ = 0;
    std::uint64_t bytes_low_ = 0;
    std::uint64_t grants_ = 0;
    TraceHook trace_;
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_BUS_H
