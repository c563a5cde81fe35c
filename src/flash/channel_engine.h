/**
 * @file
 * Per-channel scheduler: owns the channel bus and the dies behind it,
 * runs the read-compute tile window (Compute Control + input-buffer
 * credit) and dispatches ordinary page reads to idle read planes
 * (Slice Control's partner on the controller side).
 *
 * The compute planes run as rc groups. Every die a tile engages gets
 * the same page job, fed by the same input broadcast, so a run of
 * dies [head, end) whose compute pipelines hold the same jobs in the
 * same stage advances as one group: one kernel event per stage
 * transition instead of one per die. Each group event sits where its
 * first member's event would, and it applies the members' effects
 * (sense and page counters, then each member's result request on the
 * bus) in die order before the group advances. Nothing else can run
 * between the members' per-die events, so every tick, bus grant and
 * completion is the one the per-die model produces.
 *  - A tile that engages only a prefix of a group splits it; the two
 *    halves keep sharing the events already scheduled.
 *  - A group whose next event would directly follow its left
 *    neighbour's identical event, with both in the same state and
 *    nothing else pending, merges into that neighbour.
 *  - Two stages of one group due at the same tick, scheduled back to
 *    back, share one event.
 *  - While faults are armed every die is a group of one, so the fault
 *    model's single random stream is drawn in the per-die order.
 *
 * Completions are not upcalled synchronously: each finished tile
 * result or read page becomes a tagged Completion record handed to
 * the CompletionRouter, which delivers it to the owning client
 * through the EventQueue. The channel itself is client agnostic, so
 * several decode streams may interleave work on the same channel.
 */

#ifndef CAMLLM_FLASH_CHANNEL_ENGINE_H
#define CAMLLM_FLASH_CHANNEL_ENGINE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/ring_queue.h"
#include "flash/bus.h"
#include "flash/completion.h"
#include "flash/die.h"
#include "flash/fault.h"
#include "flash/params.h"
#include "flash/work.h"
#include "sim/event_queue.h"

namespace camllm::flash {

/** Scheduler for one flash channel and its dies. */
class ChannelEngine
{
  public:
    /**
     * @param router completion routing back to connected clients;
     * must outlive the channel.
     * @param slice_control enables the paper's Slice Control: priority
     * bus arbitration for rc traffic (the read-slicing half lives in
     * each ReadPageJob's `sliced` flag).
     * @param channel_index this channel's position in the device, so
     * its dies can look up their planes' wear state in a
     * wear-tracking fault model.
     */
    ChannelEngine(EventQueue &eq, const FlashParams &params,
                  CompletionRouter &router, std::uint32_t tile_window = 3,
                  bool slice_control = true,
                  std::uint32_t channel_index = 0);

    /** Queue a read-compute tile (this channel's slice of it). */
    void submitTile(const RcTileWork &tile);

    /** Queue an ordinary page read for the NPU. */
    void submitRead(const ReadPageJob &job);

    ChannelBus &bus() { return bus_; }
    const ChannelBus &bus() const { return bus_; }
    DieModel &die(std::size_t i) { return *dies_[i]; }
    std::size_t dieCount() const { return dies_.size(); }

    /** Tiles submitted but not yet fully completed. */
    std::size_t tilesInFlight() const
    {
        return tile_queue_.size() + active_.size();
    }

    std::size_t readBacklog() const { return read_queue_.size(); }

    /** Groups the dies' compute planes form right now: 1 while every
     *  die steps in lockstep, dieCount() when none does. */
    std::size_t rcGroups() const;

    // --- fault injection ---------------------------------------------
    /** Arm soft read failures on every die of this channel. */
    void setFaultModel(FaultModel *fault);

    /** Work stranded on a channel when it dies. */
    struct OfflineWork
    {
        std::vector<RcTileWork> tiles; ///< queued + unfinished actives
        std::vector<ReadPageJob> reads;///< queued + die-resident
    };

    /**
     * Kill the channel: mark it (and its dies) offline so every event
     * still in flight fires as a no-op, and hand back the work that
     * was queued or resident so the facade can re-issue it on the
     * survivors. Completion records for the stranded work are never
     * delivered from here — the re-issued copies produce them.
     */
    OfflineWork failOffline();

    bool offline() const { return offline_; }

    std::uint64_t pagesComputed() const;
    std::uint64_t pagesRead() const;
    std::uint64_t arrayReads() const;
    std::uint64_t retryReads() const;

    /** Payload bytes delivered to clients for @p cls work (read-page
     *  data plus read-compute result vectors). */
    std::uint64_t
    deliveredBytes(WorkClass cls) const
    {
        return delivered_bytes_[std::size_t(cls)];
    }

  private:
    // The dies' upcalls; DieModel calls them directly.
    friend class DieModel;
    void dispatchReads();
    /** A die's read plane handed its page to the cache register. */
    void onReadPlaneFreed();
    bool inputReady(std::uint32_t tile_seq) const;
    void onRcResultDelivered(const RcPageJob &job);
    void onReadDelivered(const ReadPageJob &job);
    void onRetryDrained(const ReadPageJob &job);

    void tryActivate();

    /** Compute-pipeline stage an rc event completes. */
    enum class RcStage : std::uint8_t
    {
        Sense,  ///< array read into the data register
        Move,   ///< data register -> cache register
        Compute ///< the core finished the cache-register page
    };

    /** One scheduled rc event: its stages, in schedule order, complete
     *  for every group in [owner head, span_end). */
    struct RcEvent
    {
        std::uint32_t span_end = 0; ///< 0 marks a free slot
        std::uint32_t n_stages = 0;
        RcStage stages[2] = {};
    };

    /**
     * The compute plane of the lockstep dies [head, end), stored at
     * rc_[head]. A pending stage is marked by `reading`, `moving` or
     * `core_busy`; the event that completes it is owned either by this
     * head or, after a split, by a group further left.
     */
    struct RcGroup
    {
        std::uint32_t end = 0; ///< one past the last member die
        RingQueue<RcPageJob> queue;
        std::optional<RcPageJob> reading; ///< array read in flight
        std::optional<RcPageJob> data_reg;
        std::optional<RcPageJob> cache_reg;
        bool moving = false; ///< data->cache move in flight
        bool core_busy = false;
        std::uint32_t attempt = 0; ///< ladder rung of the sense in flight
        std::uint32_t retries = 0; ///< rungs that sense climbs in all
        /** Events this head owns: at most a sense and a compute. */
        RcEvent events[2];
    };

    /** Make @p die the head of a group (no-op at a boundary). */
    void rcSplit(std::uint32_t die);
    /** Run every pipeline stage group @p head can start now. */
    void rcAdvance(std::uint32_t head);
    /** Start the sense at group @p head's current ladder rung.
     *  @return false when the group merged away (see rcSchedule). */
    bool rcSense(std::uint32_t head);
    /** Complete stage @p st for group @p head, then advance it. */
    void rcComplete(std::uint32_t head, RcStage st);
    /** Run the event in slot @p slot of group @p head. */
    void rcFire(std::uint32_t head, std::uint32_t slot);
    /**
     * Schedule stage @p st of group @p head @p delay ticks from now:
     * into the group's own newest event when that is due at the same
     * tick, else by merging the group into its left neighbour (see
     * the file comment), else as a new event.
     * @return false when the group merged away; its state is then
     * stale and the caller must stop touching it.
     */
    bool rcSchedule(std::uint32_t head, RcStage st, Tick delay);
    /** Same jobs in the same stages (group extents aside). */
    static bool rcSameState(const RcGroup &a, const RcGroup &b);

    struct ActiveTile
    {
        std::uint32_t seq;
        RcTileWork work; ///< as submitted, for re-issue on failure
        std::uint32_t results_remaining;
        bool input_ready = false;
    };

    /** Index into active_ of tile @p seq (asserts it is active). */
    std::size_t activeIndex(std::uint32_t seq) const;

    EventQueue &eq_;
    FlashParams params_;
    CompletionRouter &router_;
    std::uint32_t tile_window_;
    std::uint32_t channel_index_;

    ChannelBus bus_;
    std::vector<std::unique_ptr<DieModel>> dies_;
    FaultModel *fault_ = nullptr;

    /** Compute planes, indexed by die; only group heads are live. */
    std::vector<RcGroup> rc_;
    /** The newest rc event this channel scheduled: owner, slot, tick,
     *  and the kernel's scheduled() count right after it. */
    struct
    {
        std::uint32_t head = 0;
        std::uint32_t slot = 0;
        Tick when = 0;
        std::uint64_t next_seq = ~std::uint64_t(0);
    } rc_last_;

    RingQueue<RcTileWork> tile_queue_;
    /** At most tile_window_ tiles, in seq order; a linear scan beats
     *  any tree at this size. */
    std::vector<ActiveTile> active_;
    std::uint32_t next_tile_seq_ = 0;

    RingQueue<ReadPageJob> read_queue_;
    std::size_t rr_die_ = 0; ///< round-robin cursor for read dispatch
    /** Dies whose read plane can accept a read: dispatchReads()
     *  stops probing as soon as none can. */
    std::size_t idle_read_planes_ = 0;

    bool offline_ = false;

    std::uint64_t delivered_bytes_[kWorkClasses] = {};
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_CHANNEL_ENGINE_H
