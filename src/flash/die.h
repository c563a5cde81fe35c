/**
 * @file
 * Timing model of one flash die's read plane, plus the die's counters.
 *
 * Per the Cambricon-LLM design each die has two planes and one shared
 * Compute Core. One plane is dedicated to the read-compute stream (its
 * pages feed the core) while the other serves ordinary page reads that
 * stream weights to the NPU. Each plane has a data register (filled by
 * the tR array read) and a cache register (drained by the core or the
 * channel), giving the classic two-stage pipeline: the next array read
 * overlaps the consumption of the previous page.
 *
 * Only the read plane is stepped here, one die at a time. Every die a
 * tile engages senses, moves and computes that tile's page at the same
 * ticks, so the owning ChannelEngine runs the compute plane of a run of
 * such lockstep dies as one rc group (see channel_engine.h) and charges
 * each member's senses and computed pages to its die here.
 */

#ifndef CAMLLM_FLASH_DIE_H
#define CAMLLM_FLASH_DIE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "flash/bus.h"
#include "flash/fault.h"
#include "flash/params.h"
#include "flash/work.h"
#include "sim/event_queue.h"

namespace camllm::flash {

class ChannelEngine;

/**
 * Event-driven model of one die's read plane. Its upcalls (a freed
 * read slot, delivered pages, drained retry traffic) are direct calls
 * into the owning ChannelEngine.
 */
class DieModel
{
  public:
    /** @p channel / @p die_in_channel identify this die so a wear-
     *  tracking fault model can look up the target plane's state. */
    DieModel(EventQueue &eq, ChannelBus &bus, const FlashParams &params,
             ChannelEngine &owner, std::uint32_t channel = 0,
             std::uint32_t die_in_channel = 0)
        : eq_(eq), bus_(bus), params_(params), owner_(owner),
          channel_(channel), die_(die_in_channel)
    {
    }

    // --- ordinary read stream ---------------------------------------
    /** @return true when the read plane can start another array read. */
    bool canAcceptRead() const;

    /** Start a page read for the NPU. @pre canAcceptRead(). */
    void pushReadJob(const ReadPageJob &job);

    // --- fault injection ---------------------------------------------
    /** Arm soft read failures; @p fault must outlive the die. */
    void setFaultModel(FaultModel *fault) { fault_ = fault; }

    /** Ladder draw for a fresh sense of @p plane: per-plane wear when
     *  the fault model tracks it, the uniform spec draw otherwise.
     *  @pre a fault model is armed. */
    std::uint32_t drawFor(std::uint32_t plane);

    /**
     * The channel died: stop reacting to anything still scheduled.
     * Events already in the queue and grants still on the bus fire as
     * no-ops (neither has cancellation); the pipeline registers keep
     * their jobs so collectReads() can hand them back for re-issue.
     */
    void setOffline() { offline_ = true; }

    /** Collect the read jobs resident in this die's pipeline slots so
     *  the facade can re-issue them on a surviving channel. */
    void collectReads(std::vector<ReadPageJob> &out) const;

    // --- compute-plane work, charged by the channel's rc groups ------
    /** One array read of the compute plane (@p retry: a ladder rung). */
    void
    countRcSense(bool retry)
    {
        ++array_reads_;
        retry_reads_ += retry;
    }

    /** One page computed by this die's core. */
    void countRcPage() { ++pages_computed_; }

    // --- statistics ---------------------------------------------------
    std::uint64_t pagesComputed() const { return pages_computed_; }
    std::uint64_t pagesRead() const { return pages_read_; }
    std::uint64_t arrayReads() const { return array_reads_; }
    std::uint64_t retryReads() const { return retry_reads_; }

  private:
    void advanceRead();
    void startReadSense(std::uint32_t attempt, std::uint32_t retries);
    void drainFailedRead(std::uint32_t attempt, std::uint32_t retries);

    /** Plane ordinary reads are served from (the read-share plane
     *  when the die has more than one). */
    std::uint32_t readPlane() const
    {
        return params_.geometry.planes_per_die > 1 ? 1 : 0;
    }

    EventQueue &eq_;
    ChannelBus &bus_;
    FlashParams params_;
    ChannelEngine &owner_;
    std::uint32_t channel_ = 0;
    std::uint32_t die_ = 0;

    // read plane pipeline
    std::optional<ReadPageJob> rd_reading_;
    std::optional<ReadPageJob> rd_data_reg_;
    std::optional<ReadPageJob> rd_cache_reg_;
    bool rd_moving_ = false;
    bool rd_draining_ = false; ///< slices of cache page on the bus
    std::uint32_t rd_slices_left_ = 0;    ///< of the draining cache page
    std::uint32_t retry_slices_left_ = 0; ///< of the failed sense's page

    FaultModel *fault_ = nullptr;
    bool offline_ = false;

    std::uint64_t pages_computed_ = 0;
    std::uint64_t pages_read_ = 0;
    std::uint64_t array_reads_ = 0;
    std::uint64_t retry_reads_ = 0;
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_DIE_H
