#include "die.h"

#include "common/logging.h"
#include "flash/channel_engine.h"

namespace camllm::flash {

bool
DieModel::canAcceptRead() const
{
    return !rd_reading_ && !rd_data_reg_;
}

void
DieModel::pushReadJob(const ReadPageJob &job)
{
    CAMLLM_ASSERT(canAcceptRead(), "read plane busy");
    CAMLLM_ASSERT(job.bytes > 0 &&
                  job.bytes <= params_.geometry.page_bytes,
                  "read job of %u bytes", job.bytes);
    rd_reading_ = job;
    startReadSense(0, fault_ ? drawFor(readPlane()) : 0);
}

std::uint32_t
DieModel::drawFor(std::uint32_t plane)
{
    return fault_->wearAware()
               ? fault_->drawRetriesForPlane(channel_, die_, plane)
               : fault_->drawRetries();
}

/**
 * One sense of an ordinary read page. Unlike the rc stream, read
 * pages are decoded by the controller, so a failed attempt still pays
 * the register move and the full page transfer over the channel
 * before the ECC verdict comes back; those bytes are billed to
 * WorkClass::Retry via the owner's onRetryDrained(). The plane stays
 * occupied for the whole ladder (rd_reading_ keeps its job), so
 * canAcceptRead() correctly reports busy until a rung decodes.
 */
void
DieModel::startReadSense(std::uint32_t attempt, std::uint32_t retries)
{
    ++array_reads_;
    if (attempt > 0)
        ++retry_reads_;
    const Tick tr = fault_
                        ? fault_->senseTime(params_.timing.t_read, attempt)
                        : params_.timing.t_read;
    eq_.scheduleIn(tr, [this, attempt, retries] {
        if (offline_)
            return;
        if (attempt < retries) {
            drainFailedRead(attempt, retries);
            return;
        }
        rd_data_reg_ = rd_reading_;
        rd_reading_.reset();
        advanceRead();
    });
}

/** Ship a failed sense to the controller, then climb the ladder. */
void
DieModel::drainFailedRead(std::uint32_t attempt, std::uint32_t retries)
{
    eq_.scheduleIn(params_.timing.t_reg_move, [this, attempt, retries] {
        if (offline_)
            return;
        const ReadPageJob job = *rd_reading_;
        const std::uint32_t slice = params_.timing.slice_bytes;
        const std::uint32_t n_slices =
            job.sliced ? (job.bytes + slice - 1) / slice : 1;
        retry_slices_left_ = n_slices;
        std::uint32_t left = job.bytes;
        for (std::uint32_t i = 0; i < n_slices; ++i) {
            const std::uint32_t chunk =
                job.sliced ? std::min(slice, left) : job.bytes;
            left -= chunk;
            bus_.request(BusPriority::Low, chunk,
                         [this, attempt, retries] {
                             if (--retry_slices_left_ != 0 || offline_)
                                 return;
                             owner_.onRetryDrained(*rd_reading_);
                             startReadSense(attempt + 1, retries);
                         },
                         "retry-slice");
        }
    });
}

void
DieModel::advanceRead()
{
    if (offline_)
        return;

    // Data register -> cache register; frees the plane for the next
    // array read.
    if (rd_data_reg_ && !rd_cache_reg_ && !rd_moving_) {
        rd_moving_ = true;
        eq_.scheduleIn(params_.timing.t_reg_move, [this] {
            if (offline_)
                return;
            rd_cache_reg_ = rd_data_reg_;
            rd_data_reg_.reset();
            rd_moving_ = false;
            owner_.onReadPlaneFreed();
            advanceRead();
        });
    }

    // Drain the cache register over the channel, slice by slice when
    // Slice Control is enabled, or as one monolithic grant otherwise.
    if (rd_cache_reg_ && !rd_draining_) {
        rd_draining_ = true;
        const ReadPageJob job = *rd_cache_reg_;
        const std::uint32_t slice = params_.timing.slice_bytes;
        std::uint32_t n_slices =
            job.sliced ? (job.bytes + slice - 1) / slice : 1;
        rd_slices_left_ = n_slices;
        std::uint32_t left = job.bytes;
        for (std::uint32_t i = 0; i < n_slices; ++i) {
            std::uint32_t chunk =
                job.sliced ? std::min(slice, left) : job.bytes;
            left -= chunk;
            bus_.request(BusPriority::Low, chunk,
                         [this] {
                             if (--rd_slices_left_ == 0 && !offline_) {
                                 ReadPageJob done = *rd_cache_reg_;
                                 rd_cache_reg_.reset();
                                 rd_draining_ = false;
                                 ++pages_read_;
                                 owner_.onReadDelivered(done);
                                 advanceRead();
                             }
                         },
                         "read-slice");
        }
    }
}

void
DieModel::collectReads(std::vector<ReadPageJob> &out) const
{
    if (rd_reading_)
        out.push_back(*rd_reading_);
    if (rd_data_reg_)
        out.push_back(*rd_data_reg_);
    if (rd_cache_reg_)
        out.push_back(*rd_cache_reg_);
}

} // namespace camllm::flash
