#include "channel_engine.h"

#include "common/logging.h"

namespace camllm::flash {

ChannelEngine::ChannelEngine(EventQueue &eq, const FlashParams &params,
                             CompletionRouter &router,
                             std::uint32_t tile_window,
                             bool slice_control,
                             std::uint32_t channel_index)
    : eq_(eq), params_(params), router_(router),
      tile_window_(tile_window), channel_index_(channel_index),
      bus_(eq, params.timing.busBytesPerNs(), params.timing.grant_overhead,
           slice_control)
{
    CAMLLM_ASSERT(tile_window_ > 0);
    const std::uint32_t n_dies = params_.geometry.diesPerChannel();
    dies_.reserve(n_dies);
    for (std::uint32_t i = 0; i < n_dies; ++i)
        dies_.push_back(std::make_unique<DieModel>(
            eq_, bus_, params_, *this, channel_index_, i));
    idle_read_planes_ = n_dies;
    rc_.resize(n_dies);
    rc_[0].end = n_dies;
}

void
ChannelEngine::submitTile(const RcTileWork &tile)
{
    CAMLLM_ASSERT(!offline_, "tile submitted to an offline channel");
    CAMLLM_ASSERT(tile.cores_used > 0 && tile.cores_used <= dies_.size(),
                  "tile uses %u cores, channel has %zu dies",
                  tile.cores_used, dies_.size());
    CAMLLM_ASSERT(tile.input_bytes > 0 && tile.out_bytes_per_core > 0);
    tile_queue_.push_back(tile);
    tryActivate();
}

void
ChannelEngine::submitRead(const ReadPageJob &job)
{
    CAMLLM_ASSERT(!offline_, "read submitted to an offline channel");
    read_queue_.push_back(job);
    dispatchReads();
}

void
ChannelEngine::setFaultModel(FaultModel *fault)
{
    fault_ = fault;
    for (auto &die : dies_)
        die->setFaultModel(fault);
    // Each die draws its own ladder, in die order, as its own group.
    if (fault_)
        for (std::uint32_t d = 1; d < rc_.size(); ++d)
            rcSplit(d);
}

ChannelEngine::OfflineWork
ChannelEngine::failOffline()
{
    CAMLLM_ASSERT(!offline_, "channel failed twice");
    offline_ = true;
    for (auto &die : dies_)
        die->setOffline();

    OfflineWork w;
    // Queued tiles re-issue verbatim; an active tile re-issues only
    // its unfinished cores (delivered results already reached their
    // client and must not be produced twice). The input broadcast is
    // repeated on the new channel either way — its cores have empty
    // input buffers.
    for (std::size_t i = 0; i < tile_queue_.size(); ++i)
        w.tiles.push_back(tile_queue_[i]);
    tile_queue_.clear();
    for (const ActiveTile &tile : active_) {
        if (tile.results_remaining == 0)
            continue;
        RcTileWork t = tile.work;
        t.cores_used = tile.results_remaining;
        w.tiles.push_back(t);
    }
    // active_ stays populated: the entries are dead weight, not
    // dangling state, and an offline die never consults them again.

    for (std::size_t i = 0; i < read_queue_.size(); ++i)
        w.reads.push_back(read_queue_[i]);
    read_queue_.clear();
    for (const auto &die : dies_)
        die->collectReads(w.reads);
    return w;
}

void
ChannelEngine::tryActivate()
{
    while (active_.size() < tile_window_ && !tile_queue_.empty()) {
        RcTileWork tile = tile_queue_.front();
        tile_queue_.pop_front();
        const std::uint32_t seq = next_tile_seq_++;
        active_.push_back(ActiveTile{seq, tile, tile.cores_used, false});

        // Broadcast the input slice to every engaged core's input
        // buffer; a single grant serves all chips on the bus.
        bus_.request(BusPriority::High, tile.input_bytes,
                     [this, seq] {
                         if (offline_)
                             return;
                         active_[activeIndex(seq)].input_ready = true;
                         for (std::uint32_t d = 0; d < rc_.size();
                              d = rc_[d].end)
                             rcAdvance(d);
                     },
                     "rc-input");

        RcPageJob job;
        job.client = tile.client;
        job.cls = tile.cls;
        job.op_id = tile.op_id;
        job.tile_seq = seq;
        job.out_bytes = tile.out_bytes_per_core;
        job.compute_time = tile.compute_time;
        rcSplit(tile.cores_used);
        for (std::uint32_t d = 0; d < tile.cores_used; d = rc_[d].end) {
            rc_[d].queue.push_back(job);
            rcAdvance(d);
        }
    }
}

std::size_t
ChannelEngine::rcGroups() const
{
    std::size_t n = 0;
    for (std::uint32_t d = 0; d < rc_.size(); d = rc_[d].end)
        ++n;
    return n;
}

void
ChannelEngine::rcSplit(std::uint32_t die)
{
    if (die >= rc_.size())
        return;
    std::uint32_t head = 0;
    while (rc_[head].end <= die)
        head = rc_[head].end;
    if (head == die)
        return;
    // Both halves keep the pending stages; their events stay with the
    // left half's head, whose event spans cover the right half too.
    RcGroup &left = rc_[head];
    RcGroup &right = rc_[die];
    right = left;
    right.events[0] = right.events[1] = RcEvent{};
    left.end = die;
}

void
ChannelEngine::rcAdvance(std::uint32_t head)
{
    RcGroup &g = rc_[head];

    // Stage 1: array read into the data register. Per the paper's
    // read-compute flow the input vector is delivered first (step 1)
    // and only then is the weight page fetched (step 2); the plane
    // also waits for the data register to be handed off.
    if (!g.reading && !g.data_reg && !g.queue.empty() &&
        inputReady(g.queue.front().tile_seq)) {
        g.reading = g.queue.front();
        g.queue.pop_front();
        g.attempt = 0;
        g.retries = fault_ ? dies_[head]->drawFor(0) : 0;
        if (!rcSense(head))
            return;
    }

    // Stage 2: data register -> cache register move.
    if (g.data_reg && !g.cache_reg && !g.moving) {
        g.moving = true;
        if (!rcSchedule(head, RcStage::Move, params_.timing.t_reg_move))
            return;
    }

    // Stage 3: compute, gated on the broadcast input vector.
    if (g.cache_reg && !g.core_busy && inputReady(g.cache_reg->tile_seq)) {
        g.core_busy = true;
        rcSchedule(head, RcStage::Compute, g.cache_reg->compute_time);
    }
}

/**
 * One sense of the compute-plane page. The rc stream is decoded by
 * the on-die ECC engine, so a failed sense costs only the escalated
 * re-read — nothing crosses the bus until a rung decodes.
 */
bool
ChannelEngine::rcSense(std::uint32_t head)
{
    const RcGroup &g = rc_[head];
    for (std::uint32_t d = head; d < g.end; ++d)
        dies_[d]->countRcSense(g.attempt > 0);
    // Every sense routes through the fault model when armed: attempt
    // 0 at default ECC strength is the base tR exactly, while an
    // armed ECC strength pays its soft-sense factor on every attempt.
    const Tick tr = fault_
                        ? fault_->senseTime(params_.timing.t_read, g.attempt)
                        : params_.timing.t_read;
    return rcSchedule(head, RcStage::Sense, tr);
}

void
ChannelEngine::rcComplete(std::uint32_t head, RcStage st)
{
    RcGroup &g = rc_[head];
    switch (st) {
    case RcStage::Sense:
        if (g.attempt < g.retries) {
            ++g.attempt;
            rcSense(head);
            return;
        }
        g.data_reg = g.reading;
        g.reading.reset();
        break;
    case RcStage::Move:
        g.cache_reg = g.data_reg;
        g.data_reg.reset();
        g.moving = false;
        break;
    case RcStage::Compute: {
        const RcPageJob job = *g.cache_reg;
        g.cache_reg.reset();
        g.core_busy = false;
        // Each member's result waits in its output buffer for a bus
        // grant, requested in die order.
        for (std::uint32_t d = head; d < g.end; ++d) {
            dies_[d]->countRcPage();
            bus_.request(BusPriority::High, job.out_bytes,
                         [this, job] { onRcResultDelivered(job); },
                         "rc-result");
        }
        break;
    }
    }
    rcAdvance(head);
}

void
ChannelEngine::rcFire(std::uint32_t head, std::uint32_t slot)
{
    if (offline_)
        return;
    const RcEvent ev = rc_[head].events[slot];
    rc_[head].events[slot] = RcEvent{};
    // Group by group, each completing the stages in schedule order:
    // the order the per-die events of these members would run in.
    for (std::uint32_t d = head; d < ev.span_end; d = rc_[d].end)
        for (std::uint32_t i = 0; i < ev.n_stages; ++i)
            rcComplete(d, ev.stages[i]);
}

bool
ChannelEngine::rcSchedule(std::uint32_t head, RcStage st, Tick delay)
{
    const Tick when = eq_.now() + delay;
    RcGroup &g = rc_[head];
    // The newest kernel event is this channel's live rc event at the
    // same tick, so whatever is scheduled now would run right after it.
    if (rc_last_.next_seq == eq_.scheduled() && rc_last_.when == when) {
        RcGroup &owner = rc_[rc_last_.head];
        RcEvent &ev = owner.events[rc_last_.slot];
        if (rc_last_.head == head && ev.span_end == g.end) {
            ev.stages[ev.n_stages++] = st;
            return true;
        }
        // Merge into the left neighbour: its event is this very stage,
        // its state equals ours, and neither has any other stage
        // pending, so one event steps both groups' members in order.
        const bool only_st = g.reading.has_value() == (st == RcStage::Sense) &&
                             g.moving == (st == RcStage::Move) &&
                             g.core_busy == (st == RcStage::Compute);
        if (!fault_ && owner.end == head && ev.span_end == head &&
            ev.n_stages == 1 && ev.stages[0] == st && only_st &&
            rcSameState(owner, g)) {
            owner.end = g.end;
            ev.span_end = g.end;
            return false;
        }
    }
    const std::uint32_t slot = g.events[0].span_end == 0 ? 0 : 1;
    CAMLLM_ASSERT(g.events[slot].span_end == 0,
                  "rc group %u has no free event slot", head);
    g.events[slot] = RcEvent{g.end, 1, {st}};
    eq_.schedule(when, [this, head, slot] { rcFire(head, slot); });
    rc_last_ = {head, slot, when, eq_.scheduled()};
    return true;
}

bool
ChannelEngine::rcSameState(const RcGroup &a, const RcGroup &b)
{
    // A tile's jobs are identical on every die it engages, so its
    // channel-local sequence number stands for the whole job.
    const auto same = [](const std::optional<RcPageJob> &x,
                         const std::optional<RcPageJob> &y) {
        return x.has_value() == y.has_value() &&
               (!x || x->tile_seq == y->tile_seq);
    };
    if (a.queue.size() != b.queue.size())
        return false;
    for (std::size_t i = 0; i < a.queue.size(); ++i)
        if (a.queue[i].tile_seq != b.queue[i].tile_seq)
            return false;
    return same(a.reading, b.reading) && same(a.data_reg, b.data_reg) &&
           same(a.cache_reg, b.cache_reg) && a.moving == b.moving &&
           a.core_busy == b.core_busy && a.attempt == b.attempt &&
           a.retries == b.retries;
}

void
ChannelEngine::dispatchReads()
{
    if (read_queue_.empty())
        return;
    // Round-robin over dies so read service spreads across planes.
    const std::size_t n = dies_.size();
    for (std::size_t probe = 0;
         probe < n && !read_queue_.empty() && idle_read_planes_ > 0;
         ++probe) {
        std::size_t d = (rr_die_ + probe) % n;
        if (dies_[d]->canAcceptRead()) {
            dies_[d]->pushReadJob(read_queue_.front());
            read_queue_.pop_front();
            --idle_read_planes_;
            rr_die_ = (d + 1) % n;
        }
    }
}

void
ChannelEngine::onReadPlaneFreed()
{
    ++idle_read_planes_;
    dispatchReads();
}

std::size_t
ChannelEngine::activeIndex(std::uint32_t seq) const
{
    std::size_t i = 0;
    while (i < active_.size() && active_[i].seq != seq)
        ++i;
    CAMLLM_ASSERT(i < active_.size(), "compute references inactive tile %u",
                  seq);
    return i;
}

bool
ChannelEngine::inputReady(std::uint32_t tile_seq) const
{
    return active_[activeIndex(tile_seq)].input_ready;
}

void
ChannelEngine::onRcResultDelivered(const RcPageJob &job)
{
    if (offline_)
        return;
    const std::size_t i = activeIndex(job.tile_seq);
    CAMLLM_ASSERT(active_[i].results_remaining > 0);
    if (--active_[i].results_remaining == 0) {
        active_.erase(active_.begin() + std::ptrdiff_t(i));
        tryActivate();
    }
    Completion c;
    c.kind = Completion::Kind::RcResult;
    c.client = job.client;
    c.cls = job.cls;
    c.op_id = job.op_id;
    delivered_bytes_[std::size_t(job.cls)] += job.out_bytes;
    router_.deliver(c);
}

void
ChannelEngine::onReadDelivered(const ReadPageJob &job)
{
    if (offline_)
        return;
    Completion c;
    c.kind = Completion::Kind::ReadData;
    c.client = job.client;
    c.cls = job.cls;
    c.op_id = job.op_id;
    c.bytes = job.bytes;
    delivered_bytes_[std::size_t(job.cls)] += job.bytes;
    router_.deliver(c);
    dispatchReads();
}

std::uint64_t
ChannelEngine::pagesComputed() const
{
    std::uint64_t n = 0;
    for (const auto &d : dies_)
        n += d->pagesComputed();
    return n;
}

std::uint64_t
ChannelEngine::pagesRead() const
{
    std::uint64_t n = 0;
    for (const auto &d : dies_)
        n += d->pagesRead();
    return n;
}

std::uint64_t
ChannelEngine::arrayReads() const
{
    std::uint64_t n = 0;
    for (const auto &d : dies_)
        n += d->arrayReads();
    return n;
}

std::uint64_t
ChannelEngine::retryReads() const
{
    std::uint64_t n = 0;
    for (const auto &d : dies_)
        n += d->retryReads();
    return n;
}

void
ChannelEngine::onRetryDrained(const ReadPageJob &job)
{
    if (offline_)
        return;
    delivered_bytes_[std::size_t(WorkClass::Retry)] += job.bytes;
}

} // namespace camllm::flash
