#include "bus.h"

namespace camllm::flash {

ChannelBus::Txn *
ChannelBus::acquire()
{
    // The pool grows a chunk at a time on demand, so an idle bus owns
    // no nodes and a busy one stops allocating at its peak depth.
    if (free_ == nullptr) {
        chunks_.push_back(std::make_unique<Txn[]>(kChunk));
        Txn *chunk = chunks_.back().get();
        for (std::size_t i = 0; i < kChunk; ++i) {
            chunk[i].next = free_;
            free_ = &chunk[i];
        }
    }
    Txn *txn = free_;
    free_ = txn->next;
    return txn;
}

void
ChannelBus::release(Txn *txn)
{
    txn->done.reset();
    txn->next = free_;
    free_ = txn;
}

void
ChannelBus::tryStart()
{
    if (in_flight_ != nullptr)
        return;
    if (high_.empty() && low_.empty())
        return;

    // With Slice Control the high class always wins; a conventional
    // channel serves transfers strictly in arrival order.
    bool take_high;
    if (high_.empty()) {
        take_high = false;
    } else if (low_.empty()) {
        take_high = true;
    } else if (priority_) {
        take_high = true;
    } else {
        take_high = high_.head->seq < low_.head->seq;
    }
    BusPriority prio = take_high ? BusPriority::High : BusPriority::Low;
    Txn *txn = (take_high ? high_ : low_).pop();

    in_flight_ = txn;
    Tick start = eq_.now();
    Tick end = start + grantTime(txn->bytes);
    busy_.addBusy(start, end);
    if (prio == BusPriority::High)
        bytes_high_ += txn->bytes;
    else
        bytes_low_ += txn->bytes;
    ++grants_;

    if (trace_)
        trace_(GrantTrace{start, end, prio, txn->bytes, txn->label});

    eq_.schedule(end, [this] { finishGrant(); });
}

void
ChannelBus::finishGrant()
{
    // Free the wire before the callback runs: `done` may request the
    // bus again (a finished result lets the next tile broadcast its
    // input), and that grant starts at once, replacing in_flight_.
    Txn *txn = in_flight_;
    in_flight_ = nullptr;
    txn->done();
    release(txn);
    tryStart();
}

} // namespace camllm::flash
