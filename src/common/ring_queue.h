/**
 * @file
 * Growable FIFO ring buffer for the simulator's hot queues.
 *
 * std::deque allocates and frees a block every few hundred pushes as
 * its contents slide forward, even when its length never changes. A
 * ring over one power-of-two array only allocates when the queue
 * outgrows every earlier length, so a queue that cycles at a steady
 * depth stops touching the heap after warm-up.
 */

#ifndef CAMLLM_COMMON_RING_QUEUE_H
#define CAMLLM_COMMON_RING_QUEUE_H

#include <cstddef>
#include <vector>

namespace camllm {

/** FIFO of copyable @p T; storage grows by doubling, never shrinks. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    /** @p i-th element from the front. */
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    void clear() { head_ = size_ = 0; }

  private:
    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = (*this)[i];
        buf_.swap(next);
        head_ = 0;
    }

    std::vector<T> buf_; ///< capacity is 0 or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace camllm

#endif // CAMLLM_COMMON_RING_QUEUE_H
