/**
 * @file
 * Inline type-erased storage for one nullary callback.
 *
 * The event kernel's event records and the flash channel bus's
 * transaction nodes both park a callable inside a pooled, fixed-size
 * node. This is the one place that type-erases it: callables up to
 * kInlineBytes live in the node itself (no heap traffic, no
 * std::function), larger ones take one heap hop ("boxed") and are
 * still invoked and destroyed through the same two function pointers.
 */

#ifndef CAMLLM_SIM_INLINE_CALLBACK_H
#define CAMLLM_SIM_INLINE_CALLBACK_H

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace camllm {

/**
 * One callable slot. Empty on construction; emplace() fills it,
 * operator() runs it, reset() destroys it and empties the slot
 * again. Destroying a filled slot destroys its callable, so a pool
 * that owns its nodes releases every capture still pending when the
 * pool goes away.
 */
class InlineCallback
{
  public:
    /** Inline capacity; larger callables are boxed on the heap. */
    static constexpr std::size_t kInlineBytes = 48;

    InlineCallback() = default;
    ~InlineCallback() { reset(); }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    /** Store @p fn. @pre the slot is empty. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            if constexpr (std::is_trivially_destructible_v<Fn>)
                destroy_ = nullptr;
            else
                destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        } else {
            Fn *boxed = new Fn(std::forward<F>(fn));
            std::memcpy(storage_, &boxed, sizeof boxed);
            invoke_ = [](void *p) { (*unbox<Fn>(p))(); };
            destroy_ = [](void *p) { delete unbox<Fn>(p); };
        }
    }

    /** Run the stored callable. @pre the slot is filled. */
    void operator()() { invoke_(storage_); }

    /** Destroy the stored callable, if any, and empty the slot. */
    void
    reset()
    {
        if (destroy_ != nullptr) {
            destroy_(storage_);
            destroy_ = nullptr;
        }
    }

  private:
    template <typename Fn>
    static Fn *
    unbox(void *p)
    {
        Fn *f;
        std::memcpy(&f, p, sizeof f);
        return f;
    }

    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

} // namespace camllm

#endif // CAMLLM_SIM_INLINE_CALLBACK_H
