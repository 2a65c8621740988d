// Small move-only callable with inline storage.
//
// The DES hot path schedules tens of millions of events per simulated
// second; std::function's copyability forces a heap allocation for any
// capture beyond two pointers, and that allocation dominated the event
// queue's profile (see DESIGN.md §10). SmallFn stores captures up to
// `Cap` bytes inline in the SmallFn itself (an event queue's callback slot,
// a network message's delivery hook) — scheduling a lambda
// that captures {this, a handful of ints} touches no allocator at all.
// Larger captures (cold paths: chaos plans, test fixtures) transparently
// fall back to the heap, so SmallFn is a drop-in for std::function<void()>
// anywhere the callable is only moved and invoked. Hot paths pin their
// lambdas with static_assert(SmallFn<Cap>::fits<decltype(fn)>), so a
// capture that grows past the cap fails to compile instead of silently
// allocating per call.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mb::support {

template <std::size_t Cap = 48>
class SmallFn {
 public:
  /// True when a callable of type F is stored inline (no heap fallback).
  template <typename F>
  static constexpr bool fits =
      sizeof(F) <= Cap && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT: match std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT: implicit, match std::function
    using D = std::decay_t<F>;
    if constexpr (fits<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); };
      manage_ = [](Action a, void* self, void* other) {
        D* obj = std::launder(reinterpret_cast<D*>(self));
        if (a == Action::kMove) {
          ::new (other) D(std::move(*obj));
          obj->~D();
        } else {
          obj->~D();
        }
      };
    } else {
      // Heap fallback: the buffer holds a single owning pointer.
      auto* heap = new D(std::forward<F>(f));
      ::new (static_cast<void*>(buf_)) D*(heap);
      invoke_ = [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); };
      manage_ = [](Action a, void* self, void* other) {
        D** slot = std::launder(reinterpret_cast<D**>(self));
        if (a == Action::kMove) {
          ::new (other) D*(*slot);
        } else {
          delete *slot;
        }
      };
    }
  }

  SmallFn(SmallFn&& o) noexcept { move_from(o); }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      destroy();
      move_from(o);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { destroy(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

 private:
  enum class Action { kMove, kDestroy };
  using Invoke = void (*)(void*);
  using Manage = void (*)(Action, void* self, void* other);

  void destroy() noexcept {
    if (manage_ != nullptr) manage_(Action::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void move_from(SmallFn& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) manage_(Action::kMove, o.buf_, buf_);
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Cap];
};

}  // namespace mb::support
