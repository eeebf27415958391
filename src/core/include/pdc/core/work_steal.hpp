#pragma once
// Chase–Lev work-stealing deque — the load-balancing primitive under
// Schedule::kStealing (parallel_for.hpp) and the stencil engine's tile
// stealing on multi-thread plans. One owner pushes and pops at the bottom
// (LIFO, cache-warm); any number of thieves steal from the top (FIFO,
// the oldest — typically largest — work first). Both users drain their
// per-worker deques through the one loop here, detail::steal_drain.
//
// The implementation follows Chase & Lev (SPAA '05) as reformulated for
// weak memory by Lê et al. (PPoPP '13), with two deliberate deviations
// that keep it ThreadSanitizer-clean and dependency-free:
//
//  - no standalone std::atomic_thread_fence (TSan does not model
//    fences): the owner/thief handshake on the last element runs on
//    seq_cst loads/stores of `bottom_`/`top_` instead, whose total order
//    gives the same Dekker-style guarantee;
//  - buffer cells are arrays of relaxed 64-bit atomics rather than raw
//    memory, so a thief's read that races an owner's overwrite of a
//    recycled slot is a benign atomic race, not UB. A torn multi-word
//    read can only be observed when the claiming CAS on `top_` fails
//    (see steal()), in which case the value is discarded.
//
// The ring buffer grows geometrically when the owner outruns the
// thieves; retired buffers are kept alive until destruction so a thief
// holding a stale buffer pointer always reads the (immutable) copy of
// the logical index it is about to claim.
//
// Item exactly-once guarantee (what the stress test asserts): every
// push()ed item is returned by exactly one pop() or steal() — `top_` is
// only ever advanced by a successful CAS (thief) or by the owner winning
// the CAS on the final element.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "pdc/obs/obs.hpp"

namespace pdc::core {

template <typename T>
class WorkStealingDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "deque items are copied through atomic words");

 public:
  explicit WorkStealingDeque(std::size_t capacity_hint = 64) {
    std::size_t cap = 8;
    while (cap < capacity_hint) cap *= 2;
    buffers_.push_back(std::make_unique<Buffer>(cap));
    active_.store(buffers_.back().get(), std::memory_order_relaxed);
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only: append at the bottom. Grows the ring when full.
  void push(const T& v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = active_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(buf->capacity())) buf = grow(t, b);
    buf->put(b, v);
    // Release: a thief that acquire-loads the new bottom sees the cell.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: take the most recently pushed item, racing thieves for
  /// the last one. Empty deque -> nullopt.
  std::optional<T> pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = active_.load(std::memory_order_relaxed);
    // seq_cst store-then-load pairs with steal()'s load of bottom_: at
    // least one side observes the other's claim on the final element.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t < b) return buf->get(b);  // >= 2 items: no thief can reach b
    if (t == b) {
      // Single item: claim it through the same CAS the thieves use.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      if (won) return buf->get(b);
      return std::nullopt;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // was empty: restore
    return std::nullopt;
  }

  /// Any thread: take the oldest item. nullopt means "empty or lost a
  /// race" — when size() stayed nonzero the caller may retry.
  std::optional<T> steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return std::nullopt;
    // Read the cell *before* claiming: a successful CAS proves top_ was
    // still t, which (owner grows instead of overwriting live slots)
    // implies the slot held logical item t throughout the read.
    Buffer* buf = active_.load(std::memory_order_acquire);
    const T v = buf->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return std::nullopt;
    return v;
  }

  /// Approximate: exact when no operation is in flight.
  [[nodiscard]] std::size_t size() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;

  // Power-of-two ring of multi-word atomic cells, indexed by logical
  // position. Immutable once retired (the owner only writes the active
  // buffer), so stale thief pointers stay readable.
  class Buffer {
   public:
    explicit Buffer(std::size_t cap) : mask_(cap - 1), cells_(cap) {}

    [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

    void put(std::int64_t i, const T& v) {
      std::uint64_t w[kWords] = {};
      std::memcpy(w, &v, sizeof(T));
      auto& cell = cells_[static_cast<std::size_t>(i) & mask_];
      for (std::size_t k = 0; k < kWords; ++k)
        cell.w[k].store(w[k], std::memory_order_relaxed);
    }

    [[nodiscard]] T get(std::int64_t i) const {
      const auto& cell = cells_[static_cast<std::size_t>(i) & mask_];
      std::uint64_t w[kWords];
      for (std::size_t k = 0; k < kWords; ++k)
        w[k] = cell.w[k].load(std::memory_order_relaxed);
      T v;
      std::memcpy(&v, w, sizeof(T));
      return v;
    }

   private:
    struct Cell {
      std::array<std::atomic<std::uint64_t>, kWords> w{};
    };
    std::size_t mask_;
    std::vector<Cell> cells_;
  };

  /// Owner only: double the ring, copying the live logical range [t, b).
  Buffer* grow(std::int64_t t, std::int64_t b) {
    Buffer* old = active_.load(std::memory_order_relaxed);
    buffers_.push_back(std::make_unique<Buffer>(2 * old->capacity()));
    Buffer* bigger = buffers_.back().get();
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    // Release-publish: a thief that sees the new pointer sees the copies.
    active_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> active_{nullptr};
  std::vector<std::unique_ptr<Buffer>> buffers_;  // owner-only; keeps
                                                  // retired rings alive
};

namespace detail {

/// Worker `me`'s drain over `deques` (one per worker): pop from its own
/// deque; when that is dry, sweep the others from me + 1 on and steal the
/// oldest item; after losing a race on live work, sweep again at once;
/// return once a sweep finds every deque empty while `done()`, read before
/// the pop, held. A producer still publishing items keeps `done()` false,
/// and the workers then yield between empty sweeps. `run(item)` may push
/// onto deques[me]. Every steal attempt adds 1 to `attempts`, every stolen
/// item adds 1 to `steals` and runs inside a `steal_span` trace span.
template <typename T, typename Run, typename Done>
void steal_drain(std::vector<WorkStealingDeque<T>>& deques, std::size_t me,
                 Run&& run, Done&& done, obs::Counter& attempts,
                 obs::Counter& steals, const char* steal_span) {
  const std::size_t n = deques.size();
  auto& mine = deques[me];
  while (true) {
    // Read before the pop: if it held, the sweep below cannot miss an
    // item published before it.
    const bool no_more = done();
    if (auto item = mine.pop()) {
      run(*item);
      continue;
    }
    bool got = false;
    bool contended = false;
    for (std::size_t off = 1; off < n && !got; ++off) {
      auto& victim = deques[(me + off) % n];
      attempts.add(1);
      if (auto item = victim.steal()) {
        steals.add(1);
        obs::TraceScope span(steal_span);
        run(*item);
        got = true;
      } else if (!victim.empty()) {
        contended = true;  // lost a race on live work: retry
      }
    }
    if (got || contended) continue;
    if (no_more) return;  // every deque observed empty, nothing to come
    std::this_thread::yield();
  }
}

}  // namespace detail

}  // namespace pdc::core
