#pragma once
// SPMD team: the Pthreads programming model taught in CS31 — run P
// logical threads executing the same function on different ranks, with a
// per-team reusable barrier. The threaded Game of Life engine and the
// OpenMP-style loop constructs are built on this.
//
// Regions execute on the process-wide TeamPool by default: parked workers
// take one rank each, so no thread is created on the hot path, and nested
// or concurrent regions are pooled too. `TeamOptions{.reuse_pool = false}`
// keeps the original fork-one-jthread-per-rank path selectable for the
// CS31 teaching comparison (and bench_team_launch measures the gap).

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>

#include "pdc/sync/barrier.hpp"

namespace pdc::core {

/// Split [begin, end) into `parts` near-equal contiguous blocks and return
/// block `part` (0 <= part < parts): the first (end - begin) % parts
/// blocks hold one element more than the rest. The one near-equal split
/// in pdc: team ranks, stealing seeds and strip ranks all cut through it.
[[nodiscard]] constexpr std::pair<std::size_t, std::size_t> block_range(
    std::size_t begin, std::size_t end, std::size_t part, std::size_t parts) {
  const std::size_t n = end > begin ? end - begin : 0;
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t lo = begin + part * base + std::min(part, extra);
  return {lo, lo + base + (part < extra ? 1 : 0)};
}

/// Per-thread view handed to the SPMD body.
class TeamContext {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }

  /// Synchronize all team members (reusable across phases). Throws
  /// sync::BrokenBarrierError if a teammate failed and will never arrive;
  /// let it propagate — Team::run uses it to unwind the region cleanly.
  void barrier();

  /// Split [begin, end) into `size()` near-equal contiguous blocks and
  /// return this rank's [block_begin, block_end).
  [[nodiscard]] std::pair<std::size_t, std::size_t> block_range(
      std::size_t begin, std::size_t end) const {
    return core::block_range(begin, end, static_cast<std::size_t>(rank_),
                             static_cast<std::size_t>(size_));
  }

 private:
  friend class Team;
  TeamContext(int rank, int size, sync::CyclicBarrier* barrier)
      : rank_(rank), size_(size), barrier_(barrier) {}

  int rank_;
  int size_;
  sync::CyclicBarrier* barrier_;
};

/// How a Team region is launched.
struct TeamOptions {
  /// true (default): hand the ranks to parked TeamPool workers.
  /// false: fork one fresh jthread per rank and join them — the original
  /// CS31 model, kept for the fork-vs-pool teaching comparison.
  bool reuse_pool = true;
};

/// SPMD execution: `Team::run(p, body)` runs `body(ctx)` on p ranks and
/// returns when all of them are done. Exceptions thrown by any member are
/// rethrown (lowest failing rank wins) after the region completes; members
/// blocked in ctx.barrier() when a teammate throws are released via the
/// broken-barrier protocol rather than deadlocking.
class Team {
 public:
  static void run(int threads, const std::function<void(TeamContext&)>& body);
  static void run(int threads, const TeamOptions& options,
                  const std::function<void(TeamContext&)>& body);
};

}  // namespace pdc::core
