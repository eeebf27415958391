#pragma once
// OpenMP-style parallel loop over an index range, with the three classic
// schedules (static / dynamic / guided) the CS87 programming unit
// compares, plus a work-stealing schedule built on per-worker Chase–Lev
// deques (work_steal.hpp) — the runtime's native answer to skewed
// iteration costs.
//
// Semantics mirror `#pragma omp parallel for schedule(...)`: a team of
// `threads` workers executes the loop and joins at the end. Regions run on
// the persistent TeamPool by default (the OpenMP-runtime model: parked
// workers released per region); set `ForOptions::reuse_pool = false` for
// the original fork-one-thread-per-region behavior.
//
// kStealing: every worker is seeded with its static contiguous block as a
// single range in its own deque, then repeatedly pops a range, splits the
// upper half back onto the deque while the range is larger than `chunk`,
// and executes the bottom `chunk`-sized piece. Workers whose deque runs
// dry steal the *oldest* (largest) range from a victim. Uniform loops
// therefore pay only O(log(n/chunk)) deque traffic per worker over the
// static partition, while skewed loops shed their heavy tails to idle
// thieves half a range at a time. Imbalance is visible in the obs
// counters: core.steal_attempts / core.steals / core.splits and the
// per-worker core.for.chunks.r<rank> executed-chunk counts.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "pdc/core/team.hpp"
#include "pdc/core/work_steal.hpp"
#include "pdc/obs/obs.hpp"

namespace pdc::core {

enum class Schedule {
  kStatic,    ///< contiguous blocks assigned up front
  kDynamic,   ///< fixed-size chunks claimed from a shared counter
  kGuided,    ///< shrinking chunks: max(remaining/2P, chunk)
  kStealing,  ///< static seed + lazy binary splitting via Chase–Lev deques
};

struct ForOptions {
  int threads = 1;
  Schedule schedule = Schedule::kStatic;
  /// Chunk size for dynamic/guided (and the minimum chunk for guided),
  /// and the grain below which stealing stops splitting ranges.
  std::size_t chunk = 64;
  /// Execute on the persistent TeamPool (default) or fork per region.
  bool reuse_pool = true;
};

namespace detail {

/// Half-open index range carried by the stealing deques. Trivially
/// copyable (two words) so the deque can move it through atomic cells.
struct ForRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

}  // namespace detail

/// Apply `body(i)` for every i in [begin, end). `body` must be safe to call
/// concurrently on distinct indices.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const ForOptions& opt,
                  Body&& body) {
  if (opt.threads < 1) throw std::invalid_argument("threads must be >= 1");
  if (opt.chunk == 0) throw std::invalid_argument("chunk must be > 0");
  if (begin >= end) return;

  if (opt.threads == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  const TeamOptions team_opt{.reuse_pool = opt.reuse_pool};
  switch (opt.schedule) {
    case Schedule::kStatic: {
      Team::run(opt.threads, team_opt, [&](TeamContext& ctx) {
        PDC_TRACE_SCOPE("core.for.block");
        const auto [lo, hi] = ctx.block_range(begin, end);
        for (std::size_t i = lo; i < hi; ++i) body(i);
      });
      break;
    }
    case Schedule::kDynamic: {
      std::atomic<std::size_t> next{begin};
      Team::run(opt.threads, team_opt, [&](TeamContext&) {
        // Claim [lo, min(end, lo+chunk)) by CAS. Unlike a bare
        // fetch_add, the counter never advances past `end`, so ranges
        // ending near SIZE_MAX cannot wrap the counter back into the
        // loop (regression-tested at extreme begin/end).
        std::size_t lo = next.load(std::memory_order_relaxed);
        while (lo < end) {
          const std::size_t hi =
              end - lo > opt.chunk ? lo + opt.chunk : end;
          if (next.compare_exchange_weak(lo, hi,
                                         std::memory_order_relaxed)) {
            PDC_TRACE_SCOPE("core.for.chunk");
            for (std::size_t i = lo; i < hi; ++i) body(i);
            lo = next.load(std::memory_order_relaxed);
          }
          // CAS failure reloaded `lo`; retry from the fresh claim point.
        }
      });
      break;
    }
    case Schedule::kGuided: {
      std::atomic<std::size_t> next{begin};
      const std::size_t two_p = 2 * static_cast<std::size_t>(opt.threads);
      Team::run(opt.threads, team_opt, [&](TeamContext&) {
        while (true) {
          // Claim a chunk proportional to the remaining work.
          std::size_t lo = next.load(std::memory_order_relaxed);
          std::size_t take = 0;
          do {
            if (lo >= end) return;
            const std::size_t remaining = end - lo;
            take = std::max(opt.chunk, remaining / two_p);
            take = std::min(take, remaining);
          } while (!next.compare_exchange_weak(lo, lo + take,
                                               std::memory_order_relaxed));
          PDC_TRACE_SCOPE("core.for.chunk");
          for (std::size_t i = lo; i < lo + take; ++i) body(i);
        }
      });
      break;
    }
    case Schedule::kStealing: {
      static obs::Counter& c_attempts = obs::counter("core.steal_attempts");
      static obs::Counter& c_steals = obs::counter("core.steals");
      static obs::Counter& c_splits = obs::counter("core.splits");
      // One deque per worker; vector<non-movable> is fine — the count is
      // fixed up front, so no relocation ever happens.
      std::vector<WorkStealingDeque<detail::ForRange>> deques(
          static_cast<std::size_t>(opt.threads));
      Team::run(opt.threads, team_opt, [&](TeamContext& ctx) {
        const auto me = static_cast<std::size_t>(ctx.rank());
        auto& mine = deques[me];
        // Per-worker executed-chunk counter: one registry lookup per
        // region, not per chunk.
        obs::Counter& c_chunks =
            obs::counter("core.for.chunks.r" + std::to_string(ctx.rank()));

        // Split off the upper half while the range is coarser than the
        // grain (thieves take the big old halves from the top), then run
        // the bottom piece.
        const auto run_range = [&](detail::ForRange r) {
          while (r.hi - r.lo > opt.chunk) {
            const std::size_t mid = r.lo + (r.hi - r.lo) / 2;
            mine.push({mid, r.hi});
            c_splits.add(1);
            r.hi = mid;
          }
          PDC_TRACE_SCOPE("core.for.chunk");
          for (std::size_t i = r.lo; i < r.hi; ++i) body(i);
          c_chunks.add(1);
        };

        // Seed: this worker's static block, as one range. The barrier
        // makes every seed visible before anyone starts stealing (a
        // thief must not conclude "all empty" against unseeded deques).
        const auto [lo, hi] = ctx.block_range(begin, end);
        if (lo < hi) mine.push({lo, hi});
        ctx.barrier();

        // Every range is seeded before the drain, so nothing more comes.
        detail::steal_drain(
            deques, me, run_range, [] { return true; }, c_attempts, c_steals,
            "core.for.steal");
      });
      break;
    }
  }
}

/// Convenience overload: static schedule over `threads` workers.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, int threads,
                  Body&& body) {
  ForOptions opt;
  opt.threads = threads;
  parallel_for(begin, end, opt, std::forward<Body>(body));
}

}  // namespace pdc::core
