#pragma once
// Parallel reduction and prefix scan — the "parallel reduce and scan"
// patterns named in the CS87 topic list, and the CPU stand-in for the CS40
// CUDA lab ("parallel reductions on large arrays").
//
// reduce: per-thread partial fold + sequential combine of P partials.
// scan:   the classic three-phase block scan (local sum, exclusive scan of
//         block sums, local rescan with offset) — work O(n), span O(n/P + P).
//
// Both execute their team on the persistent TeamPool (no thread creation
// per call), with the scan reusing one barrier across its three phases.

#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "pdc/core/team.hpp"

namespace pdc::core {

/// Map each element through `transform`, then reduce (parallel version of
/// std::transform_reduce), splitting the input into `threads` contiguous
/// blocks. Used for dot products and norms.
template <typename T, typename R, typename Transform, typename Op = std::plus<R>>
[[nodiscard]] R parallel_transform_reduce(std::span<const T> data, R identity,
                                          int threads, Transform transform,
                                          Op op = {}) {
  if (threads < 1) throw std::invalid_argument("threads must be >= 1");
  if (data.empty()) return identity;
  if (threads == 1 || data.size() < 2 * static_cast<std::size_t>(threads)) {
    R acc = identity;
    for (const T& x : data) acc = op(acc, transform(x));
    return acc;
  }

  std::vector<R> partial(static_cast<std::size_t>(threads), identity);
  Team::run(threads, [&](TeamContext& ctx) {
    const auto [lo, hi] = ctx.block_range(0, data.size());
    R acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, transform(data[i]));
    partial[static_cast<std::size_t>(ctx.rank())] = acc;
  });

  R acc = identity;
  for (const R& x : partial) acc = op(acc, x);
  return acc;
}

/// Fold `data` with associative `op` starting from `identity`, splitting
/// the input into `threads` contiguous blocks.
template <typename T, typename Op = std::plus<T>>
[[nodiscard]] T parallel_reduce(std::span<const T> data, T identity,
                                int threads, Op op = {}) {
  return parallel_transform_reduce<T, T>(data, identity, threads,
                                         std::identity{}, op);
}

namespace detail {

/// The three-phase block scan behind both scans. An inclusive scan folds
/// each element into the running value before writing it, an exclusive
/// one after.
template <bool kInclusive, typename T, typename Op>
void block_scan(std::span<const T> in, std::span<T> out, T identity,
                int threads, Op op) {
  if (threads < 1) throw std::invalid_argument("threads must be >= 1");
  if (in.size() != out.size())
    throw std::invalid_argument("scan size mismatch");
  const std::size_t n = in.size();
  if (n == 0) return;

  // Scan [lo, hi) onward from `acc`. The inclusive scan reads each element
  // before it writes that element's output, so it may run in place.
  const auto scan_block = [&](std::size_t lo, std::size_t hi, T acc) {
    for (std::size_t i = lo; i < hi; ++i) {
      if constexpr (kInclusive) {
        acc = op(acc, in[i]);
        out[i] = acc;
      } else {
        out[i] = acc;
        acc = op(acc, in[i]);
      }
    }
  };
  if (threads == 1 || n < 2 * static_cast<std::size_t>(threads)) {
    scan_block(0, n, identity);
    return;
  }

  std::vector<T> block_sum(static_cast<std::size_t>(threads), identity);
  Team::run(threads, [&](TeamContext& ctx) {
    // Phase 1: per-block totals.
    const auto [lo, hi] = ctx.block_range(0, n);
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, in[i]);
    block_sum[static_cast<std::size_t>(ctx.rank())] = acc;
    ctx.barrier();
    // Phase 2 (rank 0): exclusive scan of block sums.
    if (ctx.rank() == 0) {
      T run = identity;
      for (auto& b : block_sum) {
        const T next = op(run, b);
        b = run;
        run = next;
      }
    }
    ctx.barrier();
    // Phase 3: local rescan with block offset.
    scan_block(lo, hi, block_sum[static_cast<std::size_t>(ctx.rank())]);
  });
}

}  // namespace detail

/// Inclusive prefix scan: out[i] = op(in[0], ..., in[i]).
/// `out` may alias `in`. Three-phase block algorithm.
template <typename T, typename Op = std::plus<T>>
void parallel_inclusive_scan(std::span<const T> in, std::span<T> out,
                             T identity, int threads, Op op = {}) {
  detail::block_scan<true>(in, out, identity, threads, op);
}

/// Exclusive prefix scan: out[i] = op(in[0], ..., in[i-1]); out[0] =
/// identity. `out` must NOT alias `in` (the shifted read would race).
template <typename T, typename Op = std::plus<T>>
void parallel_exclusive_scan(std::span<const T> in, std::span<T> out,
                             T identity, int threads, Op op = {}) {
  if (!in.empty() && in.data() == out.data())
    throw std::invalid_argument("exclusive scan cannot run in place");
  detail::block_scan<false>(in, out, identity, threads, op);
}

}  // namespace pdc::core
