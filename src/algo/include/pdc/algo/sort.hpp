#pragma once
// Merge sort — CS41's unifying example across models of computation:
//   RAM model:       sequential merge sort, Θ(n log n) comparisons
//   shared memory:   fork-join parallel merge sort (invoke_parallel),
//                    work Θ(n log n), span Θ(n) with sequential merges
//   I/O model:       external merge sort (pdc::extmem::external_merge_sort)
// The analytic DAG lives in pdc::model::fork_join_sort_dag.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <vector>

#include "pdc/core/task_group.hpp"

namespace pdc::algo {

namespace detail {

template <typename T, typename Cmp>
void merge_sort_rec(std::vector<T>& data, std::vector<T>& scratch,
                    std::size_t lo, std::size_t hi, const Cmp& cmp) {
  if (hi - lo <= 1) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  merge_sort_rec(data, scratch, lo, mid, cmp);
  merge_sort_rec(data, scratch, mid, hi, cmp);
  std::merge(data.begin() + static_cast<long>(lo),
             data.begin() + static_cast<long>(mid),
             data.begin() + static_cast<long>(mid),
             data.begin() + static_cast<long>(hi),
             scratch.begin() + static_cast<long>(lo), cmp);
  std::copy(scratch.begin() + static_cast<long>(lo),
            scratch.begin() + static_cast<long>(hi),
            data.begin() + static_cast<long>(lo));
}

template <typename T, typename Cmp>
void parallel_merge_sort_rec(std::vector<T>& data, std::vector<T>& scratch,
                             std::size_t lo, std::size_t hi, const Cmp& cmp,
                             int depth) {
  constexpr std::size_t kCutoff = 2048;
  if (depth <= 0 || hi - lo <= kCutoff) {
    merge_sort_rec(data, scratch, lo, hi, cmp);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  core::invoke_parallel(
      [&] { parallel_merge_sort_rec(data, scratch, lo, mid, cmp, depth - 1); },
      [&] { parallel_merge_sort_rec(data, scratch, mid, hi, cmp, depth - 1); },
      /*depth_budget=*/1);
  std::merge(data.begin() + static_cast<long>(lo),
             data.begin() + static_cast<long>(mid),
             data.begin() + static_cast<long>(mid),
             data.begin() + static_cast<long>(hi),
             scratch.begin() + static_cast<long>(lo), cmp);
  std::copy(scratch.begin() + static_cast<long>(lo),
            scratch.begin() + static_cast<long>(hi),
            data.begin() + static_cast<long>(lo));
}

}  // namespace detail

/// Sequential merge sort (stable).
template <typename T, typename Cmp = std::less<T>>
void merge_sort(std::vector<T>& data, Cmp cmp = {}) {
  std::vector<T> scratch(data.size());
  detail::merge_sort_rec(data, scratch, 0, data.size(), cmp);
}

/// Fork-join parallel merge sort: recursion forks until ~`threads` leaves
/// (then sorts sequentially); merges are sequential, so the span is Θ(n) —
/// expect speedup to flatten well below linear, exactly as the work/span
/// analysis predicts. Throws std::invalid_argument when threads < 1.
template <typename T, typename Cmp = std::less<T>>
void parallel_merge_sort(std::vector<T>& data, int threads, Cmp cmp = {}) {
  if (threads < 1) throw std::invalid_argument("threads must be >= 1");
  std::vector<T> scratch(data.size());
  detail::parallel_merge_sort_rec(data, scratch, 0, data.size(), cmp,
                                  core::fork_depth_for_threads(threads));
}

}  // namespace pdc::algo
