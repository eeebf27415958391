#include "pdc/algo/selection.hpp"

#include <algorithm>
#include <stdexcept>

namespace pdc::algo {

namespace {

void check(std::span<const std::int64_t> data, std::size_t k) {
  if (data.empty()) throw std::invalid_argument("selection on empty input");
  if (k >= data.size()) throw std::out_of_range("selection rank");
}

/// Three-way partition of `v` around `pivot`: returns (less, equal) sizes.
std::pair<std::size_t, std::size_t> partition3(std::vector<std::int64_t>& v,
                                               std::int64_t pivot) {
  std::size_t lt = 0, eq = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] < pivot) ++lt;
    if (v[i] == pivot) ++eq;
  }
  std::vector<std::int64_t> out;
  out.reserve(v.size());
  for (auto x : v)
    if (x < pivot) out.push_back(x);
  for (auto x : v)
    if (x == pivot) out.push_back(x);
  for (auto x : v)
    if (x > pivot) out.push_back(x);
  v = std::move(out);
  return {lt, eq};
}

/// The k-th smallest of `v`: partition around `pivot_of(v)` and keep the
/// side that holds rank k, until at most `cutoff` values remain to sort.
template <class PivotRule>
std::int64_t select_loop(std::vector<std::int64_t> v, std::size_t k,
                         std::size_t cutoff, PivotRule pivot_of) {
  while (v.size() > cutoff) {
    const std::int64_t pivot = pivot_of(v);
    const auto [lt, eq] = partition3(v, pivot);
    if (k < lt) {
      v.resize(lt);
    } else if (k < lt + eq) {
      return pivot;
    } else {
      v.erase(v.begin(), v.begin() + static_cast<long>(lt + eq));
      k -= lt + eq;
    }
  }
  std::sort(v.begin(), v.end());
  return v[k];
}

std::int64_t mom_select(std::vector<std::int64_t> v, std::size_t k);

/// BFPRT pivot: median of the medians of groups of 5.
std::int64_t mom_pivot(const std::vector<std::int64_t>& v) {
  std::vector<std::int64_t> medians;
  medians.reserve(v.size() / 5 + 1);
  for (std::size_t i = 0; i < v.size(); i += 5) {
    const std::size_t len = std::min<std::size_t>(5, v.size() - i);
    std::vector<std::int64_t> group(v.begin() + static_cast<long>(i),
                                    v.begin() + static_cast<long>(i + len));
    std::sort(group.begin(), group.end());
    medians.push_back(group[len / 2]);
  }
  if (medians.size() == 1) return medians[0];
  const std::size_t mid = medians.size() / 2;
  return mom_select(std::move(medians), mid);
}

std::int64_t mom_select(std::vector<std::int64_t> v, std::size_t k) {
  return select_loop(std::move(v), k, 5, mom_pivot);
}

}  // namespace

std::int64_t sort_select(std::span<const std::int64_t> data, std::size_t k) {
  check(data, k);
  std::vector<std::int64_t> v(data.begin(), data.end());
  std::sort(v.begin(), v.end());
  return v[k];
}

std::int64_t quickselect(std::span<const std::int64_t> data, std::size_t k,
                         std::uint64_t seed) {
  check(data, k);
  // The pivot is the element an xorshift64 stream points at.
  std::uint64_t s = seed ? seed : 1;
  return select_loop(std::vector<std::int64_t>(data.begin(), data.end()), k,
                     1, [&s](const std::vector<std::int64_t>& v) {
                       s ^= s << 13;
                       s ^= s >> 7;
                       s ^= s << 17;
                       return v[s % v.size()];
                     });
}

std::int64_t median_of_medians(std::span<const std::int64_t> data,
                               std::size_t k) {
  check(data, k);
  return mom_select(std::vector<std::int64_t>(data.begin(), data.end()), k);
}

}  // namespace pdc::algo
