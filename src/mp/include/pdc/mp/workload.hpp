#pragma once
// Deterministic workload generation for the KV-serving benches and tests:
// a splitmix64 value stream and a Zipf(theta) key sampler. Both are pure
// functions of their seed, so every rank of an SPMD body can derive its
// own stream and the run replays bit-for-bit — the same discipline as the
// fault plans.
//
// Zipf is the standard skewed-popularity model for KV serving (YCSB's
// default): P(rank k) ~ 1/k^theta over n keys. theta = 0 is uniform;
// theta ~ 0.99 is the classic "hot-key" web workload where a few keys
// absorb most of the traffic — exactly the shape that punishes bad shard
// placement and per-shard queueing.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "pdc/mp/fault.hpp"

namespace pdc::mp {

/// splitmix64 PRNG: tiny state, high quality, and the same finalizer the
/// fault layer and shard placement already use.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : x_(seed) {}

  /// mix64 of the state, which then steps by mix64's golden-ratio
  /// increment.
  std::uint64_t next() {
    const std::uint64_t z = detail::mix64(x_);
    x_ += 0x9e3779b97f4a7c15ULL;
    return z;
  }

  /// Uniform double in [0, 1) (53-bit mantissa trick).
  double next_unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t x_;
};

/// Zipf(theta) sampler over {0, ..., n-1} by inverse-CDF binary search on
/// a precomputed cumulative table (O(n) setup, O(log n) per draw, exact).
/// Key 0 is the hottest. theta = 0 degrades to uniform.
class ZipfGenerator {
 public:
  ZipfGenerator(std::size_t n, double theta, std::uint64_t seed)
      : rng_(seed), cdf_(n) {
    if (n == 0) throw std::invalid_argument("zipf: need at least one key");
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
      cdf_[k] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  /// Next key index, 0-based, 0 = hottest.
  std::int64_t next() {
    const double u = rng_.next_unit();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u)
        lo = mid + 1;
      else
        hi = mid;
    }
    return static_cast<std::int64_t>(lo);
  }

  [[nodiscard]] std::size_t keyspace() const { return cdf_.size(); }

 private:
  SplitMix64 rng_;
  std::vector<double> cdf_;
};

}  // namespace pdc::mp
