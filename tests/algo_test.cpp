// Tests for pdc::algo — sorting (property sweeps across sizes,
// distributions and thread counts), selection vs oracle, matrix kernels
// vs the naive reference, and prefix applications.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <tuple>

#include "pdc/algo/matrix.hpp"
#include "pdc/algo/prefix.hpp"
#include "pdc/algo/selection.hpp"
#include "pdc/algo/sort.hpp"

namespace pa = pdc::algo;

namespace {

enum class Dist { kRandom, kSorted, kReversed, kConstant, kFewDistinct };

std::vector<std::int64_t> make_input(std::size_t n, Dist dist,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::int64_t> v(n);
  switch (dist) {
    case Dist::kRandom:
      for (auto& x : v) x = static_cast<std::int64_t>(rng()) % 1000000;
      break;
    case Dist::kSorted:
      std::iota(v.begin(), v.end(), -static_cast<std::int64_t>(n) / 2);
      break;
    case Dist::kReversed:
      std::iota(v.begin(), v.end(), 0);
      std::reverse(v.begin(), v.end());
      break;
    case Dist::kConstant:
      std::fill(v.begin(), v.end(), 7);
      break;
    case Dist::kFewDistinct:
      for (auto& x : v) x = static_cast<std::int64_t>(rng() % 5);
      break;
  }
  return v;
}

}  // namespace

// ------------------------------------------------------------------ sort ---

class SortSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, Dist, int>> {};

TEST_P(SortSweep, ParallelMergeSortSortsAPermutation) {
  const auto [n, dist, threads] = GetParam();
  const auto input = make_input(n, dist, n * 31 + threads);
  auto expect = input;
  std::sort(expect.begin(), expect.end());

  auto seq = input;
  pa::merge_sort(seq);
  EXPECT_EQ(seq, expect);

  auto par = input;
  pa::parallel_merge_sort(par, threads);
  EXPECT_EQ(par, expect);
}

INSTANTIATE_TEST_SUITE_P(
    SizesDistsThreads, SortSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 100, 4096,
                                                      50000),
                       ::testing::Values(Dist::kRandom, Dist::kSorted,
                                         Dist::kReversed, Dist::kConstant,
                                         Dist::kFewDistinct),
                       ::testing::Values(1, 2, 4)));

TEST(Sort, StableForEqualKeys) {
  // Sort pairs by first component only; second must keep insertion order.
  std::vector<std::pair<int, int>> v;
  for (int i = 0; i < 100; ++i) v.emplace_back(i % 3, i);
  pa::merge_sort(v, [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1].first == v[i].first) {
      EXPECT_LT(v[i - 1].second, v[i].second);
    }
  }
}

TEST(Sort, CustomComparatorDescending) {
  auto v = make_input(1000, Dist::kRandom, 3);
  pa::parallel_merge_sort(v, 4, std::greater<std::int64_t>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(),
                             std::greater<std::int64_t>{}));
  // Like every other threads-taking entry point, it rejects a team < 1.
  EXPECT_THROW(pa::parallel_merge_sort(v, 0), std::invalid_argument);
  EXPECT_THROW(pa::parallel_merge_sort(v, -1), std::invalid_argument);
}

// ------------------------------------------------------------- selection ---

class SelectionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, Dist>> {};

TEST_P(SelectionSweep, AllThreeAlgorithmsAgreeWithOracle) {
  const auto [n, dist] = GetParam();
  const auto input = make_input(n, dist, n + 17);
  auto sorted = input;
  std::sort(sorted.begin(), sorted.end());

  for (std::size_t k :
       {std::size_t{0}, n / 4, n / 2, n - 1}) {
    const auto expect = sorted[k];
    EXPECT_EQ(pa::sort_select(input, k), expect) << "k=" << k;
    EXPECT_EQ(pa::quickselect(input, k), expect) << "k=" << k;
    EXPECT_EQ(pa::median_of_medians(input, k), expect) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDists, SelectionSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 100, 10001),
                       ::testing::Values(Dist::kRandom, Dist::kSorted,
                                         Dist::kReversed, Dist::kConstant,
                                         Dist::kFewDistinct)));

TEST(Selection, RejectsBadInput) {
  const std::vector<std::int64_t> empty;
  EXPECT_THROW((void)pa::quickselect(empty, 0), std::invalid_argument);
  const std::vector<std::int64_t> v = {1, 2, 3};
  EXPECT_THROW((void)pa::quickselect(v, 3), std::out_of_range);
  EXPECT_THROW((void)pa::median_of_medians(v, 5), std::out_of_range);
  EXPECT_THROW((void)pa::sort_select(v, 99), std::out_of_range);
}

// ---------------------------------------------------------------- matrix ---

TEST(Matrix, BasicAccessAndBounds) {
  pa::Matrix m(3, 4);
  m.at(2, 3) = 1.5;
  EXPECT_DOUBLE_EQ(m.at(2, 3), 1.5);
  EXPECT_THROW((void)m.at(3, 0), std::out_of_range);
  EXPECT_THROW(pa::Matrix(0, 4), std::invalid_argument);
}

TEST(Matrix, KnownProduct) {
  pa::Matrix a(2, 2), b(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  const auto c = pa::matmul_naive(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

class MatmulSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatmulSweep, AllKernelsMatchNaive) {
  const std::size_t n = GetParam();
  pa::Matrix a(n, n), b(n, n);
  a.fill_pattern(1);
  b.fill_pattern(2);
  const auto reference = pa::matmul_naive(a, b);
  EXPECT_LT(pa::matmul_ikj(a, b).max_diff(reference), 1e-9);
  EXPECT_LT(pa::matmul_blocked(a, b, 8).max_diff(reference), 1e-9);
  EXPECT_LT(pa::matmul_blocked(a, b).max_diff(reference), 1e-9);
  for (int threads : {1, 2, 4})
    EXPECT_LT(pa::matmul_parallel(a, b, threads).max_diff(reference), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulSweep,
                         ::testing::Values(1, 7, 16, 33, 64));

TEST(Matrix, RectangularMultiply) {
  pa::Matrix a(3, 5), b(5, 2);
  a.fill_pattern(3);
  b.fill_pattern(4);
  const auto c = pa::matmul_ikj(a, b);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_LT(c.max_diff(pa::matmul_naive(a, b)), 1e-9);
}

TEST(Matrix, DimensionMismatchThrows) {
  pa::Matrix a(3, 4), b(3, 4);
  EXPECT_THROW((void)pa::matmul_naive(a, b), std::invalid_argument);
}

TEST(Matrix, TransposeInvolution) {
  pa::Matrix m(5, 9);
  m.fill_pattern(8);
  const auto t = pa::transpose(m);
  EXPECT_EQ(t.rows(), 9u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_DOUBLE_EQ(t.at(3, 4), m.at(4, 3));
  EXPECT_EQ(pa::transpose(t), m);
}

TEST(Matrix, TransposedMultiplyIdentity) {
  // (A*B)^T == B^T * A^T.
  pa::Matrix a(6, 6), b(6, 6);
  a.fill_pattern(5);
  b.fill_pattern(6);
  const auto left = pa::transpose(pa::matmul_ikj(a, b));
  const auto right = pa::matmul_ikj(pa::transpose(b), pa::transpose(a));
  EXPECT_LT(left.max_diff(right), 1e-9);
}

// ---------------------------------------------------------------- prefix ---

class PackSweep : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(PackSweep, MatchesCopyIf) {
  const auto [n, threads] = GetParam();
  const auto input = make_input(n, Dist::kRandom, n + 3);
  auto is_even = [](std::int64_t x) { return x % 2 == 0; };

  std::vector<std::int64_t> expect;
  std::copy_if(input.begin(), input.end(), std::back_inserter(expect),
               is_even);

  const auto got = pa::parallel_pack<std::int64_t>(input, is_even, threads);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndThreads, PackSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 100, 10000),
                       ::testing::Values(1, 2, 4)));

TEST(Pack, AllAndNone) {
  const std::vector<std::int64_t> v = {1, 2, 3, 4};
  EXPECT_EQ((pa::parallel_pack<std::int64_t>(
                v, [](std::int64_t) { return true; }, 2)),
            v);
  EXPECT_TRUE((pa::parallel_pack<std::int64_t>(
                   v, [](std::int64_t) { return false; }, 2))
                  .empty());
}

TEST(Histogram, MatchesSequentialCount) {
  const auto input = make_input(50000, Dist::kRandom, 11);
  auto bin_of = [](std::int64_t x) {
    return static_cast<std::size_t>(((x % 16) + 16) % 16);
  };
  std::vector<std::uint64_t> expect(16, 0);
  for (auto x : input) ++expect[bin_of(x)];

  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ((pa::parallel_histogram<std::int64_t>(input, 16, bin_of,
                                                    threads)),
              expect)
        << "threads=" << threads;
  }
}

TEST(Histogram, RejectsBadArgs) {
  const std::vector<std::int64_t> v = {1};
  auto bin_of = [](std::int64_t) { return std::size_t{0}; };
  EXPECT_THROW(
      (void)pa::parallel_histogram<std::int64_t>(v, 0, bin_of, 2),
      std::invalid_argument);
  EXPECT_THROW(
      (void)pa::parallel_histogram<std::int64_t>(v, 1, bin_of, 0),
      std::invalid_argument);
}

// ------------------------------------------------------------ sample sort ---

#include "pdc/algo/sample_sort.hpp"

class SampleSortSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, Dist, int>> {};

TEST_P(SampleSortSweep, SortsAndIsPermutation) {
  const auto [n, dist, ranks] = GetParam();
  const auto input = make_input(n, dist, n * 7 + ranks);
  auto expect = input;
  std::sort(expect.begin(), expect.end());
  const auto got = pa::mp_sample_sort(input, ranks);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(
    SizesDistsRanks, SampleSortSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 10, 1000, 20000),
                       ::testing::Values(Dist::kRandom, Dist::kSorted,
                                         Dist::kReversed, Dist::kConstant,
                                         Dist::kFewDistinct),
                       ::testing::Values(1, 2, 4, 7)));

TEST(SampleSort, ReportsTraffic) {
  const auto input = make_input(10000, Dist::kRandom, 1);
  std::uint64_t messages = 0, words = 0;
  const auto got = pa::mp_sample_sort(input, 4, &messages, &words);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GT(messages, 0u);
  // Every key crosses the network at most once in the partition
  // exchange, plus samples/pivots/sizes: comfortably under 2N words.
  EXPECT_LT(words, 2 * input.size());
}

TEST(SampleSort, RejectsBadRanks) {
  std::vector<std::int64_t> v = {1, 2, 3};
  EXPECT_THROW((void)pa::mp_sample_sort(v, 0), std::invalid_argument);
}

// ------------------------------------------------------------------- join ---

#include "pdc/algo/join.hpp"

namespace {

std::vector<pa::Row> make_relation(std::size_t n, std::int64_t key_range,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<pa::Row> rel(n);
  for (std::size_t i = 0; i < n; ++i)
    rel[i] = {static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                  key_range)),
              static_cast<std::int64_t>(i)};
  return rel;
}

std::vector<pa::JoinedRow> sorted_copy(std::vector<pa::JoinedRow> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

TEST(Join, KnownSmallCase) {
  const std::vector<pa::Row> r = {{1, 10}, {2, 20}, {2, 21}, {3, 30}};
  const std::vector<pa::Row> s = {{2, 200}, {3, 300}, {4, 400}};
  const auto out = sorted_copy(pa::hash_join(r, s));
  // key 2: 2 left rows x 1 right row; key 3: 1 x 1 = 3 tuples.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (pa::JoinedRow{2, 20, 200}));
  EXPECT_EQ(out[1], (pa::JoinedRow{2, 21, 200}));
  EXPECT_EQ(out[2], (pa::JoinedRow{3, 30, 300}));
}

TEST(Join, EmptyRelations) {
  const std::vector<pa::Row> r = {{1, 10}};
  const std::vector<pa::Row> empty;
  EXPECT_TRUE(pa::hash_join(r, empty).empty());
  EXPECT_TRUE(pa::hash_join(empty, r).empty());
  EXPECT_TRUE(pa::parallel_hash_join(empty, empty, 2).empty());
}

class JoinSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::int64_t,
                                                 int>> {};

TEST_P(JoinSweep, AllJoinsAgreeWithNestedLoopOracle) {
  const auto [n, key_range, threads] = GetParam();
  const auto r = make_relation(n, key_range, n + 1);
  const auto s = make_relation(n / 2 + 1, key_range, n + 2);

  const auto oracle = sorted_copy(pa::nested_loop_join(r, s));
  EXPECT_EQ(sorted_copy(pa::hash_join(r, s)), oracle);
  EXPECT_EQ(sorted_copy(pa::parallel_hash_join(r, s, threads)), oracle);
}

INSTANTIATE_TEST_SUITE_P(
    SizesKeysThreads, JoinSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 10, 500, 2000),
                       ::testing::Values<std::int64_t>(2, 50, 100000),
                       ::testing::Values(1, 2, 4)));

TEST(Join, SkewedKeysStillCorrect) {
  // All rows share one key: quadratic output, heavy single partition.
  const std::size_t n = 200;
  std::vector<pa::Row> r(n), s(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = {7, static_cast<std::int64_t>(i)};
    s[i] = {7, static_cast<std::int64_t>(1000 + i)};
  }
  const auto out = pa::parallel_hash_join(r, s, 4);
  EXPECT_EQ(out.size(), n * n);
}

TEST(Join, RejectsBadThreadCount) {
  const std::vector<pa::Row> r = {{1, 1}};
  EXPECT_THROW((void)pa::parallel_hash_join(r, r, 0),
               std::invalid_argument);
}
