// Property sweep + fuzzer self-tests. The sweep runs every collective
// (broadcast, reduce, scatter, gather, allgather — plus allreduce,
// exscan and barrier for coverage) under both algorithms and rank counts
// {1, 2, 3, 7, 8}, each against stress_iters(200) seeded fault plans:
// every run must reproduce the fault-free baseline bit-for-bit or (when
// the plan kills a rank) throw a clean RankFailedError. A hang trips the
// harness watchdog, which prints the (seed, plan) repro and aborts.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "fuzzer.hpp"
#include "pdc/mp/client.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/mp/dht.hpp"
#include "pdc/mp/fault.hpp"
#include "pdc/stencil/heat.hpp"

namespace mp = pdc::mp;
namespace pt = pdc::testing;

namespace {

/// Digest body exercising all five collectives (and the derived ones)
/// with rank-dependent inputs, so a single misrouted or stale word
/// changes some rank's digest.
pt::SpmdBody collective_body(mp::CollectiveAlgo algo) {
  return [algo](mp::RankContext& ctx) -> std::vector<std::int64_t> {
    const int p = ctx.size();
    const int r = ctx.rank();
    std::vector<std::int64_t> digest;

    digest.push_back(ctx.broadcast_value(p / 2, r == p / 2 ? 4242 : 0, algo));
    digest.push_back(ctx.reduce(0, (r + 1) * (r + 1), mp::ReduceOp::kSum, algo));

    std::vector<std::int64_t> chunks;
    if (r == p - 1)
      for (int i = 0; i < p; ++i) chunks.push_back(100 + i * 3);
    digest.push_back(ctx.scatter(p - 1, chunks));

    const auto gathered = ctx.gather(0, r * 7 + 1);
    digest.insert(digest.end(), gathered.begin(), gathered.end());

    const auto all = ctx.allgather(r * r - r);
    digest.insert(digest.end(), all.begin(), all.end());

    digest.push_back(ctx.allreduce(r + 1, mp::ReduceOp::kMax));
    digest.push_back(ctx.exscan(r + 1, mp::ReduceOp::kSum));
    ctx.barrier();
    return digest;
  };
}

}  // namespace

// ------------------------------------------------- collective sweep ---

class CollectiveFuzzSweep
    : public ::testing::TestWithParam<std::tuple<int, mp::CollectiveAlgo>> {};

TEST_P(CollectiveFuzzSweep, SurvivesSeededFaultPlans) {
  const auto [ranks, algo] = GetParam();
  pt::FuzzOptions opt;
  opt.ranks = ranks;
  opt.iterations = pt::stress_iters(200);
  // Distinct seed stream per cell so cells don't retread the same plans.
  opt.base_seed = 0xC0FFEE0DULL + static_cast<std::uint64_t>(ranks) * 131 +
                  (algo == mp::CollectiveAlgo::kTree ? 7 : 0);
  const auto report = pt::fuzz_spmd(opt, collective_body(algo));
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
  EXPECT_EQ(report.iterations_run, opt.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndAlgos, CollectiveFuzzSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 8),
                       ::testing::Values(mp::CollectiveAlgo::kFlat,
                                         mp::CollectiveAlgo::kTree)),
    [](const auto& info) {
      return "P" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == mp::CollectiveAlgo::kFlat ? "Flat"
                                                                   : "Tree");
    });

// ------------------------------------------------------- dht sweep ---

TEST(DhtFuzz, ReliableRoundsSurviveFaultPlans) {
  pt::FuzzOptions opt;
  opt.ranks = 4;
  opt.iterations = pt::stress_iters(150);
  opt.base_seed = 0xD47ULL;
  const auto report = pt::fuzz_spmd(opt, [](mp::RankContext& ctx) {
    const int p = ctx.size();
    const int r = ctx.rank();
    mp::BspHashMap dht(ctx, {true});
    for (int i = 0; i < 8; ++i) dht.queue_put(r * 100 + i, r * 1000 + i);
    (void)dht.round();
    const int peer = (r + 1) % p;
    for (int i = 0; i < 8; ++i) dht.queue_get(peer * 100 + i);
    dht.queue_get(-12345);  // never written
    std::vector<std::int64_t> digest;
    for (const auto& g : dht.round()) {
      digest.push_back(g.found ? 1 : 0);
      digest.push_back(g.value);
    }
    return digest;
  });
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
}

// ------------------------------------------- pipelined client sweep ---

// The async client under seeded fault plans, judged op-for-op against
// its own fault-free baseline: every window depth must deliver the same
// answers whether batches ride the raw channel (faults can only kill) or
// the reliable one (drop/dup/reorder apply and must be recovered).
class DhtClientFuzz
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DhtClientFuzz, PipelinedServingSurvivesFaultPlans) {
  const auto [window, reliable] = GetParam();
  pt::FuzzOptions opt;
  opt.ranks = 4;
  opt.iterations = pt::stress_iters(100);
  opt.base_seed = 0xC11E47ULL + static_cast<std::uint64_t>(window) * 977 +
                  (reliable ? 13 : 0);
  opt.allow_kill = true;
  const auto report = pt::fuzz_spmd(
      opt, [window = window, reliable = reliable](mp::RankContext& ctx) {
        const int p = ctx.size();
        const int r = ctx.rank();
        mp::DhtClient client(
            ctx, {.window = window, .max_batch = 4, .reliable = reliable});
        for (std::int64_t i = 0; i < 16; ++i)
          (void)client.put(r * 64 + i, (r * 64 + i) * 3 + 1);
        client.fence();
        const int peer = (r + 1) % p;
        std::vector<mp::DhtFuture> gets;
        for (std::int64_t i = 0; i < 16; ++i)
          gets.push_back(client.get(peer * 64 + i));
        gets.push_back(client.get(-4242));  // never written
        std::vector<std::int64_t> digest;
        for (auto& g : gets) {
          const auto res = g.wait();
          digest.push_back(res.found ? 1 : 0);
          digest.push_back(res.value);
        }
        client.shutdown();
        return digest;
      });
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndChannels, DhtClientFuzz,
    ::testing::Combine(::testing::Values(1, 8),
                       ::testing::Values(false, true)),
    [](const auto& info) {
      return std::string("W") + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Reliable" : "Raw");
    });

// ---------------------------------------------- point-to-point sweep ---

TEST(P2pFuzz, RingPipelineSurvivesFaultPlans) {
  // Each rank streams 12 tagged values to its right neighbor and reads
  // 12 from its left — lots of concurrent per-flow traffic, the worst
  // case for the reorder/dup machinery.
  pt::FuzzOptions opt;
  opt.ranks = 5;
  opt.iterations = pt::stress_iters(150);
  opt.base_seed = 0x9121ULL;
  const auto report = pt::fuzz_spmd(opt, [](mp::RankContext& ctx) {
    const int p = ctx.size();
    const int r = ctx.rank();
    const int right = (r + 1) % p;
    const int left = (r + p - 1) % p;
    for (std::int64_t i = 0; i < 12; ++i)
      ctx.send_value(right, static_cast<int>(i % 3), r * 1000 + i);
    std::vector<std::int64_t> digest;
    for (std::int64_t i = 0; i < 12; ++i)
      digest.push_back(ctx.recv_value(left, static_cast<int>(i % 3)));
    return digest;
  });
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
}

// ------------------------------------------------- stencil heat sweep ---

/// The mp heat engine's strip body, parameterized by the execution plan
/// inside each rank: a tile team of plan.threads_per_rank threads per
/// rank with comm funneled through its rank-0 thread — for {1}, the
/// rank's own thread.
pt::SpmdBody heat_strip_body(pdc::stencil::ExecPlan plan) {
  return [plan](mp::RankContext& ctx) {
    namespace st = pdc::stencil;
    const int p = ctx.size();
    const int r = ctx.rank();
    constexpr std::size_t kRows = 24, kCols = 10;
    st::HeatOptions hopt;
    hopt.conductivity = 0.25;
    hopt.tile_rows = 4;
    hopt.tile_cols = 8;
    hopt.converge_eps = 1e-2;
    hopt.max_steps = 500;

    // Deterministic global field: striped warm interior, hot top edge.
    st::HeatField g(kRows, kCols);
    for (std::size_t i = 0; i < kRows; ++i)
      for (std::size_t j = 0; j < kCols; ++j)
        g.at(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j)) =
            static_cast<float>((i * 7 + j * 13) % 5) * 0.2f;
    g.set_boundary(1.0f, 0.0f, 0.5f, 0.25f);

    // This rank's strip: whole tiles per rank, padded rows copied
    // verbatim (the ring rows double as the initial neighbor halo).
    const std::size_t n_tiles = (kRows + hopt.tile_rows - 1) / hopt.tile_rows;
    const std::size_t pp = static_cast<std::size_t>(p);
    const std::size_t rr = static_cast<std::size_t>(r);
    const std::size_t r0 = n_tiles * rr / pp * hopt.tile_rows;
    const std::size_t r1 =
        std::min(kRows, n_tiles * (rr + 1) / pp * hopt.tile_rows);
    if (r0 >= r1) return std::vector<std::int64_t>{0};
    st::HeatField strip(r1 - r0, kCols);
    for (std::ptrdiff_t pr = -1; pr <= static_cast<std::ptrdiff_t>(r1 - r0);
         ++pr)
      for (std::ptrdiff_t pc = -1; pc <= static_cast<std::ptrdiff_t>(kCols);
           ++pc)
        strip.at(pr, pc) = g.at(static_cast<std::ptrdiff_t>(r0) + pr, pc);
    const st::MpLinks links{.up = r > 0 ? r - 1 : -1,
                            .down = r + 1 < p ? r + 1 : -1};
    const auto res = st::heat_relax_strip(strip, hopt, plan, ctx, links);

    std::vector<std::int64_t> digest{
        static_cast<std::int64_t>(res.steps),
        static_cast<std::int64_t>(res.tiles_computed),
        static_cast<std::int64_t>(res.tiles_skipped),
        static_cast<std::int64_t>(res.halo_words),
        res.converged ? 1 : 0};
    for (std::size_t i = 0; i < r1 - r0; ++i)
      for (std::size_t j = 0; j < kCols; ++j)
        digest.push_back(std::bit_cast<std::uint32_t>(
            strip.at(static_cast<std::ptrdiff_t>(i),
                     static_cast<std::ptrdiff_t>(j))));
    return digest;
  };
}

TEST(HeatFuzz, StripRelaxationSurvivesFaultPlans) {
  // The mp heat engine's halo protocol (activity flag words + packed
  // float rows + the bit-exact max-delta allreduce) under seeded
  // drop/dup/reorder plans: every surviving run must converge in the
  // same number of steps to the bit-identical strip, or fail with a
  // clean RankFailedError when the plan kills a rank.
  pt::FuzzOptions opt;
  opt.ranks = 3;
  opt.iterations = pt::stress_iters(60);
  opt.base_seed = 0x4EA7ULL;
  const auto report = pt::fuzz_spmd(opt, heat_strip_body({}));
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
}

TEST(HeatFuzz, HybridStripRelaxationSurvivesFaultPlans) {
  // The same protocol with a four-thread team inside every rank (halo
  // exchange overlapped with interior tiles, comm funneled through each
  // team's rank-0 thread): fault plans must never shake a byte loose
  // from the funnel, and the repro line carries the threads= dimension.
  pt::FuzzOptions opt;
  opt.ranks = 3;
  opt.threads_per_rank = 4;
  opt.iterations = pt::stress_iters(40);
  opt.base_seed = 0x4EA8ULL;
  const auto report = pt::fuzz_spmd(
      opt, heat_strip_body({.threads_per_rank = 4}));
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
  EXPECT_NE(report.repro().find("threads=4"), std::string::npos);
}

// ------------------------------------------------- fuzzer self-test ---

TEST(FuzzerSelfTest, CatchesShrinksAndReportsABuggyBody) {
  // A deliberately buggy body: gives the wrong answer whenever the plan
  // drops aggressively. The fuzzer must catch it, shrink the plan down
  // to the one dimension that matters (drop), and emit a usable repro.
  // The failing plan's repro line must be out before the first shrink
  // replay, since a replay may hang past the test's timeout: the body
  // reads the artifact file back when a replay reaches it.
  const char* prev_artifact = std::getenv("PDC_FUZZ_ARTIFACT");
  const bool had_artifact = prev_artifact != nullptr;
  const std::string prev_value = had_artifact ? prev_artifact : "";
  const std::string artifact = ::testing::TempDir() + "pdc_fuzz_self_test_" +
                               std::to_string(::getpid()) + ".txt";
  std::remove(artifact.c_str());
  ::setenv("PDC_FUZZ_ARTIFACT", artifact.c_str(), 1);
  const auto repro_lines = [&] {
    std::ifstream f(artifact);
    int n = 0;
    for (std::string line; std::getline(f, line);)
      n += line.find("[pdc-fuzz] REPRO") == 0 ? 1 : 0;
    return n;
  };
  std::atomic<int> failing_runs{0};
  std::atomic<int> lines_at_first_replay{-1};
  pt::FuzzOptions opt;
  opt.ranks = 2;
  opt.iterations = 60;
  opt.base_seed = 0xBADBEEFULL;
  opt.allow_kill = false;  // keep the failure purely answer-mismatch
  const auto buggy = [&](mp::RankContext& ctx) -> std::vector<std::int64_t> {
    if (ctx.fault_plan().drop > 0.2) {  // the "bug"
      if (ctx.rank() == 0 && failing_runs.fetch_add(1) == 1)
        lines_at_first_replay = repro_lines();
      return {999};
    }
    return {ctx.allreduce(ctx.rank(), mp::ReduceOp::kSum)};
  };
  const auto report = pt::fuzz_spmd(opt, buggy);
  const int lines_at_end = repro_lines();
  std::remove(artifact.c_str());
  if (had_artifact)
    ::setenv("PDC_FUZZ_ARTIFACT", prev_value.c_str(), 1);
  else
    ::unsetenv("PDC_FUZZ_ARTIFACT");
  ASSERT_FALSE(report.ok) << "the fuzzer must find the injected bug";
  EXPECT_EQ(lines_at_first_replay.load(), 1)
      << "the failing plan's repro line must precede the shrink";
  EXPECT_EQ(lines_at_end, 2) << "then one line for the shrunk plan";
  EXPECT_GT(report.plan.drop, 0.2) << "shrink must keep the triggering dim";
  EXPECT_EQ(report.plan.dup, 0.0) << "shrink must zero the irrelevant dims";
  EXPECT_FALSE(report.plan.reorder);
  EXPECT_FALSE(report.plan.kills());
  EXPECT_NE(report.repro().find("seed="), std::string::npos);
  EXPECT_NE(report.repro().find("plan=FaultPlan{"), std::string::npos);
}

TEST(FuzzerSelfTest, ShrunkReproReplaysDeterministically) {
  // The repro contract end to end: take the shrunk (seed, plan) from a
  // caught failure and replay it 10 times — identical verdict every time.
  pt::FuzzOptions opt;
  opt.ranks = 2;
  opt.iterations = 60;
  opt.base_seed = 0xBADBEEFULL;
  opt.allow_kill = false;
  const auto buggy = [](mp::RankContext& ctx) -> std::vector<std::int64_t> {
    if (ctx.fault_plan().drop > 0.2) return {999};
    return {ctx.allreduce(ctx.rank(), mp::ReduceOp::kSum)};
  };
  const auto report = pt::fuzz_spmd(opt, buggy);
  ASSERT_FALSE(report.ok);
  const auto first = pt::run_plan(opt.ranks, report.plan, buggy);
  for (int i = 0; i < 9; ++i) {
    const auto again = pt::run_plan(opt.ranks, report.plan, buggy);
    EXPECT_EQ(again.outcome, first.outcome) << "replay " << i;
    EXPECT_EQ(again.per_rank, first.per_rank) << "replay " << i;
    EXPECT_EQ(again.error, first.error) << "replay " << i;
  }
}

TEST(FuzzerSelfTest, CleanBodyPassesWithKillsAllowed) {
  // Sanity: a correct body sweeps clean even when plans may kill ranks —
  // kills surface as RankFailedError, which the judge accepts.
  pt::FuzzOptions opt;
  opt.ranks = 3;
  opt.iterations = 40;
  opt.base_seed = 0x50DAULL;
  opt.allow_kill = true;
  const auto report = pt::fuzz_spmd(opt, [](mp::RankContext& ctx) {
    return std::vector<std::int64_t>{
        ctx.allreduce(ctx.rank() * 3 + 1, mp::ReduceOp::kSum),
        ctx.exscan(1, mp::ReduceOp::kSum)};
  });
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
  EXPECT_EQ(report.iterations_run, 40);
}
