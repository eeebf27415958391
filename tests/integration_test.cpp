// Cross-module integration tests: scenarios that exercise several pdc
// libraries together, the way the curriculum's capstone labs do.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "pdc/algo/sample_sort.hpp"
#include "pdc/algo/sort.hpp"
#include "pdc/core/pipeline.hpp"
#include "pdc/core/reduce_scan.hpp"
#include "pdc/extmem/external_sort.hpp"
#include "pdc/extmem/ooc_matrix.hpp"
#include "pdc/isa/assembler.hpp"
#include "pdc/isa/vm.hpp"
#include "pdc/life/engine.hpp"
#include "pdc/mapreduce/jobs.hpp"
#include "pdc/memsim/coherence.hpp"
#include "pdc/model/bsp.hpp"
#include "pdc/model/task_graph.hpp"
#include "pdc/os/shell.hpp"
#include "pdc/perf/laws.hpp"

// --- sorting stack: four sort implementations agree on one input ---

TEST(Integration, FourSortsAgree) {
  std::mt19937_64 rng(41);
  std::vector<std::int64_t> base(30000);
  for (auto& v : base) v = static_cast<std::int64_t>(rng() % 1000000);

  auto expect = base;
  std::sort(expect.begin(), expect.end());

  auto seq = base;
  pdc::algo::merge_sort(seq);

  auto par = base;
  pdc::algo::parallel_merge_sort(par, 4);

  auto ext = base;
  (void)pdc::extmem::external_merge_sort(ext, 256, 8 * 256);

  const auto dist = pdc::algo::mp_sample_sort(base, 4);

  EXPECT_EQ(seq, expect);
  EXPECT_EQ(par, expect);
  EXPECT_EQ(ext, expect);
  EXPECT_EQ(dist, expect);
}

// --- work/span model vs measured scaling: Brent's bound holds for the
// fork-join sort DAG at every processor count ---

TEST(Integration, SortDagBrentBoundBracketsGreedySchedule) {
  const auto dag = pdc::model::fork_join_sort_dag(1 << 12, 64);
  for (int p : {1, 2, 4, 8, 16}) {
    const double tp = dag.greedy_schedule_makespan(p);
    EXPECT_GE(tp + 1e-9, std::max(dag.total_work() / p, dag.span()));
    EXPECT_LE(tp, dag.brent_bound(p) + 1e-9);
  }
  // Speedup from the DAG saturates at the parallelism.
  const double s16 =
      dag.total_work() / dag.greedy_schedule_makespan(16);
  EXPECT_LE(s16, dag.parallelism() + 1e-9);
}

// --- the shell driving a VM-style workload: run a pipeline, then check
// kernel bookkeeping is fully clean ---

TEST(Integration, ShellSessionLeavesCleanKernel) {
  pdc::os::Kernel kernel;
  pdc::os::Shell shell(kernel, pdc::os::CommandRegistry::standard());
  shell.execute("yes a 4 | cat; echo mid; yes b 2 | cat | cat &");
  shell.execute("echo done");
  shell.wait_all();
  // Only init remains; every other process was reaped.
  EXPECT_EQ(kernel.process_count(), 1u);
  // Console carries 4 a's, mid, 2 b's, done = 8 lines.
  EXPECT_EQ(kernel.console().size(), 8u);
}

// --- binary bomb end-to-end through assembler + VM + profiler ---

TEST(Integration, VmProfilerFindsTheHotLoop) {
  const auto program = pdc::isa::assemble(R"(
      mov r0, $1000
    loop:
      sub r0, $1
      cmp r0, $0
      jg loop
      halt
  )");
  pdc::isa::Vm vm(program);
  vm.run();
  // The three loop instructions dominate the profile.
  const auto hot = vm.hottest_instructions(3);
  ASSERT_EQ(hot.size(), 3u);
  for (const auto& [pc, count] : hot) {
    EXPECT_GE(pc, 1u);
    EXPECT_LE(pc, 3u);
    EXPECT_EQ(count, 1000u);
  }
  EXPECT_EQ(vm.opcode_count(pdc::isa::Opcode::kSub), 1000u);
  EXPECT_EQ(vm.opcode_count(pdc::isa::Opcode::kMov), 1u);
}

// --- MapReduce word count cross-checked with a parallel-reduce count ---

TEST(Integration, MapReduceAgreesWithParallelReduce) {
  const auto corpus = pdc::mapreduce::synthetic_corpus(60, 80, 17);
  const auto counts = pdc::mapreduce::word_count(corpus);

  // Total words via MapReduce == total words via parallel reduction over
  // per-document token counts.
  std::vector<std::int64_t> per_doc(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    per_doc[i] =
        static_cast<std::int64_t>(pdc::mapreduce::tokenize(corpus[i]).size());
  const auto total_tokens =
      pdc::core::parallel_reduce<std::int64_t>(per_doc, 0, 4);

  std::int64_t total_counted = 0;
  for (const auto& [w, c] : counts) total_counted += c;
  EXPECT_EQ(total_counted, total_tokens);
}

// --- Life message-passing traffic obeys the BSP h-relation model ---

TEST(Integration, LifeTrafficMatchesBspHRelation) {
  // Each generation is a superstep with h = 2 packed halo messages per
  // rank; 64 columns pack into a single payload word per row on the
  // wire, plus one per-tile activity flag word per message.
  pdc::life::Grid board = pdc::life::random_grid(64, 64, 0.3, 3);
  const int gens = 12, ranks = 4;
  const std::uint64_t words_per_msg = 64 / 64 + 1;
  std::uint64_t messages = 0, words = 0;
  pdc::life::run_message_passing(board, gens, ranks, {}, &messages, &words);

  pdc::model::BspProgram prog;
  for (int g = 0; g < gens; ++g)
    prog.add_superstep(/*work=*/64.0 * 64.0 / ranks,
                       /*h=*/2 * words_per_msg);
  // Total payload words == sum of h-relations across ranks and gens.
  EXPECT_EQ(words,
            static_cast<std::uint64_t>(gens) * ranks * 2 * words_per_msg);
  EXPECT_EQ(prog.supersteps(), static_cast<std::size_t>(gens));
}

// --- coherence invariants hold after randomized workloads ---

TEST(Integration, CoherenceInvariantsUnderRandomWorkload) {
  std::mt19937_64 rng(19);
  for (auto proto :
       {pdc::memsim::Protocol::kMsi, pdc::memsim::Protocol::kMesi}) {
    pdc::memsim::SnoopBus bus(4, proto, 64);
    for (int i = 0; i < 20000; ++i) {
      const int core = static_cast<int>(rng() % 4);
      const pdc::memsim::Address addr = (rng() % 64) * 8;
      if (rng() % 3 == 0) {
        bus.write(core, addr);
      } else {
        bus.read(core, addr);
      }
    }
    EXPECT_TRUE(bus.invariants_hold())
        << pdc::memsim::protocol_name(proto);
  }
}

// --- pipeline pattern: order preservation and composition with scan ---

TEST(Integration, PipelineComposesStagesInOrder) {
  pdc::core::Pipeline<std::int64_t> pipe(
      {[](std::int64_t x) { return x + 1; },
       [](std::int64_t x) { return x * 2; },
       [](std::int64_t x) { return x - 3; }},
      /*buffer_capacity=*/4);
  std::vector<std::int64_t> inputs(500);
  std::iota(inputs.begin(), inputs.end(), 0);
  const auto out = pipe.run(inputs);
  ASSERT_EQ(out.size(), inputs.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], (static_cast<std::int64_t>(i) + 1) * 2 - 3);
}

// --- external sort through a shared device alongside an OOC matrix:
// both subsystems share one block device without interference ---

TEST(Integration, SharedDeviceSortAndMatrix) {
  pdc::extmem::BlockDevice dev(512, 64);
  // Matrix occupies blocks [0, 128): 32x32 doubles = 8KB.
  pdc::extmem::BufferCache cache(dev, 16);
  pdc::extmem::OocMatrix m(cache, 32, 0);
  m.fill_pattern(5);
  const double probe = m.get(7, 9);

  // Sort lives in blocks [128, 384).
  pdc::extmem::DeviceSpan input(dev, 128, 1000);
  pdc::extmem::DeviceSpan scratch(dev, 256, 1000);
  std::mt19937_64 rng(6);
  std::vector<std::int64_t> values(1000);
  for (auto& v : values) v = static_cast<std::int64_t>(rng() % 10000);
  input.write_range(0, values);
  pdc::extmem::ExtSortConfig cfg;
  cfg.memory_bytes = 4 * 64;
  (void)pdc::extmem::external_merge_sort(dev, input, scratch, cfg);

  std::vector<std::int64_t> sorted;
  input.read_range(0, 1000, sorted);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  // The matrix region is untouched.
  EXPECT_DOUBLE_EQ(m.get(7, 9), probe);
}

// --- cache-oblivious transpose beats naive on I/Os and agrees on data ---

TEST(Integration, CacheObliviousTranspose) {
  const std::size_t n = 64;
  pdc::extmem::BlockDevice dev(2048, 64);
  pdc::extmem::BufferCache cache(dev, 16);  // tiny: 1KB
  pdc::extmem::OocMatrix a(cache, n, 0);
  pdc::extmem::OocMatrix t1(cache, n, a.footprint_bytes());
  pdc::extmem::OocMatrix t2(cache, n, 2 * a.footprint_bytes());
  a.fill_pattern(7);

  const auto naive_ios = pdc::extmem::transpose_naive(a, t1);
  const auto co_ios = pdc::extmem::transpose_cache_oblivious(a, t2);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      ASSERT_DOUBLE_EQ(t1.get(r, c), a.get(c, r));
      ASSERT_DOUBLE_EQ(t2.get(r, c), t1.get(r, c));
    }
  EXPECT_LT(co_ios, naive_ios / 2)
      << "co=" << co_ios << " naive=" << naive_ios;
}

// --- Amdahl fit pipeline: generate scaling data from the DAG scheduler,
// fit it, and check the fitted fraction is sane ---

TEST(Integration, DagScheduleScalingFitsAmdahl) {
  const auto dag = pdc::model::fork_join_sort_dag(1 << 10, 8);
  std::vector<int> threads = {1, 2, 4, 8, 16};
  std::vector<double> seconds;
  for (int p : threads)
    seconds.push_back(dag.greedy_schedule_makespan(p));
  const auto rows = pdc::perf::scaling_table(threads, seconds);
  const double f = pdc::perf::fit_amdahl_serial_fraction(rows);
  // The DAG's serial fraction is span/work.
  const double expected = dag.span() / dag.total_work();
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 10 * expected + 0.2);
}
