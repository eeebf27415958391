// The CS31 "Parallel Game of Life" lab as a program:
//
//   build/examples/game_of_life [rows cols generations max_threads]
//
// Runs a glider demo (printed), checks that the three execution plans of
// the one Life engine agree — sequential {1,1}, threaded {1,T} and
// message-passing {R,1} — and performs the lab's scalability study on the
// threaded plan. Exits 1 if the plans disagree, and 2 on a bad argument
// or any other error.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <limits>

#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/perf/scalability.hpp"

namespace {

constexpr int kMaxThreads = 1024;

/// argv[i] as a whole decimal number in [lo, hi], or `fallback` when the
/// argument is absent; false on junk, a sign or a value out of range.
template <class T>
bool parse_arg(int argc, char** argv, int i, T fallback, T lo, T hi,
               T& out) {
  if (argc <= i) {
    out = fallback;
    return true;
  }
  const char* s = argv[i];
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, out);
  return ec == std::errc{} && ptr == end && out >= lo && out <= hi;
}

int run(std::size_t rows, std::size_t cols, int gens, int max_threads) {
  // Built first, so a board too large to address fails before any output.
  const auto start = pdc::life::random_grid(rows, cols, 0.3, 42);

  // --- visual demo: a glider crossing a small torus ---
  pdc::life::Grid demo(8, 8);
  pdc::life::stamp(demo, pdc::life::glider(), 0, 0);
  std::cout << "glider, generation 0:\n" << demo.to_string() << "\n";
  pdc::life::run_plan(demo, 4, {});
  std::cout << "after 4 generations (moved one cell diagonally):\n"
            << demo.to_string() << "\n";

  // --- plan equivalence on the study board ---
  pdc::life::Grid seq = start, thr = start, msg = start;
  pdc::life::run_plan(seq, gens, {});
  pdc::life::run_plan(thr, gens, {.threads_per_rank = max_threads});
  // A strip needs at least one row, so a short board gets fewer ranks.
  const int ranks =
      static_cast<int>(std::min<std::size_t>(std::min(max_threads, 4), rows));
  std::uint64_t messages = 0, words = 0;
  pdc::life::run_message_passing(msg, gens, ranks, {}, &messages, &words);
  const bool agree = seq == thr && thr == msg;
  std::cout << "engines agree: " << std::boolalpha << agree
            << " (population " << seq.population() << ")\n";
  std::cout << "message-passing traffic: " << messages << " messages, "
            << words << " cell-words\n\n";

  // --- the lab's scalability study ---
  pdc::perf::StudyConfig cfg;
  cfg.thread_counts.clear();
  for (int t = 1; t <= max_threads; t *= 2) cfg.thread_counts.push_back(t);
  cfg.repetitions = 3;
  const auto study = pdc::perf::run_strong_scaling(cfg, [&](int threads) {
    pdc::life::Grid board = start;
    pdc::life::run_plan(board, gens, {.threads_per_rank = threads});
  });
  std::cout << "threaded Game of Life, " << rows << "x" << cols << ", "
            << gens << " generations:\n"
            << study.to_table();
  return agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kMaxSize = std::numeric_limits<std::size_t>::max();
  std::size_t rows = 0, cols = 0;
  int gens = 0, max_threads = 0;
  if (argc > 5 ||
      !parse_arg<std::size_t>(argc, argv, 1, 256, 1, kMaxSize, rows) ||
      !parse_arg<std::size_t>(argc, argv, 2, 256, 1, kMaxSize, cols) ||
      !parse_arg(argc, argv, 3, 50, 0, std::numeric_limits<int>::max(),
                 gens) ||
      !parse_arg(argc, argv, 4, 4, 1, kMaxThreads, max_threads)) {
    std::cerr << "usage: " << argv[0]
              << " [rows cols generations max_threads]\n"
                 "  rows, cols >= 1; generations >= 0; 1 <= max_threads <= "
              << kMaxThreads << "\n";
    return 2;
  }
  try {
    return run(rows, cols, gens, max_threads);
  } catch (const std::exception& e) {
    std::cerr << "game_of_life: " << e.what() << "\n";
    return 2;
  }
}
