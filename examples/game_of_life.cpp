// The CS31 "Parallel Game of Life" lab as a program:
//
//   build/examples/game_of_life [rows cols generations max_threads]
//
// Runs a glider demo (printed), checks that the three execution plans of
// the one Life engine agree — sequential {1,1}, threaded {1,T} and
// message-passing {R,1} — and performs the lab's scalability study on the
// threaded plan. Exits 1 if the plans disagree.

#include <cstdlib>
#include <iostream>

#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/perf/scalability.hpp"

int main(int argc, char** argv) {
  const std::size_t rows = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 256;
  const std::size_t cols = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 256;
  const int gens = argc > 3 ? std::atoi(argv[3]) : 50;
  const int max_threads = argc > 4 ? std::atoi(argv[4]) : 4;

  // --- visual demo: a glider crossing a small torus ---
  pdc::life::Grid demo(8, 8);
  pdc::life::stamp(demo, pdc::life::glider(), 0, 0);
  std::cout << "glider, generation 0:\n" << demo.to_string() << "\n";
  pdc::life::run_plan(demo, 4, {});
  std::cout << "after 4 generations (moved one cell diagonally):\n"
            << demo.to_string() << "\n";

  // --- plan equivalence on the study board ---
  const auto start = pdc::life::random_grid(rows, cols, 0.3, 42);
  pdc::life::Grid seq = start, thr = start, msg = start;
  pdc::life::run_plan(seq, gens, {});
  pdc::life::run_plan(thr, gens, {.threads_per_rank = max_threads});
  std::uint64_t messages = 0, words = 0;
  pdc::life::run_message_passing(msg, gens, std::min(max_threads, 4), {},
                                 &messages, &words);
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
