#pragma once
// Shared entry/exit plumbing for every bench binary: one flag parser and
// one exit path, so `--smoke` (printed studies at reduced size, no
// google-benchmark loops — the CI Release job's quick exercise) and
// `--trace=<path>` / `PDC_TRACE=<path>` (Chrome trace_event JSON via
// pdc::obs, plus the top-span ASCII summary) behave identically across
// all fourteen binaries.
//
// Usage:
//   int main(int argc, char** argv) {
//     auto opt = pdc::benchutil::parse_args(argc, argv);
//     print_my_study(opt.smoke);
//     return pdc::benchutil::finish(opt, argc, argv);
//   }

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "pdc/obs/obs.hpp"
#include "pdc/perf/table.hpp"

namespace pdc::benchutil {

struct Options {
  bool smoke = false;      ///< reduced printed studies, skip gbench loops
  std::string trace_path;  ///< non-empty: write Chrome trace JSON here
  std::string json_path;   ///< non-empty: write collected tables here

  /// Tables registered via add_json_table, serialized by finish().
  std::vector<std::string> json_tables;

  /// Record a study table for machine-readable emission. A no-op unless
  /// `--json=<path>` was given, so studies can call it unconditionally.
  void add_json_table(const std::string& title, const perf::Table& t) {
    if (!json_path.empty()) json_tables.push_back(t.json(title));
  }
};

/// Strip `--smoke`, `--trace=<path>`, and `--json=<path>` out of argv
/// (google-benchmark rejects flags it does not know). `PDC_TRACE=<path>`
/// in the environment is the no-argv spelling of `--trace`. Requesting a
/// trace enables tracing for the whole process, from here on.
inline Options parse_args(int& argc, char** argv) {
  Options opt;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      opt.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      opt.json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (opt.trace_path.empty()) {
    if (const char* env = std::getenv("PDC_TRACE"); env != nullptr && *env)
      opt.trace_path = env;
  }
  if (!opt.trace_path.empty()) {
    // main's spans go to a "main" track for the rest of the process.
    static const obs::ThreadLabel main_label("main");
    obs::set_tracing_enabled(true);
  }
  return opt;
}

/// Run the google-benchmark loops (skipped under --smoke), then export
/// the collected JSON tables and/or the trace when requested.
inline int finish(const Options& opt, int& argc, char** argv) {
  if (!opt.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << '\n';
      return 1;
    }
    std::string bench = argc > 0 ? argv[0] : "bench";
    if (const auto pos = bench.find_last_of('/'); pos != std::string::npos)
      bench = bench.substr(pos + 1);
    out << "{\"bench\": \"" << bench << "\", \"tables\": [";
    for (std::size_t i = 0; i < opt.json_tables.size(); ++i)
      out << (i == 0 ? "\n" : ",\n") << opt.json_tables[i];
    out << "\n]}\n";
    std::cout << "\n== json: " << opt.json_tables.size() << " tables -> "
              << opt.json_path << " ==\n";
  }
  if (!opt.trace_path.empty()) {
    obs::set_tracing_enabled(false);
    obs::write_chrome_trace(opt.trace_path);
    std::cout << "\n== trace: " << obs::trace_span_count() << " spans -> "
              << opt.trace_path << " ==\n"
              << obs::trace_summary();
  }
  return 0;
}

}  // namespace pdc::benchutil
