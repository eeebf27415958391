// perfbench — the end-to-end benchmark of the pdc library. One process
// runs one workload for --seconds, checks its outputs, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1) as the last line of stdout, one JSON object. run.py builds
// this binary and is the command to call; see BENCHMARK.json.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--setup-only] [--setup-samples a,b,...]
//             [--trace-file PATH] [--source-id ID]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

volatile std::uint64_t g_probe_sink = 0;

// The gated end-to-end metrics (BENCHMARK.json): the ones the gated
// stencil workloads define. The DHT workloads, which run by name but are
// not gated, print ops_per_s, op_p50_us and op_p99_us in the diagnostic
// table, and their result line restates their block time as solve_s and
// serial_s.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"serial_s", "s"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload {life-dense|heat-converge|"
               "dht-zipf-read|dht-lossy-write} [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--setup-only] "
               "[--setup-samples a,b,...] [--trace-file PATH] "
               "[--source-id ID]\n";
  std::exit(2);
}

Args parse(int argc, char** argv, std::string& source_id) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val());
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = std::stoi(val()) != 0;
      else if (k == "--smoke") a.smoke = true;
      else if (k == "--setup-only") a.setup_only = true;
      else if (k == "--trace-file") a.trace_file = val();
      else if (k == "--source-id") source_id = val();
      else if (k == "--setup-samples") {
        std::stringstream ss(val());
        for (std::string s; std::getline(ss, s, ',');)
          if (!s.empty()) a.setup_samples.push_back(std::stod(s));
      } else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds >= 0.0)) usage("--seconds must be >= 0");
  return a;
}

/// A benchmark-owned load/store sweep over 512 KiB, timed at the start
/// and end of each run: the slow host phases slow it together with the
/// workloads, so it shows which numbers a slow phase touched. It is a
/// diagnostic, not a metric.
double probe_ns_per_word() {
  constexpr std::size_t kWords = 512 * 1024 / 8;
  std::vector<std::uint64_t> buf(kWords, 1);
  std::vector<double> reps;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::uint64_t pass = 0; pass < 40; ++pass)
      for (std::size_t i = 0; i < kWords; ++i)
        buf[i] = buf[i] * 3 + buf[i ^ 1] + pass;
    reps.push_back(seconds_since(t0) * 1e9 / (40.0 * kWords));
    sink += buf[rep];
  }
  g_probe_sink = sink;
  return median(reps);
}

std::string fingerprint(const std::string& source_id) {
  std::ostringstream s;
  s << "nproc=" << std::thread::hardware_concurrency() << " compiler=\""
#if defined(__clang__)
    << "clang " << __clang_version__
#elif defined(__GNUC__)
    << "GCC " << __VERSION__
#else
    << "unknown"
#endif
    << "\" build=" << PERFBENCH_BUILD_TYPE << " flags=\""
    << PERFBENCH_CXX_FLAGS << "\" source=" << source_id;
  return s.str();
}

void print_json(const Report& r) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    o << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << m.value
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source_id = "unknown";
  const Args a = parse(argc, argv, source_id);
  const bool lossy = a.workload == "dht-lossy-write";
  const bool dht = lossy || a.workload == "dht-zipf-read";
  if (!dht && a.workload != "life-dense" && a.workload != "heat-converge")
    usage("unknown workload " + a.workload);

  try {
    if (a.setup_only) {
      const double s = a.workload == "life-dense"      ? setup_life_dense(a)
                       : a.workload == "heat-converge" ? setup_heat_converge(a)
                                                       : setup_dht(a, lossy);
      std::printf("setup_s %.9f\n", s);
      return 0;
    }

    std::cout << "# host: " << fingerprint(source_id) << "\n"
              << "# workload " << a.workload << " seed " << a.seed
              << " seconds " << a.seconds << " trace " << a.trace
              << (a.smoke ? " smoke" : "") << std::endl;
    const double probe0 = probe_ns_per_word();
    Report r;
    if (a.workload == "life-dense") run_life_dense(a, r);
    else if (a.workload == "heat-converge") run_heat_converge(a, r);
    else run_dht(a, r, lossy);
    const double probe1 = probe_ns_per_word();

    if (a.trace) {
      fill_absent(r, per_layer_names());
      // Smoke sizes still run every layer a workload exercises, so each of
      // its metrics must read above 0 there.
      if (a.smoke)
        for (const auto& m : r.metrics)
          if (std::find(r.applicable.begin(), r.applicable.end(), m.name) !=
              r.applicable.end())
            r.check(m.value > 0, m.name + " reads 0 although " + a.workload +
                                     " runs its layer");
    }
    for (const auto& n : r.notes) std::cout << "# " << n << "\n";
    std::printf("# load/store probe (diagnostic): %.4f ns/word at start, "
                "%.4f ns/word at end\n",
                probe0, probe1);
    std::printf("# %-34s %16s %-9s %s\n", "metric", "value", "unit",
                "samples");
    for (const auto& m : r.metrics)
      std::printf("# %-34s %16.6g %-9s %zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    if (r.failed_checks > 10)
      std::printf("# ... %llu failed checks in all\n",
                  static_cast<unsigned long long>(r.failed_checks));
    std::printf("# attempted %llu failed %llu correct %s\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct ? "true" : "false");
    std::fflush(stdout);
    // Every name of the run's metric set, in BENCHMARK.json order.
    const auto& names = a.trace ? per_layer_names() : kEndToEnd;
    Report ordered = r;
    ordered.metrics.clear();
    for (const auto& [name, unit] : names)
      for (const auto& m : r.metrics)
        if (m.name == name) ordered.metrics.push_back(m);
    if (ordered.metrics.size() != names.size())
      throw std::logic_error("a workload did not report every metric");
    print_json(ordered);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
