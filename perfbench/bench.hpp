#pragma once
// Shared pieces of the end-to-end benchmark: arguments, the benchmark's
// own input generator, sample statistics, the result report, and the
// span analysis that turns a trace into per-layer numbers.
//
// Host-noise findings that shaped every choice below (4 vCPUs, the
// default RelWithDebInfo build):
//  - Host speed moves in phases of a fraction of a second to ~10 s.
//    Ten consecutive 3-second runs of one 1024^2 Life {1,1} solve gave
//    per-run medians from 0.040 to 0.075 s.
//  - The slow phases hit code heavy in loads and stores: a dependent-ALU
//    loop stays within +-4% through them, a 512 KiB streaming loop slows
//    with Life. Thread CPU time equals wall time, so it is contention on
//    a shared core or cache, not preemption; CPU-time clocks would not
//    avoid it.
//  - Back-to-back identical runs spread: heat solves about +-10%,
//    closed-loop DHT throughput 16-38%, the retransmit-timer-bound lossy
//    DHT run 2-3%.
//  - Serial Life solve times are bimodal (fast ~1.0x, slow ~1.6x) with
//    the slow mode near half of all samples, so a median over raw
//    samples flips between the modes (IQR/median 0.23 over 20 s windows)
//    while a mean stays within 0.06.
//  - Besides the short phases there are episodes of minutes in which
//    everything, even the timer-bound lossy DHT run, slows by 1.4-2.6x;
//    4-thread barrier-synchronised solves suffer most (Life {1,4} 2-6x,
//    its {1,1} 1.1-1.4x). /proc/stat showed hypervisor steal of 3-13% of
//    CPU time while a run kept 4 threads busy: one stalled vCPU stalls
//    every thread at the next barrier. So the stencil plans keep two
//    threads busy and leave two vCPUs of slack. No estimator inside one
//    run can hide an episode that covers the whole run.
//  - Measured over two sets of 10 seeded 25 s runs each: a per-run mean
//    or median spread (IQR/median) up to 0.6 on the multi-threaded
//    solves and 0.8 on DHT throughput, while the 10th percentile of the
//    same samples spread 0.13-0.15 on Life and the Zipf DHT blocks.
//  - The slow state comes and goes within seconds, and its share drifts
//    over minutes. A fixed single-threaded SWAR Life loop over ~300 KiB,
//    timed in pieces of 40 generations, reads either ~4 ms or ~7.5 ms
//    with little in between, alone on the VM as well as between solves;
//    the median of 10 s of pieces moved between 3.9 and 7.4 ms within 4
//    minutes. Life {1,1} solves slow with it (0.047 s fast, 0.09 s slow),
//    heat {1,1} less (~1.6x). No per-run statistic of raw times holds
//    still through that: two sets of 10 runs of 35 s read life-dense at
//    the 25th percentile of 8 window medians with spreads of 0.25-0.38,
//    and five runs read the fastest Life {1,2} solve of each run anywhere
//    from 0.033 to 0.064 s.
// Hence: every run lasts many phases; a stencil solve is timed between
// two timings of that SWAR loop, the benchmark's yardstick, and reported
// at the yardstick's nominal speed (stencil_workloads.cpp); a DHT metric
// is read at its least-disturbed segment; both plans of a stencil
// workload are interleaved solve by solve; and a load/store probe is timed
// at the start and end of each run and printed next to the numbers it
// affected.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pdc/obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline constexpr std::uint64_t kDefaultSeed = 20130520;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< tiny sizes, for the self-test
  bool setup_only = false;  ///< one cold set-up, then exit
  std::vector<double> setup_samples;  ///< cold set-ups from fresh processes
  std::string trace_file;  ///< Chrome trace of the last traced unit
};

/// splitmix64 — the benchmark's own generator, so a change to the
/// library's generators cannot change a workload.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

[[nodiscard]] inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a * 0x2545f4914f6cdd1dULL ^ b).next();
}

[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< diagnostics printed before the JSON
  std::uint64_t failed_checks = 0;
  /// The per-layer metrics of the layers a traced run exercised. Each must
  /// be reported, and the smoke self-test requires each to be > 0, so a
  /// renamed span or counter cannot silently read 0.
  std::vector<std::string> applicable;

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// A failed check marks the run incorrect (non-zero exit).
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  /// A diagnostic line with the distribution of one sample set.
  void distribution(const std::string& what, const std::vector<double>& v);
};

/// Per-name span totals over a trace: count, summed duration, and self
/// time (duration minus the part covered by child spans on its thread).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Step-level view of an engine run: `step_span` is the engine's per-step
/// span name (one per team thread per step), `tile_span` the benchmark's
/// span around each step_tile call.
struct StepStats {
  std::uint64_t steps = 0;
  std::uint64_t gaps = 0;      ///< step boundaries inside one unit
  double serial_ns = 0;        ///< sum of gaps between consecutive steps
  double compute_ns = 0;       ///< sum of per-step phase wall times
  double barrier_wait_ns = 0;  ///< sum over steps of mean thread wait
  double imbalance_sum = 0;    ///< sum over steps of max/mean tile busy
};

struct TraceDigest {
  std::map<std::string, SpanTotals> spans;
  StepStats steps;
  std::uint64_t dropped = 0;
};

[[nodiscard]] TraceDigest digest_trace(
    const std::vector<pdc::obs::ThreadTrace>& threads, const char* step_span,
    const char* tile_span);

/// Accumulates digests over many traced units.
void accumulate(TraceDigest& into, const TraceDigest& d);

/// One diagnostic line per span name: count, total and self time.
void note_spans(Report& r, const TraceDigest& d);

/// Summed duration of the `name` spans that lie inside an `inside` span
/// and outside every `outside` span of the same thread.
[[nodiscard]] double nested_ns(
    const std::vector<pdc::obs::ThreadTrace>& threads, const char* name,
    const char* inside, const char* outside);

// Workload entry points. set-up returns the seconds of program work
// before the first timed unit.
double setup_life_dense(const Args& a);
double setup_heat_converge(const Args& a);
double setup_dht(const Args& a, bool lossy);
void run_life_dense(const Args& a, Report& r);
void run_heat_converge(const Args& a, Report& r);
void run_dht(const Args& a, Report& r, bool lossy);

/// Reports 0 for every name the run did not report: the metrics of
/// layers the workload does not run. A name in r.applicable that is
/// missing is a bug in the benchmark and throws.
void fill_absent(Report& r, const std::vector<std::pair<const char*,
                                                        const char*>>& names);

/// Every per-layer metric with its unit, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& per_layer_names();

}  // namespace perfbench
