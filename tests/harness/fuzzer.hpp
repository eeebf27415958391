#pragma once
// pdc::testing — deterministic schedule/fault fuzzer for SPMD bodies.
//
// The harness runs a body hundreds of times, each under a FaultPlan
// derived from a seed, on the reliable channel. Every iteration must
// either reproduce the fault-free baseline bit-for-bit or (when the plan
// kills a rank) fail with a clean RankFailedError. Anything else — a
// wrong answer, an unexpected exception, a hang — is a bug; the harness
// prints a
//   [pdc-fuzz] REPRO seed=<seed> plan=FaultPlan{...}
// line (also appended to $PDC_FUZZ_ARTIFACT if set) that replays the
// failure deterministically, then shrinks the plan to a minimal failing
// one and prints that as a second line. A watchdog aborts a stuck
// in-process iteration after `hang_timeout`, printing the repro line
// first, and a process-transport world is SIGKILLed and judged after
// kProcessWorldTimeout, so an injected deadlock fails fast instead of
// hanging the suite.
//
// This is permanent correctness tooling: any future mp/sync/core change
// can wrap its protocol in a body and inherit the whole adversarial
// schedule sweep.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pdc/mp/comm.hpp"
#include "pdc/mp/fault.hpp"
#include "pdc/mp/launch.hpp"
#include "pdc/mp/transport.hpp"

namespace pdc::testing {

/// The SPMD code under test. Runs on the reliable channel; returns a
/// per-rank digest (any deterministic fingerprint of the rank's results)
/// that the harness compares against the fault-free baseline.
using SpmdBody =
    std::function<std::vector<std::int64_t>(pdc::mp::RankContext&)>;

/// Iteration budget: $PDC_STRESS_ITERS overrides `fallback` (the CI
/// stress job time-boxes the sweep with it).
[[nodiscard]] int stress_iters(int fallback);

/// Derive a fault plan from a seed: drop in {0..0.3}, dup in {0..0.1},
/// reorder/jitter coin flips, and (when allowed) a rank-kill. Pure
/// function of (seed, ranks, allow_kill).
[[nodiscard]] pdc::mp::FaultPlan plan_from_seed(std::uint64_t seed, int ranks,
                                                bool allow_kill);

enum class Outcome {
  kOk,          ///< run completed; per_rank holds every rank's digest
  kRankFailed,  ///< run threw RankFailedError (legitimate under a kill)
  kError,       ///< run threw anything else
};

struct RunResult {
  Outcome outcome = Outcome::kOk;
  std::vector<std::vector<std::int64_t>> per_rank;
  std::string error;  ///< what() when outcome != kOk
  pdc::mp::TrafficStats traffic;
  /// Process-transport runs carry their digests as the bodies' out
  /// strings (per_rank stays empty there).
  std::vector<std::string> per_rank_out;
};

/// Execute one (ranks, plan, body) run on the reliable channel.
/// Deterministic in its observable outcome for a fixed (seed, plan).
[[nodiscard]] RunResult run_plan(int ranks, const pdc::mp::FaultPlan& plan,
                                 const SpmdBody& body);

/// Wall-clock budget of one process-transport world, after which
/// run_spmd SIGKILLs it and the run is judged a hang. It must sit well
/// below the transport tests' 30 s ctest TIMEOUT, so that a hung sweep is
/// judged, and prints its REPRO line, before ctest kills the test. The
/// slowest passing world of `ctest -L transport` under TSan with
/// PDC_STRESS_ITERS=3, four tests at a time on a 4-vCPU host, took 2.1 s
/// (221 worlds over three runs; median 54 ms).
inline constexpr std::chrono::seconds kProcessWorldTimeout{8};

/// Same, but over a launch transport with a PDC_SPMD_BODY-registered body
/// (a lambda cannot cross an exec boundary): each rank is its own forked
/// process on shm/tcp, and a fault-plan rank kill is a REAL SIGKILL. The
/// caller's main() must route through launch::maybe_run_child. `args`
/// are forwarded to the body (io.args) — how hybrid dimensions like
/// "threads=N" reach process bodies.
[[nodiscard]] RunResult run_plan_process(
    int ranks, pdc::mp::TransportKind kind, const pdc::mp::FaultPlan& plan,
    const std::string& body_name,
    std::chrono::seconds timeout = kProcessWorldTimeout,
    const std::vector<std::string>& args = {});

/// What, if anything, is wrong with one process-transport run of `plan`:
/// empty when it reproduced the in-process fault-free `baseline`'s
/// digests, or failed cleanly under a plan that kills a rank. A hang
/// (launch timeout) is a failure like any other.
[[nodiscard]] std::string judge_process(const RunResult& r,
                                        const pdc::mp::FaultPlan& plan,
                                        const RunResult& baseline);

struct FuzzOptions {
  int ranks = 4;
  int iterations = 100;
  std::uint64_t base_seed = 0xC0FFEE0DULL;
  bool allow_kill = true;
  bool shrink = true;
  /// Watchdog of fuzz_spmd: abort the process (after printing the repro
  /// line) if one in-process iteration runs longer than this — a hang IS
  /// the bug being hunted. fuzz_spmd_process budgets each world with
  /// kProcessWorldTimeout instead.
  std::chrono::seconds hang_timeout{30};
  /// Transport for fuzz_spmd_process: where each seeded run executes.
  /// The fault-free baseline it is judged against always runs in-process.
  pdc::mp::TransportKind transport = pdc::mp::TransportKind::kInproc;
  /// Hybrid dimension: threads advancing each rank's work, recorded in
  /// repro lines so a FaultPlan replays under the same ExecPlan shape.
  /// fuzz_spmd_process forwards it to the body as a "threads=N" arg;
  /// in-process bodies capture their plan directly and set this to match.
  int threads_per_rank = 1;
};

struct FuzzReport {
  bool ok = true;
  int iterations_run = 0;
  std::uint64_t seed = 0;        ///< failing seed (when !ok)
  pdc::mp::FaultPlan plan;       ///< shrunk failing plan (when !ok)
  std::string failure;           ///< what went wrong
  std::string transport = "inproc";  ///< where the failing run executed
  int threads = 1;  ///< threads per rank the failing body ran with
  [[nodiscard]] std::string repro() const;
};

/// The fuzzer: baseline run, then `iterations` seeded fault plans.
/// Returns on the first failure (shrunk), or ok after the full sweep.
[[nodiscard]] FuzzReport fuzz_spmd(const FuzzOptions& opt,
                                   const SpmdBody& body);

/// The fuzzer over a process transport (opt.transport): every seeded
/// plan runs the registered body via fork/exec — rank kills are real
/// SIGKILLs — and survivors are judged against the in-process fault-free
/// baseline. Repro lines carry the transport= dimension.
[[nodiscard]] FuzzReport fuzz_spmd_process(const FuzzOptions& opt,
                                           const std::string& body_name);

/// Print (and persist to $PDC_FUZZ_ARTIFACT) a repro line.
void report_failure(std::uint64_t seed, const pdc::mp::FaultPlan& plan,
                    const std::string& what,
                    const std::string& transport = "inproc",
                    int threads = 1);

}  // namespace pdc::testing
