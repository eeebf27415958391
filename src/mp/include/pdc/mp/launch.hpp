#pragma once
// Multi-process SPMD launcher: fork/exec this very binary once per rank
// and run a registered body in each child over a process transport.
//
// Usage: a test or bench registers its SPMD bodies at static-init time
//
//   PDC_SPMD_BODY(ring_digest) {       // (RankContext& ctx, BodyCtx& io)
//     auto sum = ctx.allreduce(ctx.rank(), ReduceOp::kSum);
//     io.out = std::to_string(sum);    // this rank's digest
//   }
//
// and its main() calls launch::maybe_run_child(argc, argv) FIRST: in the
// parent it is a no-op returning false; in a re-exec'd child it joins the
// world named by the --pdc-* flags, runs the body, writes io.out to the
// per-rank out file, and exits (0 ok, 42 RankFailedError, 43 any other
// exception) without ever reaching the caller's own logic.
//
// The parent side, run_spmd(), forks the children (via /proc/self/exe),
// reaps them PROMPTLY (the shm transport's pid-probe liveness relies on
// killed children not lingering as zombies), enforces a wall-clock
// timeout with SIGKILL, and aggregates exit codes, per-rank digests, and
// error text into a LaunchResult that mirrors what a single in-process
// Communicator::run would have produced.

#include <chrono>
#include <string>
#include <vector>

#include "pdc/mp/comm.hpp"
#include "pdc/mp/fault.hpp"
#include "pdc/mp/transport.hpp"

namespace pdc::mp::launch {

/// Per-rank I/O handed to a registered body alongside its RankContext.
struct BodyCtx {
  std::vector<std::string> args;  ///< forwarded --pdc-arg values, in order
  std::string out;                ///< written to the rank's out file on exit
};

using SpmdBodyFn = void (*)(mp::RankContext&, BodyCtx&);

/// Register a body under `name` (normally via PDC_SPMD_BODY). Returns
/// true so it can initialize a static. Duplicate names throw.
bool register_body(const std::string& name, SpmdBodyFn fn);

/// If argv carries --pdc-spmd-body=NAME, run that body as rank
/// --pdc-rank of a --pdc-world world over --pdc-transport and exit the
/// process. Otherwise return false. Call first thing in main().
bool maybe_run_child(int argc, char** argv);

struct LaunchOptions {
  std::string body;  ///< a PDC_SPMD_BODY-registered name
  int world = 2;
  TransportKind kind = TransportKind::kShm;
  FaultPlan plan;                 ///< forwarded to every rank
  bool reliable = false;          ///< body runs with set_reliable(true)
  std::vector<std::string> args;  ///< forwarded to the body verbatim
  std::chrono::milliseconds timeout{30000};
};

struct RankResult {
  int exit_code = -1;   ///< exit status; meaningless if signaled
  bool signaled = false;
  int term_signal = 0;
  std::string out;      ///< the body's digest (out-file contents)
  std::string error;    ///< exception text, when the rank failed
};

struct LaunchResult {
  enum Outcome {
    kOk,          ///< every rank exited 0
    kRankFailed,  ///< >=1 rank threw RankFailedError or died by SIGKILL
    kError,       ///< >=1 rank threw something else / crashed / misbehaved
    kTimeout,     ///< wall-clock budget blown; stragglers were SIGKILLed
  };
  Outcome outcome = kError;
  std::vector<RankResult> ranks;
  /// First rank that died by SIGKILL (the fault plan's victim), or -1.
  int killed_rank = -1;
  /// Representative error text, empty when kOk: the first root cause's
  /// (a rank that exited 43), else the first RankFailedError's (exit 42),
  /// else the first other failing rank's — the error one in-process
  /// run() would throw.
  std::string error;
  /// Whole-world traffic: the sum of every rank process's ledger, read
  /// after its Communicator finished (fully quiescent, so the receiver-
  /// side counters are complete — the cross-backend-comparable view).
  /// Best-effort when ranks died: a SIGKILLed rank contributes nothing.
  TrafficStats traffic;

  [[nodiscard]] bool ok() const { return outcome == kOk; }
};

/// Fork/exec one child per rank, wait for all of them (reaping promptly),
/// and aggregate. Endpoint names and out files are generated under a
/// fresh private temp directory, removed before returning.
LaunchResult run_spmd(const LaunchOptions& opt);

/// Round-trippable FaultPlan text (hexfloat probabilities, so replay is
/// exact). Used for --pdc-plan and by the fuzz harness's repro lines.
[[nodiscard]] std::string plan_to_flags(const FaultPlan& plan);
[[nodiscard]] FaultPlan plan_from_flags(const std::string& s);

}  // namespace pdc::mp::launch

/// Define + register an SPMD body callable by name from run_spmd. The
/// block that follows is the body: (RankContext& ctx, BodyCtx& io).
#define PDC_SPMD_BODY(name)                                                  \
  static void pdc_spmd_body_##name(::pdc::mp::RankContext& ctx,              \
                                   ::pdc::mp::launch::BodyCtx& io);          \
  [[maybe_unused]] static const bool pdc_spmd_reg_##name =                   \
      ::pdc::mp::launch::register_body(#name, &pdc_spmd_body_##name);        \
  static void pdc_spmd_body_##name(::pdc::mp::RankContext& ctx,              \
                                   ::pdc::mp::launch::BodyCtx& io)
