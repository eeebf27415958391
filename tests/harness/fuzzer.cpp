#include "fuzzer.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

namespace pdc::testing {

namespace mp = pdc::mp;

int stress_iters(int fallback) {
  if (const char* s = std::getenv("PDC_STRESS_ITERS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

mp::FaultPlan plan_from_seed(std::uint64_t seed, int ranks, bool allow_kill) {
  auto h = [seed](std::uint64_t salt) {
    return mp::detail::fault_hash(seed, salt, 0x66757a7a /* "fuzz" */, 0, 0);
  };
  static constexpr double kDropChoices[] = {0.0, 0.01, 0.05, 0.1, 0.3};
  static constexpr double kDupChoices[] = {0.0, 0.01, 0.05, 0.1};
  mp::FaultPlan p;
  p.seed = seed;
  p.drop = kDropChoices[h(1) % 5];
  p.dup = kDupChoices[h(2) % 4];
  p.reorder = (h(3) & 1) != 0;
  p.max_delay = 1 + static_cast<int>(h(4) % 4);
  p.jitter = (h(5) & 1) != 0;
  if (allow_kill && h(6) % 4 == 0) {
    p.kill_rank = static_cast<int>(h(7) % static_cast<std::uint64_t>(ranks));
    p.kill_after_ops = static_cast<int>(h(8) % 24);
  }
  return p;
}

RunResult run_plan(int ranks, const mp::FaultPlan& plan, const SpmdBody& body) {
  RunResult out;
  out.per_rank.assign(static_cast<std::size_t>(ranks), {});
  mp::Communicator comm(ranks, plan);
  try {
    comm.run([&](mp::RankContext& ctx) {
      ctx.set_reliable(true);
      out.per_rank[static_cast<std::size_t>(ctx.rank())] = body(ctx);
    });
  } catch (const mp::RankFailedError& e) {
    out.outcome = Outcome::kRankFailed;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.outcome = Outcome::kError;
    out.error = e.what();
  } catch (...) {
    out.outcome = Outcome::kError;
    out.error = "non-standard exception";
  }
  out.traffic = comm.traffic();
  return out;
}

RunResult run_plan_process(int ranks, mp::TransportKind kind,
                           const mp::FaultPlan& plan,
                           const std::string& body_name,
                           std::chrono::seconds timeout,
                           const std::vector<std::string>& args) {
  mp::launch::LaunchOptions o;
  o.body = body_name;
  o.world = ranks;
  o.kind = kind;
  o.plan = plan;
  o.args = args;
  o.reliable = true;  // the fuzz contract: bodies run reliably
  o.timeout = std::chrono::duration_cast<std::chrono::milliseconds>(timeout);
  const auto lr = mp::launch::run_spmd(o);
  RunResult out;
  switch (lr.outcome) {
    case mp::launch::LaunchResult::kOk:
      out.outcome = Outcome::kOk;
      break;
    case mp::launch::LaunchResult::kRankFailed:
      out.outcome = Outcome::kRankFailed;
      break;
    case mp::launch::LaunchResult::kTimeout:
      out.outcome = Outcome::kError;
      out.error = "HANG: run exceeded the launch timeout";
      break;
    default:
      out.outcome = Outcome::kError;
      break;
  }
  if (out.error.empty()) out.error = lr.error;
  for (const auto& r : lr.ranks) out.per_rank_out.push_back(r.out);
  out.traffic = lr.traffic;
  return out;
}

std::string judge_process(const RunResult& r, const mp::FaultPlan& plan,
                          const RunResult& baseline) {
  if (r.outcome == Outcome::kError)
    return "unexpected failure: " + r.error;
  if (r.outcome == Outcome::kRankFailed) {
    if (plan.kills()) return {};  // a real SIGKILL is a legal outcome
    return "RankFailedError without a kill in the plan: " + r.error;
  }
  if (r.per_rank_out != baseline.per_rank_out)
    return "result mismatch vs in-process fault-free baseline";
  return {};
}

std::string FuzzReport::repro() const {
  return "transport=" + transport + " threads=" + std::to_string(threads) +
         " seed=" + std::to_string(seed) + " plan=" + plan.describe();
}

void report_failure(std::uint64_t seed, const mp::FaultPlan& plan,
                    const std::string& what, const std::string& transport,
                    int threads) {
  const std::string line =
      "[pdc-fuzz] REPRO transport=" + transport +
      " threads=" + std::to_string(threads) +
      " seed=" + std::to_string(seed) + " plan=" + plan.describe() +
      " failure: " + what;
  std::fprintf(stderr, "%s\n", line.c_str());
  std::fflush(stderr);
  if (const char* path = std::getenv("PDC_FUZZ_ARTIFACT")) {
    std::ofstream f(path, std::ios::app);
    f << line << "\n";
  }
}

namespace {

/// What (if anything) is wrong with one iteration's outcome.
std::string judge(const RunResult& r, const mp::FaultPlan& plan,
                  const RunResult& baseline) {
  if (r.outcome == Outcome::kError)
    return "unexpected exception: " + r.error;
  if (r.outcome == Outcome::kRankFailed) {
    if (plan.kills()) return {};  // clean failure is a legal outcome
    return "RankFailedError without a kill in the plan: " + r.error;
  }
  if (r.per_rank != baseline.per_rank)
    return "result mismatch vs fault-free baseline";
  return {};
}

/// Greedy shrink: disable fault dimensions one at a time, keeping each
/// simplification that `still_fails`.
template <class StillFails>
mp::FaultPlan shrink_plan(mp::FaultPlan plan, const StillFails& still_fails) {
  auto try_keep = [&](auto mutate) {
    mp::FaultPlan candidate = plan;
    mutate(candidate);
    if (still_fails(candidate)) plan = candidate;
  };
  try_keep([](mp::FaultPlan& c) { c.kill_rank = -1; c.kill_after_ops = 0; });
  try_keep([](mp::FaultPlan& c) { c.reorder = false; });
  try_keep([](mp::FaultPlan& c) { c.jitter = false; });
  try_keep([](mp::FaultPlan& c) { c.dup = 0.0; });
  try_keep([](mp::FaultPlan& c) { c.drop = 0.0; });
  try_keep([](mp::FaultPlan& c) { c.max_delay = 1; });
  return plan;
}

/// Records a failing iteration in `report` and prints its REPRO line at
/// once, before any shrink replay: a replay can hang for a whole budget
/// of its own, and the line must land before the test's timeout. With
/// `shrink`, the smallest plan that still fails follows as a second line.
template <class StillFails>
void record_failure(FuzzReport& report, bool shrink, std::uint64_t seed,
                    const mp::FaultPlan& plan, const std::string& verdict,
                    const StillFails& still_fails) {
  report.ok = false;
  report.seed = seed;
  report.failure = verdict;
  report.plan = plan;
  report_failure(seed, plan, verdict, report.transport, report.threads);
  if (!shrink) return;
  report.plan = shrink_plan(plan, still_fails);
  if (report.plan.describe() != plan.describe())
    report_failure(seed, report.plan, "(shrunk) " + verdict, report.transport,
                   report.threads);
}

/// Aborts the process if an iteration outlives its budget; prints the
/// repro line first so CI still gets the (seed, plan) pair.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds budget, std::uint64_t seed,
           const mp::FaultPlan& plan)
      : thread_([this, budget, seed, plan] {
          std::unique_lock lk(m_);
          if (!cv_.wait_for(lk, budget, [&] { return done_; })) {
            report_failure(seed, plan,
                           "HANG: iteration exceeded watchdog budget");
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lk(m_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

FuzzReport fuzz_spmd(const FuzzOptions& opt, const SpmdBody& body) {
  FuzzReport report;
  report.threads = opt.threads_per_rank;
  const RunResult baseline = run_plan(opt.ranks, mp::FaultPlan{}, body);
  if (baseline.outcome != Outcome::kOk) {
    report.ok = false;
    report.failure = "fault-free baseline failed: " + baseline.error;
    report_failure(0, mp::FaultPlan{}, report.failure, report.transport,
                   report.threads);
    return report;
  }
  for (int i = 0; i < opt.iterations; ++i) {
    const std::uint64_t seed =
        mp::detail::mix64(opt.base_seed + static_cast<std::uint64_t>(i));
    const mp::FaultPlan plan = plan_from_seed(seed, opt.ranks, opt.allow_kill);
    std::string verdict;
    {
      Watchdog dog(opt.hang_timeout, seed, plan);
      verdict = judge(run_plan(opt.ranks, plan, body), plan, baseline);
    }
    ++report.iterations_run;
    if (!verdict.empty()) {
      record_failure(report, opt.shrink, seed, plan, verdict,
                     [&](const mp::FaultPlan& candidate) {
                       return !judge(run_plan(opt.ranks, candidate, body),
                                     candidate, baseline)
                                   .empty();
                     });
      return report;
    }
  }
  return report;
}

FuzzReport fuzz_spmd_process(const FuzzOptions& opt,
                             const std::string& body_name) {
  FuzzReport report;
  report.transport = mp::to_string(opt.transport);
  report.threads = opt.threads_per_rank;
  // The hybrid dimension crosses the exec boundary as a body arg.
  std::vector<std::string> args;
  if (opt.threads_per_rank > 1)
    args.push_back("threads=" + std::to_string(opt.threads_per_rank));
  // The reference answers come from the in-process backend, fault-free:
  // the process transports must recover exactly what threads produce.
  const RunResult baseline =
      run_plan_process(opt.ranks, mp::TransportKind::kInproc, mp::FaultPlan{},
                       body_name, kProcessWorldTimeout, args);
  if (baseline.outcome != Outcome::kOk) {
    report.ok = false;
    report.failure = "fault-free baseline failed: " + baseline.error;
    report_failure(0, mp::FaultPlan{}, report.failure, report.transport,
                   report.threads);
    return report;
  }
  auto judge_one = [&](const mp::FaultPlan& plan) {
    return judge_process(
        run_plan_process(opt.ranks, opt.transport, plan, body_name,
                         kProcessWorldTimeout, args),
        plan, baseline);
  };
  for (int i = 0; i < opt.iterations; ++i) {
    const std::uint64_t seed =
        mp::detail::mix64(opt.base_seed + static_cast<std::uint64_t>(i));
    const mp::FaultPlan plan = plan_from_seed(seed, opt.ranks, opt.allow_kill);
    // No thread watchdog here: run_spmd's own timeout SIGKILLs a hung
    // world and surfaces it as a judged failure.
    const std::string verdict = judge_one(plan);
    ++report.iterations_run;
    if (!verdict.empty()) {
      // Same greedy shrink as in-process, replayed over the transport.
      record_failure(report, opt.shrink, seed, plan, verdict,
                     [&](const mp::FaultPlan& candidate) {
                       return !judge_one(candidate).empty();
                     });
      return report;
    }
  }
  return report;
}

}  // namespace pdc::testing
