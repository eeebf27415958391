#include "pdc/mp/launch.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace pdc::mp::launch {

namespace {

std::map<std::string, SpmdBodyFn>& registry() {
  static std::map<std::string, SpmdBodyFn> r;
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);  // hexfloat: exact round trip
  return buf;
}

}  // namespace

bool register_body(const std::string& name, SpmdBodyFn fn) {
  auto [it, inserted] = registry().emplace(name, fn);
  if (!inserted) throw std::logic_error("duplicate SPMD body: " + name);
  return true;
}

std::string plan_to_flags(const FaultPlan& plan) {
  std::ostringstream ss;
  ss << "drop=" << fmt_double(plan.drop) << ",dup=" << fmt_double(plan.dup)
     << ",reorder=" << (plan.reorder ? 1 : 0)
     << ",delay_prob=" << fmt_double(plan.delay_prob)
     << ",max_delay=" << plan.max_delay << ",kill_rank=" << plan.kill_rank
     << ",kill_after_ops=" << plan.kill_after_ops
     << ",jitter=" << (plan.jitter ? 1 : 0) << ",seed=" << plan.seed;
  return ss.str();
}

FaultPlan plan_from_flags(const std::string& s) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < s.size()) {
    auto comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string kv = s.substr(pos, comma - pos);
    pos = comma + 1;
    const auto eq = kv.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("bad fault-plan flag: " + kv);
    const std::string k = kv.substr(0, eq);
    const std::string v = kv.substr(eq + 1);
    if (k == "drop") plan.drop = std::strtod(v.c_str(), nullptr);
    else if (k == "dup") plan.dup = std::strtod(v.c_str(), nullptr);
    else if (k == "reorder") plan.reorder = v != "0";
    else if (k == "delay_prob") plan.delay_prob = std::strtod(v.c_str(), nullptr);
    else if (k == "max_delay") plan.max_delay = std::atoi(v.c_str());
    else if (k == "kill_rank") plan.kill_rank = std::atoi(v.c_str());
    else if (k == "kill_after_ops") plan.kill_after_ops = std::atoi(v.c_str());
    else if (k == "jitter") plan.jitter = v != "0";
    else if (k == "seed") plan.seed = std::strtoull(v.c_str(), nullptr, 10);
    else throw std::invalid_argument("unknown fault-plan flag: " + k);
  }
  return plan;
}

namespace {

int run_child(const std::string& body_name, const TransportOptions& topt,
              const FaultPlan& plan, bool reliable, const std::string& outpath,
              std::vector<std::string> args) {
  const auto it = registry().find(body_name);
  if (it == registry().end()) {
    std::fprintf(stderr, "pdc-spmd child: unknown body \"%s\"\n",
                 body_name.c_str());
    return 44;
  }
  int code = 0;
  std::string err;
  BodyCtx io;
  io.args = std::move(args);
  std::optional<Communicator> comm;
  try {
    comm.emplace(topt, plan);
    comm->run([&](RankContext& ctx) {
      if (reliable) ctx.set_reliable(true);
      it->second(ctx, io);
    });
  } catch (const RankFailedError& e) {
    code = 42;
    err = e.what();
  } catch (const std::exception& e) {
    code = 43;
    err = e.what();
  } catch (...) {
    code = 43;
    err = "unknown exception";
  }
  if (!outpath.empty()) {
    write_file(outpath, io.out);
    if (!err.empty()) write_file(outpath + ".err", err);
    if (comm) {
      // This process's final (quiescent) ledger, for the parent to sum
      // into LaunchResult::traffic.
      const auto t = comm->traffic();
      std::ostringstream ts;
      ts << t.messages << ' ' << t.payload_words << ' ' << t.acks << ' '
         << t.retries << ' ' << t.dropped << ' ' << t.duplicates << ' '
         << t.delayed;
      write_file(outpath + ".traffic", ts.str());
    }
  }
  return code;
}

}  // namespace

bool maybe_run_child(int argc, char** argv) {
  std::string body, transport = "shm", endpoint, outpath, plan_flags;
  int rank = 0, world = 1, reliable = 0;
  std::vector<std::string> args;
  bool is_child = false;
  auto val = [](const char* arg, const char* flag) -> const char* {
    const auto n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (const char* v = val(a, "--pdc-spmd-body=")) {
      body = v;
      is_child = true;
    } else if (const char* v2 = val(a, "--pdc-rank=")) rank = std::atoi(v2);
    else if (const char* v3 = val(a, "--pdc-world=")) world = std::atoi(v3);
    else if (const char* v4 = val(a, "--pdc-transport=")) transport = v4;
    else if (const char* v5 = val(a, "--pdc-endpoint=")) endpoint = v5;
    else if (const char* v6 = val(a, "--pdc-out=")) outpath = v6;
    else if (const char* v7 = val(a, "--pdc-reliable=")) reliable = std::atoi(v7);
    else if (const char* v8 = val(a, "--pdc-plan=")) plan_flags = v8;
    else if (const char* v9 = val(a, "--pdc-arg=")) args.emplace_back(v9);
  }
  if (!is_child) return false;
  int code = 44;
  try {
    TransportOptions topt;
    topt.kind = transport_kind_from_string(transport);
    topt.rank = rank;
    topt.world = world;
    topt.endpoint = endpoint;
    const FaultPlan plan =
        plan_flags.empty() ? FaultPlan{} : plan_from_flags(plan_flags);
    code = run_child(body, topt, plan, reliable != 0, outpath,
                     std::move(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdc-spmd child: %s\n", e.what());
    code = 44;
  }
  std::exit(code);
}

namespace {

/// The inproc "launch": no processes at all — run the registered body on
/// a plain in-process Communicator so process backends have a baseline
/// with the exact same digest plumbing.
LaunchResult run_inproc(const LaunchOptions& opt, SpmdBodyFn fn) {
  LaunchResult res;
  res.ranks.resize(static_cast<std::size_t>(opt.world));
  std::vector<BodyCtx> ios(static_cast<std::size_t>(opt.world));
  for (auto& io : ios) io.args = opt.args;
  Communicator comm(opt.world, opt.plan);
  try {
    comm.run([&](RankContext& ctx) {
      if (opt.reliable) ctx.set_reliable(true);
      fn(ctx, ios[static_cast<std::size_t>(ctx.rank())]);
    });
    res.outcome = LaunchResult::kOk;
  } catch (const RankFailedError& e) {
    res.outcome = LaunchResult::kRankFailed;
    res.error = e.what();
    if (opt.plan.kills()) res.killed_rank = opt.plan.kill_rank;
  } catch (const std::exception& e) {
    res.outcome = LaunchResult::kError;
    res.error = e.what();
  }
  for (int r = 0; r < opt.world; ++r) {
    res.ranks[static_cast<std::size_t>(r)].exit_code =
        res.outcome == LaunchResult::kOk ? 0 : -1;
    res.ranks[static_cast<std::size_t>(r)].out =
        std::move(ios[static_cast<std::size_t>(r)].out);
  }
  // Every rank has finished: the shared ledger is quiescent and IS
  // the whole-world total the process backends reconstruct by summation.
  res.traffic = comm.traffic();
  return res;
}

}  // namespace

LaunchResult run_spmd(const LaunchOptions& opt) {
  if (opt.world < 1) throw std::invalid_argument("world must be >= 1");
  const auto it = registry().find(opt.body);
  if (it == registry().end())
    throw std::invalid_argument("unknown SPMD body: " + opt.body);
  if (opt.kind == TransportKind::kInproc) return run_inproc(opt, it->second);

  const auto w = static_cast<std::size_t>(opt.world);
  std::string dir = "/tmp/pdc_spmdXXXXXX";
  if (::mkdtemp(dir.data()) == nullptr)
    throw std::runtime_error(std::string("mkdtemp: ") + std::strerror(errno));

  static std::atomic<unsigned> world_counter{0};
  std::string endpoint;
  if (opt.kind == TransportKind::kShm)
    endpoint = "/pdc_" + std::to_string(::getpid()) + "_" +
               std::to_string(world_counter.fetch_add(1));
  else
    endpoint = dir + "/port";

  std::vector<std::string> outpaths(w);
  for (std::size_t r = 0; r < w; ++r)
    outpaths[r] = dir + "/out_" + std::to_string(r);

  std::vector<pid_t> pids(w, -1);
  for (int r = 0; r < opt.world; ++r) {
    std::vector<std::string> child_args = {
        "/proc/self/exe",
        "--pdc-spmd-body=" + opt.body,
        "--pdc-rank=" + std::to_string(r),
        "--pdc-world=" + std::to_string(opt.world),
        "--pdc-transport=" + std::string(to_string(opt.kind)),
        "--pdc-endpoint=" + endpoint,
        "--pdc-out=" + outpaths[static_cast<std::size_t>(r)],
        "--pdc-reliable=" + std::to_string(opt.reliable ? 1 : 0),
        "--pdc-plan=" + plan_to_flags(opt.plan),
    };
    for (const auto& a : opt.args) child_args.push_back("--pdc-arg=" + a);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error(std::string("fork: ") +
                                          std::strerror(errno));
    if (pid == 0) {
      std::vector<char*> cargv;
      cargv.reserve(child_args.size() + 1);
      for (auto& a : child_args) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv("/proc/self/exe", cargv.data());
      ::_exit(127);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // Reap promptly: the shm transport's pid-probe liveness check needs a
  // SIGKILLed child's pid gone, not lingering as a zombie.
  const auto deadline = std::chrono::steady_clock::now() + opt.timeout;
  std::vector<int> status(w, 0);
  std::vector<bool> done(w, false);
  int remaining = opt.world;
  bool timed_out = false;
  while (remaining > 0) {
    bool reaped = false;
    for (std::size_t r = 0; r < w; ++r) {
      if (done[r]) continue;
      int st = 0;
      const pid_t got = ::waitpid(pids[r], &st, WNOHANG);
      if (got == pids[r]) {
        status[r] = st;
        done[r] = true;
        --remaining;
        reaped = true;
      }
    }
    if (remaining == 0) break;
    if (!reaped) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        for (std::size_t r = 0; r < w; ++r)
          if (!done[r]) ::kill(pids[r], SIGKILL);
        for (std::size_t r = 0; r < w; ++r) {
          if (done[r]) continue;
          int st = 0;
          ::waitpid(pids[r], &st, 0);
          status[r] = st;
          done[r] = true;
          --remaining;
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  LaunchResult res;
  res.ranks.resize(w);
  bool any_error = false;
  bool any_rank_failed = false;
  // The error text follows Communicator::run's precedence: a root cause
  // (exit 43) beats the RankFailedError cascade it set off (exit 42),
  // which beats any other failure.
  auto precedence = [](int code) {
    return code == 43 ? 0 : code == 42 ? 1 : 2;
  };
  int error_from = 3;
  for (std::size_t r = 0; r < w; ++r) {
    RankResult& rr = res.ranks[r];
    const int st = status[r];
    if (WIFEXITED(st)) {
      rr.exit_code = WEXITSTATUS(st);
    } else if (WIFSIGNALED(st)) {
      rr.signaled = true;
      rr.term_signal = WTERMSIG(st);
    }
    rr.out = read_file(outpaths[r]);
    rr.error = read_file(outpaths[r] + ".err");
    if (const auto tf = read_file(outpaths[r] + ".traffic"); !tf.empty()) {
      TrafficStats t;
      std::istringstream ts(tf);
      if (ts >> t.messages >> t.payload_words >> t.acks >> t.retries >>
          t.dropped >> t.duplicates >> t.delayed)
        res.traffic += t;
    }
    if (rr.signaled && rr.term_signal == SIGKILL && !timed_out) {
      any_rank_failed = true;
      if (res.killed_rank < 0) res.killed_rank = static_cast<int>(r);
    } else if (rr.signaled) {
      any_error = true;
    } else if (rr.exit_code == 42) {
      any_rank_failed = true;
    } else if (rr.exit_code != 0) {
      any_error = true;
    }
    if (!rr.error.empty() && rr.exit_code != 0 &&
        precedence(rr.exit_code) < error_from) {
      error_from = precedence(rr.exit_code);
      res.error = rr.error;
    }
  }
  if (timed_out)
    res.outcome = LaunchResult::kTimeout;
  else if (any_error)
    res.outcome = LaunchResult::kError;
  else if (any_rank_failed)
    res.outcome = LaunchResult::kRankFailed;
  else
    res.outcome = LaunchResult::kOk;
  if (res.outcome == LaunchResult::kRankFailed && res.error.empty() &&
      res.killed_rank >= 0)
    // A world so small nobody survived to report it (or survivors raced
    // the kill): synthesize the same deterministic message run() throws.
    res.error = "rank " + std::to_string(res.killed_rank) +
                " killed by fault plan " + opt.plan.describe();

  // Cleanup: out files, the endpoint, the temp dir. The shm segment is
  // normally unlinked by rank 0 post-handshake; insure against a rank 0
  // killed mid-handshake.
  for (std::size_t r = 0; r < w; ++r) {
    std::remove(outpaths[r].c_str());
    std::remove((outpaths[r] + ".err").c_str());
    std::remove((outpaths[r] + ".traffic").c_str());
  }
  if (opt.kind == TransportKind::kTcp) {
    std::remove(endpoint.c_str());
    std::remove((endpoint + ".tmp").c_str());
  } else {
    ::shm_unlink(endpoint.c_str());
  }
  ::rmdir(dir.c_str());
  return res;
}

}  // namespace pdc::mp::launch
