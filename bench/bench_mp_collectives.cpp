// CS87-mp — the MPI topics: ping-pong message rate, flat vs tree
// collective traffic and critical path for P = 2..32, and allreduce
// throughput.
//
// Expected shape: both algorithms move P-1 messages but the tree's
// critical path is ceil(log2 P) rounds vs P-1 — the crossover argument
// for tree collectives.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "pdc/algo/sample_sort.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/mp/dht.hpp"
#include "pdc/mp/launch.hpp"
#include "pdc/mp/transport.hpp"
#include "pdc/perf/table.hpp"

namespace {

int tree_rounds(int p) {
  int rounds = 0;
  for (int reach = 1; reach < p; reach *= 2) ++rounds;
  return rounds;
}

void print_collective_table(pdc::benchutil::Options& bopt) {
  pdc::perf::Table t({"P", "algo", "bcast msgs", "bcast rounds",
                      "reduce msgs", "reduce rounds"});
  for (int p : {2, 4, 8, 16, 32}) {
    for (auto algo :
         {pdc::mp::CollectiveAlgo::kFlat, pdc::mp::CollectiveAlgo::kTree}) {
      // TrafficStats deltas price the phases: run the broadcast alone,
      // then broadcast + reduce, and subtract — both patterns are
      // deterministic, so the difference is exactly the reduce.
      pdc::mp::Communicator bc(p);
      bc.run([&](pdc::mp::RankContext& ctx) {
        (void)ctx.broadcast_value(0, 1, algo);
      });
      const pdc::mp::TrafficStats bcast_tr = bc.traffic();

      pdc::mp::Communicator both(p);
      both.run([&](pdc::mp::RankContext& ctx) {
        (void)ctx.broadcast_value(0, 1, algo);
        (void)ctx.reduce(0, ctx.rank(), pdc::mp::ReduceOp::kSum, algo);
      });
      const pdc::mp::TrafficStats reduce_tr = both.traffic() - bcast_tr;
      const bool tree = algo == pdc::mp::CollectiveAlgo::kTree;
      const int rounds = tree ? tree_rounds(p) : p - 1;
      t.add_row({std::to_string(p), tree ? "tree" : "flat",
                 std::to_string(bcast_tr.messages),
                 std::to_string(rounds),
                 std::to_string(reduce_tr.messages),
                 std::to_string(rounds)});
    }
  }
  bopt.add_json_table("collective traffic", t);
  std::cout << "== CS87-mp: collective traffic and critical path ==\n"
            << t.str()
            << "(same message count; the tree turns P-1 serial rounds "
               "into log2 P)\n\n";
}

// The reliability tax: run the DHT bulk workload (a) on the plain
// channel, then (b) on the reliable channel under seeded loss rates, and
// price what seq/ack/retransmit costs in traffic. Payload overhead is the
// extra words the reliable wire format moves even at 0% loss (round
// numbers + retransmitted copies); acks ride the counters, not the
// payload.
void print_reliability_tax_table() {
  constexpr int kRanks = 4;
  constexpr int kOpsPerRank = 200;
  const auto workload = [](pdc::mp::RankContext& ctx, bool reliable) {
    ctx.set_reliable(reliable);
    pdc::mp::BspHashMap dht(ctx, {reliable});
    for (int i = 0; i < kOpsPerRank; ++i)
      dht.queue_put(ctx.rank() * kOpsPerRank + i, i);
    (void)dht.round();
    for (int i = 0; i < kOpsPerRank; ++i)
      dht.queue_get(((ctx.rank() + 1) % kRanks) * kOpsPerRank + i);
    if (dht.round().empty()) std::abort();
  };

  // A "wire frame" is any physical transmission: a data message that got
  // enqueued, a dropped or duplicate-suppressed copy, or an ack. The tax
  // column is reliable frames / plain frames for the same workload.
  const auto frames = [](const pdc::mp::TrafficStats& tr) {
    return tr.messages + tr.dropped + tr.duplicates + tr.acks;
  };
  pdc::perf::Table t({"mode", "loss", "messages", "payload words", "acks",
                      "retries", "dropped", "dups", "frame tax"});
  pdc::mp::Communicator base(kRanks);
  base.run([&](pdc::mp::RankContext& ctx) { workload(ctx, false); });
  const double base_frames = static_cast<double>(frames(base.traffic()));
  t.add_row({"plain", "0%", std::to_string(base.traffic().messages),
             std::to_string(base.traffic().payload_words), "0", "0", "0", "0",
             "1.00x"});

  for (double loss : {0.0, 0.01, 0.10}) {
    pdc::mp::FaultPlan plan;
    plan.drop = loss;
    plan.dup = loss / 2;
    plan.reorder = loss > 0;
    plan.seed = 7;
    pdc::mp::Communicator comm(kRanks, plan);
    comm.run([&](pdc::mp::RankContext& ctx) { workload(ctx, true); });
    const auto tr = comm.traffic();
    char pct[16], tax[16];
    std::snprintf(pct, sizeof pct, "%.0f%%", loss * 100);
    std::snprintf(tax, sizeof tax, "%.2fx",
                  static_cast<double>(frames(tr)) / base_frames);
    t.add_row({"reliable", pct, std::to_string(tr.messages),
               std::to_string(tr.payload_words), std::to_string(tr.acks),
               std::to_string(tr.retries), std::to_string(tr.dropped),
               std::to_string(tr.duplicates), tax});
  }
  std::cout << "== CS87-mp: reliability tax — DHT bulk workload, P = 4, "
               "2x" << kOpsPerRank << " ops/rank ==\n"
            << t.str()
            << "(acks ~= one per delivered message; retries scale with "
               "loss; dedup eats every duplicate)\n\n";
}

// ---- transport study: the same SPMD code timed over every backend ----
//
// These bodies re-exec this binary one process per rank (except inproc,
// which runs them as threads), so the numbers price the real wire: mutex
// mailboxes vs shared-memory rings vs loopback TCP.

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// Rank 0 reports "lat_us bw_mwps": 1-word round-trip latency and the
/// word rate of 16K-word (128KB) round trips. No frame size is tied to
/// the shm ring's 256KB: the ring carries a frame in pieces. args[0] =
/// timed latency reps.
PDC_SPMD_BODY(bench_pingpong) {
  const int peer = 1 - ctx.rank();
  auto round_trips = [&](std::size_t words, int reps) {
    std::vector<std::int64_t> payload(words, 7);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      if (ctx.rank() == 0) {
        ctx.send(peer, 0, payload);
        payload = ctx.recv(peer, 1).data;
      } else {
        payload = ctx.recv(peer, 0).data;
        ctx.send(peer, 1, payload);
      }
    }
    return elapsed_us(t0);
  };
  (void)round_trips(1, 50);  // warm the flows (first contact sets up rings)
  const int lat_reps = io.args.empty() ? 1000 : std::stoi(io.args[0]);
  const double lat_us = round_trips(1, lat_reps) / lat_reps;
  constexpr std::size_t kBwWords = std::size_t{1} << 14;
  constexpr int kBwReps = 40;
  const double bw_us = round_trips(kBwWords, kBwReps);
  // Each round trip moves the payload both ways; words/us == Mword/s.
  const double mwps = 2.0 * kBwReps * static_cast<double>(kBwWords) / bw_us;
  if (ctx.rank() == 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f %.1f", lat_us, mwps);
    io.out = buf;
  }
}

/// Rank 0 reports completed allreduces per second at P = world.
/// args[0] = timed reps.
PDC_SPMD_BODY(bench_allreduce) {
  for (int i = 0; i < 20; ++i)  // warm
    (void)ctx.allreduce(ctx.rank(), pdc::mp::ReduceOp::kSum);
  const int reps = io.args.empty() ? 200 : std::stoi(io.args[0]);
  const auto t0 = std::chrono::steady_clock::now();
  std::int64_t acc = 0;
  for (int i = 0; i < reps; ++i)
    acc += ctx.allreduce(ctx.rank(), pdc::mp::ReduceOp::kSum);
  const double us = elapsed_us(t0);
  if (ctx.rank() == 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f %lld", 1e6 * reps / us,
                  static_cast<long long>(acc));
    io.out = buf;
  }
}

namespace {

void print_transport_table(pdc::benchutil::Options& bopt, bool smoke) {
  namespace ml = pdc::mp::launch;
  pdc::perf::Table t({"transport", "P2 rt latency (us)",
                      "P2 bandwidth (Mword/s)", "P4 allreduce/s"});
  for (auto kind :
       {pdc::mp::TransportKind::kInproc, pdc::mp::TransportKind::kShm,
        pdc::mp::TransportKind::kTcp}) {
    std::string lat = "-", bw = "-", ar = "-";
    ml::LaunchOptions o;
    o.kind = kind;
    o.body = "bench_pingpong";
    o.world = 2;
    o.args = {smoke ? "200" : "2000"};
    if (const auto r = ml::run_spmd(o); r.ok()) {
      std::istringstream is(r.ranks[0].out);
      is >> lat >> bw;
    }
    o.body = "bench_allreduce";
    o.world = 4;
    o.args = {smoke ? "50" : "500"};
    if (const auto r = ml::run_spmd(o); r.ok()) {
      std::istringstream is(r.ranks[0].out);
      is >> ar;
    }
    t.add_row({std::string(pdc::mp::to_string(kind)), lat, bw, ar});
  }
  // Wall-clock numbers: json-exported for inspection, never diffed as an
  // expectation.
  bopt.add_json_table("transport latency/throughput", t);
  std::cout << "== CS87-mp: one SPMD program, three wires (ping-pong P=2, "
               "allreduce P=4) ==\n"
            << t.str()
            << "(inproc hands the frame to the peer's mailbox under one "
               "mutex; shm pushes it through a lock-free ring; tcp pays "
               "the kernel socket path — the per-message cost ladder the "
               "bandwidth column amortizes away)\n\n";
}

void BM_PingPong(benchmark::State& state) {
  const auto words = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pdc::mp::Communicator comm(2);
    comm.run([&](pdc::mp::RankContext& ctx) {
      std::vector<std::int64_t> payload(words, 7);
      for (int i = 0; i < 50; ++i) {
        if (ctx.rank() == 0) {
          ctx.send(1, 0, payload);
          payload = ctx.recv(1, 1).data;
        } else {
          payload = ctx.recv(0, 0).data;
          ctx.send(0, 1, payload);
        }
      }
    });
    benchmark::DoNotOptimize(comm.traffic().messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100);
}
BENCHMARK(BM_PingPong)->Arg(1)->Arg(64)->Arg(4096)->UseRealTime();

void BM_Allreduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pdc::mp::Communicator comm(p);
    comm.run([&](pdc::mp::RankContext& ctx) {
      std::int64_t acc = ctx.rank();
      for (int i = 0; i < 20; ++i)
        acc = ctx.allreduce(acc, pdc::mp::ReduceOp::kSum);
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20);
}
BENCHMARK(BM_Allreduce)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Barrier(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pdc::mp::Communicator comm(p);
    comm.run([&](pdc::mp::RankContext& ctx) {
      for (int i = 0; i < 50; ++i) ctx.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          50);
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_DhtBulkOps(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  constexpr int kOpsPerRank = 500;
  for (auto _ : state) {
    pdc::mp::Communicator comm(p);
    comm.run([&](pdc::mp::RankContext& ctx) {
      pdc::mp::BspHashMap dht(ctx);
      for (int i = 0; i < kOpsPerRank; ++i)
        dht.queue_put(ctx.rank() * kOpsPerRank + i, i);
      (void)dht.round();
      for (int i = 0; i < kOpsPerRank; ++i)
        dht.queue_get(((ctx.rank() + 1) % p) * kOpsPerRank + i);
      benchmark::DoNotOptimize(dht.round());
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * kOpsPerRank * p);
}
BENCHMARK(BM_DhtBulkOps)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

void print_sample_sort_table(pdc::benchutil::Options& bopt) {
  pdc::perf::Table t({"ranks", "messages", "payload words", "words / key"});
  const std::size_t n = 100000;
  std::vector<std::int64_t> base(n);
  std::uint64_t seed = 9;
  for (auto& v : base) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    v = static_cast<std::int64_t>(seed);
  }
  for (int ranks : {2, 4, 8}) {
    std::uint64_t msgs = 0, words = 0;
    const auto sorted = pdc::algo::mp_sample_sort(base, ranks, &msgs, &words);
    if (!std::is_sorted(sorted.begin(), sorted.end())) {
      std::cerr << "SAMPLE SORT FAILED\n";
      std::exit(1);
    }
    t.add_row({std::to_string(ranks), std::to_string(msgs),
               std::to_string(words),
               pdc::perf::fmt(static_cast<double>(words) /
                                  static_cast<double>(n),
                              2)});
  }
  bopt.add_json_table("sample sort traffic", t);
  std::cout << "== CS87-mp: distributed sample sort (PSRS) traffic, "
               "N = 100K keys ==\n"
            << t.str()
            << "(each key crosses the network about once — the partition "
               "exchange dominates; samples/pivots are the +epsilon)\n\n";
}

int main(int argc, char** argv) {
  // Children re-exec'd by the transport study never get past this line.
  pdc::mp::launch::maybe_run_child(argc, argv);
  auto opt = pdc::benchutil::parse_args(argc, argv);
  // The collective and sample-sort tables are exact traffic counts —
  // deterministic, so the CI release job diffs them against
  // bench/expectations/. The reliability-tax and transport tables are
  // timing-dependent (retransmit timeouts, wall-clock rates), so they
  // are never diffed.
  print_collective_table(opt);
  print_reliability_tax_table();
  print_sample_sort_table(opt);
  print_transport_table(opt, opt.smoke);
  return pdc::benchutil::finish(opt, argc, argv);
}
