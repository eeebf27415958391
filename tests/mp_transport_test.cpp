// Cross-transport conformance suite: every Communicator feature that the
// in-process backend supports must behave byte-identically over the
// shared-memory and TCP process backends. Each conformance body computes
// a per-rank digest string (protocol results + the deterministic slice of
// the traffic ledger), runs under launch::run_spmd on the backend under
// test, and is compared rank-for-rank against a fresh in-process
// reference run of the same body.
//
// What is and is not asserted about traffic: LaunchResult::traffic sums
// every rank process's ledger AFTER its Communicator finished, so the
// receiver-side counters (messages, payload_words) and the sender-side
// fault counters (dropped, delayed) are complete and deterministic —
// those are asserted byte-identical across all three backends. Each
// rank's digest also carries its own arrivals() count, snapshotted after
// the body's last communication op (at which point everything destined
// to this rank has been consumed). Ack/retry/duplicate counts are
// timing-dependent on real transports (a slow ack triggers a legitimate
// retransmit), so those are asserted per-transport: exact on inproc
// (synchronous delivery never retransmits), lower-bounded on the
// process backends.
//
// Fault-plan rank kills on process backends are REAL SIGKILLs; the suite
// asserts the surviving ranks report the same deterministic
// RankFailedError text as an in-process kill of the same plan.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzzer.hpp"
#include "pdc/mp/client.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/mp/dht.hpp"
#include "pdc/mp/fault.hpp"
#include "pdc/mp/launch.hpp"
#include "pdc/mp/transport.hpp"
#include "pdc/stencil/heat.hpp"

namespace mp = pdc::mp;
namespace launch = pdc::mp::launch;
namespace pt = pdc::testing;

namespace {

std::string join64(const std::vector<std::int64_t>& v) {
  std::string s;
  for (const auto x : v) {
    if (!s.empty()) s += ',';
    s += std::to_string(x);
  }
  return s;
}

/// Per-rank mailbox arrivals, appended after the body's last
/// communication op: every message destined to this rank has been
/// consumed by then, and nobody sends afterwards, so the count is
/// deterministic on every backend (sequence dedup keeps retransmitted
/// copies out of it).
void append_arrivals(mp::RankContext& ctx, std::string& out) {
  out += "|arrivals=" + std::to_string(ctx.arrivals());
}

// ------------------------------------------------ conformance bodies ---

PDC_SPMD_BODY(conf_collectives) {
  const int p = ctx.size();
  const int r = ctx.rank();
  std::vector<std::int64_t> digest;
  for (const auto algo : {mp::CollectiveAlgo::kFlat, mp::CollectiveAlgo::kTree}) {
    digest.push_back(ctx.broadcast_value(p / 2, r == p / 2 ? 4242 : 0, algo));
    digest.push_back(
        ctx.reduce(0, (r + 1) * (r + 1), mp::ReduceOp::kSum, algo));
    std::vector<std::int64_t> chunks;
    if (r == p - 1)
      for (int i = 0; i < p; ++i) chunks.push_back(100 + i * 3);
    digest.push_back(ctx.scatter(p - 1, chunks));
    const auto gathered = ctx.gather(0, r * 7 + 1);
    digest.insert(digest.end(), gathered.begin(), gathered.end());
    const auto all = ctx.allgather(r * r - r);
    digest.insert(digest.end(), all.begin(), all.end());
    digest.push_back(ctx.allreduce(r + 1, mp::ReduceOp::kMax));
    digest.push_back(ctx.exscan(r + 1, mp::ReduceOp::kSum));
    ctx.barrier();
  }
  std::vector<std::vector<std::int64_t>> outgoing;
  for (int d = 0; d < p; ++d)
    outgoing.push_back({r * 100 + d, r - d});
  for (const auto& in : ctx.alltoall(std::move(outgoing)))
    digest.insert(digest.end(), in.begin(), in.end());
  io.out = join64(digest);
  append_arrivals(ctx, io.out);
}

PDC_SPMD_BODY(conf_bsp_dht) {
  const int p = ctx.size();
  const int r = ctx.rank();
  mp::BspHashMap dht(ctx, {true});
  for (int i = 0; i < 8; ++i) dht.queue_put(r * 100 + i, r * 1000 + i);
  (void)dht.round();
  const int peer = (r + 1) % p;
  for (int i = 0; i < 8; ++i) dht.queue_get(peer * 100 + i);
  dht.queue_get(-12345);  // never written
  std::vector<std::int64_t> digest;
  for (const auto& g : dht.round()) {
    digest.push_back(g.found ? 1 : 0);
    digest.push_back(g.value);
  }
  io.out = join64(digest);
  append_arrivals(ctx, io.out);
}

PDC_SPMD_BODY(conf_dht_client) {
  const bool reliable = !io.args.empty() && io.args[0] == "reliable";
  const int p = ctx.size();
  const int r = ctx.rank();
  mp::DhtClient client(ctx, {.window = 8, .max_batch = 4, .reliable = reliable});
  for (std::int64_t i = 0; i < 16; ++i)
    (void)client.put(r * 64 + i, (r * 64 + i) * 3 + 1);
  client.fence();
  const int peer = (r + 1) % p;
  std::vector<mp::DhtFuture> gets;
  for (std::int64_t i = 0; i < 16; ++i)
    gets.push_back(client.get(peer * 64 + i));
  gets.push_back(client.get(-4242));  // never written
  std::vector<std::int64_t> digest;
  for (auto& g : gets) {
    const auto res = g.wait();
    digest.push_back(res.found ? 1 : 0);
    digest.push_back(res.value);
  }
  client.shutdown();
  // No arrivals tail here: the client coalesces eagerly when the wire is
  // idle (DestQueue::sent.empty()), so its batch count — and therefore
  // message/arrival counts — is timing-dependent by design, even on the
  // in-process backend. Only the op results are asserted.
  io.out = join64(digest);
}

PDC_SPMD_BODY(conf_heat_strip) {
  namespace st = pdc::stencil;
  const int p = ctx.size();
  const int r = ctx.rank();
  constexpr std::size_t kRows = 24, kCols = 10;
  // Hybrid plans ride in through the body args ("threads=N"), so the
  // same digest body covers {R,1} and {R,T} execution on every backend.
  st::ExecPlan plan;
  for (const auto& a : io.args) {
    if (a.rfind("threads=", 0) == 0)
      plan.threads_per_rank = std::stoi(a.substr(8));
  }
  st::HeatOptions hopt;
  hopt.conductivity = 0.25;
  hopt.tile_rows = 4;
  hopt.tile_cols = 8;
  hopt.converge_eps = 1e-2;
  hopt.max_steps = 500;

  st::HeatField g(kRows, kCols);
  for (std::size_t i = 0; i < kRows; ++i)
    for (std::size_t j = 0; j < kCols; ++j)
      g.at(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j)) =
          static_cast<float>((i * 7 + j * 13) % 5) * 0.2f;
  g.set_boundary(1.0f, 0.0f, 0.5f, 0.25f);

  const std::size_t n_tiles = (kRows + hopt.tile_rows - 1) / hopt.tile_rows;
  const std::size_t pp = static_cast<std::size_t>(p);
  const std::size_t rr = static_cast<std::size_t>(r);
  const std::size_t r0 = n_tiles * rr / pp * hopt.tile_rows;
  const std::size_t r1 =
      std::min(kRows, n_tiles * (rr + 1) / pp * hopt.tile_rows);
  std::vector<std::int64_t> digest;
  if (r0 >= r1) {
    digest.push_back(0);
  } else {
    st::HeatField strip(r1 - r0, kCols);
    for (std::ptrdiff_t pr = -1; pr <= static_cast<std::ptrdiff_t>(r1 - r0);
         ++pr)
      for (std::ptrdiff_t pc = -1; pc <= static_cast<std::ptrdiff_t>(kCols);
           ++pc)
        strip.at(pr, pc) = g.at(static_cast<std::ptrdiff_t>(r0) + pr, pc);
    const st::MpLinks links{.up = r > 0 ? r - 1 : -1,
                            .down = r + 1 < p ? r + 1 : -1};
    const auto res = st::heat_relax_strip(strip, hopt, plan, ctx, links);
    digest.push_back(static_cast<std::int64_t>(res.steps));
    digest.push_back(static_cast<std::int64_t>(res.tiles_computed));
    digest.push_back(static_cast<std::int64_t>(res.tiles_skipped));
    digest.push_back(static_cast<std::int64_t>(res.halo_words));
    digest.push_back(res.converged ? 1 : 0);
    for (std::size_t i = 0; i < r1 - r0; ++i)
      for (std::size_t j = 0; j < kCols; ++j)
        digest.push_back(std::bit_cast<std::uint32_t>(
            strip.at(static_cast<std::ptrdiff_t>(i),
                     static_cast<std::ptrdiff_t>(j))));
  }
  io.out = join64(digest);
  append_arrivals(ctx, io.out);
}

PDC_SPMD_BODY(conf_p2p_ring) {
  const int p = ctx.size();
  const int r = ctx.rank();
  const int right = (r + 1) % p;
  const int left = (r + p - 1) % p;
  for (std::int64_t i = 0; i < 12; ++i)
    ctx.send_value(right, static_cast<int>(i % 3), r * 1000 + i);
  std::vector<std::int64_t> digest;
  for (std::int64_t i = 0; i < 12; ++i)
    digest.push_back(ctx.recv_value(left, static_cast<int>(i % 3)));
  io.out = join64(digest);
  append_arrivals(ctx, io.out);
}

PDC_SPMD_BODY(conf_reliable_ring) {
  // Launched with LaunchOptions.reliable=true: every ring send rides the
  // reliable channel (sequence numbers, acks, retransmission).
  const int p = ctx.size();
  const int r = ctx.rank();
  const int right = (r + 1) % p;
  const int left = (r + p - 1) % p;
  for (std::int64_t i = 0; i < 12; ++i)
    ctx.send_value(right, static_cast<int>(i % 3), r * 1000 + i);
  std::vector<std::int64_t> digest;
  for (std::int64_t i = 0; i < 12; ++i)
    digest.push_back(ctx.recv_value(left, static_cast<int>(i % 3)));
  io.out = join64(digest);
  append_arrivals(ctx, io.out);
}

// Satellite-3 regressions: single-process assumptions that must hold for
// remote peers too.

PDC_SPMD_BODY(conf_request_dead_peer) {
  // The plan SIGKILLs rank 1 on its first channel op, before anything is
  // sent. Rank 0's Request::wait() on that peer must fast-fail with
  // RankFailedError (not hang), identically on every backend.
  if (ctx.rank() == 1) {
    ctx.send_value(0, 7, 1);  // never completes: the kill clock fires first
  } else if (ctx.rank() == 0) {
    auto req = ctx.irecv(1, 7);
    try {
      (void)req.wait();
      io.out = "got-a-message";
    } catch (const mp::RankFailedError&) {
      io.out = "fastfail";
    }
  }
}

PDC_SPMD_BODY(conf_arrivals) {
  // arrivals()/wait_arrivals() event-loop contract for remote peers:
  // rank 0 sleeps until rank 1's three sends land, drains them, then
  // waits for the peer-stopped notification.
  if (ctx.rank() == 1) {
    for (std::int64_t i = 0; i < 3; ++i) ctx.send_value(0, 5, 10 + i);
  } else if (ctx.rank() == 0) {
    std::uint64_t seen = 0;
    while (ctx.arrivals() < 3) seen = ctx.wait_arrivals(seen);
    std::int64_t sum = 0;
    for (int i = 0; i < 3; ++i) sum += ctx.recv_value(1, 5);
    while (ctx.peer_running(1)) (void)ctx.wait_arrivals(ctx.arrivals());
    io.out = "sum=" + std::to_string(sum) +
             " arrivals=" + std::to_string(ctx.arrivals());
  }
}

/// Length, hash and last word of a received payload.
std::string words_digest(const std::vector<std::int64_t>& got) {
  std::uint64_t h = 0;
  for (const auto x : got)
    h = h * 1099511628211ULL + static_cast<std::uint64_t>(x);
  return std::to_string(got.size()) + ":" + std::to_string(h) + ":" +
         std::to_string(got.empty() ? 0 : got.back());
}

PDC_SPMD_BODY(conf_big_frame) {
  // One 65,536-word frame (512 KiB on the wire) to the right neighbour:
  // twice the shm ring's capacity, so the ring must carry it in pieces.
  const int p = ctx.size();
  const int r = ctx.rank();
  constexpr std::int64_t kWords = 65536;
  std::vector<std::int64_t> payload(static_cast<std::size_t>(kWords));
  for (std::int64_t i = 0; i < kWords; ++i)
    payload[static_cast<std::size_t>(i)] = r * kWords + i * 7 - 3;
  ctx.send((r + 1) % p, 3, std::move(payload));
  io.out = words_digest(ctx.recv((r + p - 1) % p, 3).data);
  append_arrivals(ctx, io.out);
}

PDC_SPMD_BODY(conf_send_and_finish) {
  // Rank 0 sends every other rank one 4 MiB frame, 16 times the shm
  // ring's capacity, and returns at once: most of each frame, and the
  // kFin behind it, still wait in its outbound buffer when it finishes.
  // Every receiver must get the whole frame.
  constexpr std::size_t kWords = std::size_t{1} << 19;
  if (ctx.rank() == 0) {
    std::vector<std::int64_t> payload(kWords);
    for (std::size_t i = 0; i < kWords; ++i)
      payload[i] = static_cast<std::int64_t>(i * 5 + 1);
    for (int d = 1; d < ctx.size(); ++d) ctx.send(d, 9, payload);
    io.out = "sent " + std::to_string(ctx.size() - 1);
  } else {
    io.out = words_digest(ctx.recv(0, 9).data);
  }
  append_arrivals(ctx, io.out);
}

PDC_SPMD_BODY(conf_root_cause) {
  // Rank 1 throws while rank 0 waits on it: the world must report rank
  // 1's exception, not the RankFailedError it sets off in rank 0.
  if (ctx.rank() == 1) throw std::runtime_error("boom");
  if (ctx.rank() == 0) io.out = join64(ctx.recv(1, 4).data);
}

// ----------------------------------------------------- the test rig ---

struct Cell {
  mp::TransportKind kind;
  int world;
};

std::string kind_name(
    const ::testing::TestParamInfo<mp::TransportKind>& info) {
  std::string n = mp::to_string(info.param);
  n[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(n[0])));
  return n;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return kind_name({info.param.kind, info.index}) + "P" +
         std::to_string(info.param.world);
}

launch::LaunchResult run_body(mp::TransportKind kind, int world,
                              const std::string& body, bool reliable = false,
                              std::vector<std::string> args = {},
                              mp::FaultPlan plan = {}) {
  launch::LaunchOptions o;
  o.body = body;
  o.world = world;
  o.kind = kind;
  o.reliable = reliable;
  o.args = std::move(args);
  o.plan = plan;
  return launch::run_spmd(o);
}

/// Run `body` on the backend under test and on a fresh in-process
/// reference; every rank's digest must match byte for byte.
void expect_conformant(const Cell& cell, const std::string& body,
                       bool reliable = false,
                       std::vector<std::string> args = {},
                       launch::LaunchResult* got_out = nullptr,
                       bool exact_traffic = true) {
  const auto ref =
      run_body(mp::TransportKind::kInproc, cell.world, body, reliable, args);
  const auto got = run_body(cell.kind, cell.world, body, reliable, args);
  if (got_out != nullptr) *got_out = got;
  ASSERT_TRUE(ref.ok()) << "inproc reference failed: " << ref.error;
  ASSERT_TRUE(got.ok()) << mp::to_string(cell.kind)
                        << " run failed: " << got.error;
  ASSERT_EQ(ref.ranks.size(), got.ranks.size());
  for (std::size_t r = 0; r < ref.ranks.size(); ++r) {
    EXPECT_FALSE(ref.ranks[r].out.empty()) << "rank " << r << " empty digest";
    EXPECT_EQ(ref.ranks[r].out, got.ranks[r].out)
        << "rank " << r << " digest diverged on " << mp::to_string(cell.kind);
  }
  // Whole-world traffic, summed from quiescent per-process ledgers: the
  // receiver-side counters and the fault-plan counters are deterministic
  // on every backend — except for bodies whose message count is itself
  // timing-dependent (the eagerly-coalescing DhtClient), which only get
  // the fault-counter check. (Ack/retry/duplicate overhead is never
  // compared here — asserted separately, per transport.)
  if (exact_traffic) {
    EXPECT_EQ(ref.traffic.messages, got.traffic.messages);
    EXPECT_EQ(ref.traffic.payload_words, got.traffic.payload_words);
  }
  EXPECT_EQ(ref.traffic.dropped, got.traffic.dropped);
  EXPECT_EQ(ref.traffic.delayed, got.traffic.delayed);
  if (cell.world > 1) {
    EXPECT_GT(got.traffic.messages, 0u);
  }
}

class TransportConformance : public ::testing::TestWithParam<Cell> {};

TEST_P(TransportConformance, Collectives) {
  expect_conformant(GetParam(), "conf_collectives");
}

TEST_P(TransportConformance, BspHashMapRounds) {
  expect_conformant(GetParam(), "conf_bsp_dht");
}

TEST_P(TransportConformance, DhtClientRawChannel) {
  expect_conformant(GetParam(), "conf_dht_client", false, {}, nullptr,
                    /*exact_traffic=*/false);
}

TEST_P(TransportConformance, DhtClientReliableChannel) {
  expect_conformant(GetParam(), "conf_dht_client", false, {"reliable"}, nullptr,
                    /*exact_traffic=*/false);
}

TEST_P(TransportConformance, HeatStripRelaxation) {
  expect_conformant(GetParam(), "conf_heat_strip");
}

TEST_P(TransportConformance, HeatStripRelaxationHybrid) {
  // {R,4} hybrid ranks: a four-thread team advances every strip, comm
  // funneled through each team's rank-0 thread. Digests (steps, tile
  // counts, halo words, every field word) must match the in-process
  // hybrid reference byte for byte.
  expect_conformant(GetParam(), "conf_heat_strip", false, {"threads=4"});
}

TEST_P(TransportConformance, HeatStripRelaxationHybridTwoThreads) {
  // {R,2}: a team of two, so the boundary tiles the funnel thread
  // publishes after the halo lands are stolen by a single peer.
  expect_conformant(GetParam(), "conf_heat_strip", false, {"threads=2"});
}

TEST_P(TransportConformance, P2pRingPlainChannel) {
  const auto cell = GetParam();
  launch::LaunchResult got;
  expect_conformant(cell, "conf_p2p_ring", false, {}, &got);
  if (::testing::Test::HasFatalFailure()) return;
  // Plain channel on a clean plan: the reliability machinery must never
  // engage, on any backend.
  EXPECT_EQ(got.traffic.acks, 0u);
  EXPECT_EQ(got.traffic.retries, 0u);
  EXPECT_EQ(got.traffic.duplicates, 0u);
}

TEST_P(TransportConformance, P2pRingReliableChannel) {
  const auto cell = GetParam();
  launch::LaunchResult got;
  expect_conformant(cell, "conf_reliable_ring", /*reliable=*/true, {}, &got);
  if (::testing::Test::HasFatalFailure()) return;
  // Frame/ack overhead is transport-specific: inproc delivery is
  // synchronous (the ack lands before the sender ever waits), so counts
  // are exact; on shm/tcp a slow ack legitimately triggers retransmits,
  // so only a lower bound holds. 12 reliable ring sends per rank, each
  // acked at least once.
  const auto floor = static_cast<std::uint64_t>(12 * cell.world);
  if (cell.kind == mp::TransportKind::kInproc) {
    EXPECT_EQ(got.traffic.acks, floor);
    EXPECT_EQ(got.traffic.retries, 0u);
    EXPECT_EQ(got.traffic.duplicates, 0u);
  } else {
    EXPECT_GE(got.traffic.acks, floor);
  }
}

TEST_P(TransportConformance, FrameLargerThanTheShmRing) {
  expect_conformant(GetParam(), "conf_big_frame");
}

TEST_P(TransportConformance, SendAndFinishWithAFrameLargerThanTheShmRing) {
  // A sender that finishes with bytes still queued is not finished for
  // its receivers until its kFin lands behind them. One world can pass
  // even when that breaks, so the body is replayed.
  const int replays = pt::stress_iters(20);
  for (int i = 0; i < replays && !HasFailure(); ++i) {
    SCOPED_TRACE("replay " + std::to_string(i));
    expect_conformant(GetParam(), "conf_send_and_finish");
  }
}

// Every execution shape of the same strip world — {4,1}, {4,2} and
// {4,4} — produces the identical per-rank digest: hybrid threading
// changes wall-clock only, never a byte of results, accounting, or wire
// traffic.
TEST(HybridPlanShapes, AllThreadCountsShareOneDigest) {
  const auto base =
      run_body(mp::TransportKind::kInproc, 4, "conf_heat_strip");
  ASSERT_TRUE(base.ok()) << base.error;
  const std::vector<std::vector<std::string>> variants = {{"threads=2"},
                                                          {"threads=4"}};
  for (const auto& args : variants) {
    const auto got = run_body(mp::TransportKind::kInproc, 4,
                              "conf_heat_strip", false, args);
    ASSERT_TRUE(got.ok()) << got.error;
    ASSERT_EQ(base.ranks.size(), got.ranks.size());
    for (std::size_t r = 0; r < base.ranks.size(); ++r)
      EXPECT_EQ(base.ranks[r].out, got.ranks[r].out)
          << "rank " << r << " args " << args[0];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TransportConformance,
    ::testing::Values(Cell{mp::TransportKind::kInproc, 1},
                      Cell{mp::TransportKind::kInproc, 2},
                      Cell{mp::TransportKind::kInproc, 4},
                      Cell{mp::TransportKind::kShm, 1},
                      Cell{mp::TransportKind::kShm, 2},
                      Cell{mp::TransportKind::kShm, 4},
                      Cell{mp::TransportKind::kTcp, 1},
                      Cell{mp::TransportKind::kTcp, 2},
                      Cell{mp::TransportKind::kTcp, 4}),
    cell_name);

// ------------------------------------------------- rank-kill parity ---

class TransportKillParity : public ::testing::TestWithParam<Cell> {};

TEST_P(TransportKillParity, SigkilledRankMatchesInprocessError) {
  const auto [kind, world] = GetParam();
  mp::FaultPlan plan;
  plan.kill_rank = world - 1;
  plan.kill_after_ops = 3;
  plan.seed = 0x5EEDULL;

  const auto ref = run_body(mp::TransportKind::kInproc, world,
                            "conf_collectives", false, {}, plan);
  ASSERT_EQ(ref.outcome, launch::LaunchResult::kRankFailed)
      << "inproc reference: " << ref.error;
  ASSERT_EQ(ref.killed_rank, plan.kill_rank);
  ASSERT_NE(ref.error.find("killed by fault plan"), std::string::npos)
      << ref.error;

  const auto got = run_body(kind, world, "conf_collectives", false, {}, plan);
  EXPECT_EQ(got.outcome, launch::LaunchResult::kRankFailed) << got.error;
  EXPECT_EQ(got.killed_rank, plan.kill_rank);
  // The victim died by a real SIGKILL, not by unwinding an exception.
  ASSERT_LT(static_cast<std::size_t>(plan.kill_rank), got.ranks.size());
  EXPECT_TRUE(got.ranks[plan.kill_rank].signaled);
  EXPECT_EQ(got.ranks[plan.kill_rank].term_signal, SIGKILL);
  // Survivors report the exact in-process error text.
  EXPECT_EQ(got.error, ref.error);
}

INSTANTIATE_TEST_SUITE_P(Matrix, TransportKillParity,
                         ::testing::Values(Cell{mp::TransportKind::kShm, 2},
                                           Cell{mp::TransportKind::kShm, 4},
                                           Cell{mp::TransportKind::kTcp, 2},
                                           Cell{mp::TransportKind::kTcp, 4}),
                         cell_name);

// -------------------------------------- dead-peer fast-fail (sat. 3) ---

class TransportDeadPeer : public ::testing::TestWithParam<mp::TransportKind> {};

TEST_P(TransportDeadPeer, RequestWaitOnKilledRankFastFails) {
  mp::FaultPlan plan;
  plan.kill_rank = 1;
  plan.kill_after_ops = 0;
  plan.seed = 0xDEADULL;
  const auto res =
      run_body(GetParam(), 2, "conf_request_dead_peer", false, {}, plan);
  // The world lost a rank, so the run as a whole reports the kill — but
  // rank 0's body must have observed it as a caught RankFailedError from
  // Request::wait, well inside the test timeout.
  EXPECT_EQ(res.outcome, launch::LaunchResult::kRankFailed) << res.error;
  ASSERT_EQ(res.ranks.size(), 2u);
  EXPECT_EQ(res.ranks[0].out, "fastfail");
}

TEST_P(TransportDeadPeer, ArrivalsAndPeerStopNotifications) {
  const auto res = run_body(GetParam(), 2, "conf_arrivals");
  ASSERT_TRUE(res.ok()) << res.error;
  ASSERT_EQ(res.ranks.size(), 2u);
  EXPECT_EQ(res.ranks[0].out, "sum=33 arrivals=3");
}

TEST_P(TransportDeadPeer, RootCauseBeatsTheFailureItSetsOff) {
  // As in one in-process run: the exception that ended rank 1 outranks
  // the RankFailedError rank 0 then throws.
  const auto res = run_body(GetParam(), 2, "conf_root_cause");
  EXPECT_EQ(res.outcome, launch::LaunchResult::kError);
  EXPECT_EQ(res.error, "boom");
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportDeadPeer,
                         ::testing::Values(mp::TransportKind::kInproc,
                                           mp::TransportKind::kShm,
                                           mp::TransportKind::kTcp),
                         kind_name);

// -------------------------------- fuzz over process transports (sat. 2) ---

PDC_SPMD_BODY(conf_buggy_under_drop) {
  // Deliberately wrong whenever the plan drops aggressively: the process
  // fuzzer must catch it, shrink the plan to the one dimension that
  // matters, and emit a repro line carrying the transport= dimension.
  if (ctx.fault_plan().drop > 0.2) {
    io.out = "999";
    return;
  }
  io.out = std::to_string(ctx.allreduce(ctx.rank(), mp::ReduceOp::kSum));
}

class TransportFuzz : public ::testing::TestWithParam<mp::TransportKind> {};

TEST_P(TransportFuzz, CollectivesSurviveSeededFaultPlansWithRealKills) {
  // Seeded drop/dup/reorder/kill plans over forked rank processes: every
  // run must reproduce the in-process fault-free baseline bit-for-bit,
  // or — when the plan SIGKILLs a rank — fail with the clean
  // RankFailedError. A hang is SIGKILLed by the launch timeout and
  // judged as a failure.
  pt::FuzzOptions opt;
  opt.ranks = 3;
  opt.iterations = pt::stress_iters(10);
  opt.base_seed =
      0xFACADEULL + (GetParam() == mp::TransportKind::kShm ? 1 : 2);
  opt.transport = GetParam();
  const auto report = pt::fuzz_spmd_process(opt, "conf_collectives");
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
  EXPECT_EQ(report.iterations_run, opt.iterations);
}

TEST_P(TransportFuzz, RingPipelineSurvivesSeededFaultPlans) {
  pt::FuzzOptions opt;
  opt.ranks = 4;
  opt.iterations = pt::stress_iters(8);
  opt.base_seed = 0x916ULL + (GetParam() == mp::TransportKind::kShm ? 3 : 4);
  opt.transport = GetParam();
  const auto report = pt::fuzz_spmd_process(opt, "conf_p2p_ring");
  EXPECT_TRUE(report.ok) << report.repro() << " failure: " << report.failure;
}

TEST_P(TransportFuzz, CatchesShrinksAndEmitsTransportRepro) {
  pt::FuzzOptions opt;
  opt.ranks = 2;
  opt.iterations = 30;
  opt.base_seed = 0xBADBEEFULL;
  opt.allow_kill = false;  // keep the failure purely answer-mismatch
  opt.transport = GetParam();
  const auto report = pt::fuzz_spmd_process(opt, "conf_buggy_under_drop");
  ASSERT_FALSE(report.ok) << "the fuzzer must find the injected bug";
  EXPECT_GT(report.plan.drop, 0.2) << "shrink must keep the triggering dim";
  EXPECT_EQ(report.plan.dup, 0.0) << "shrink must zero the irrelevant dims";
  EXPECT_FALSE(report.plan.reorder);
  EXPECT_FALSE(report.plan.kills());
  const std::string repro = report.repro();
  EXPECT_NE(repro.find(std::string("transport=") + mp::to_string(GetParam())),
            std::string::npos)
      << repro;
  EXPECT_NE(repro.find("seed="), std::string::npos);
  EXPECT_NE(repro.find("plan=FaultPlan{"), std::string::npos);
}

TEST_P(TransportFuzz, KillReproReplaysDeterministically) {
  // The repro contract over real processes: a plan that SIGKILLs a rank
  // mid-protocol replays 10/10 with the identical outcome, error text,
  // and per-rank digests.
  mp::FaultPlan plan;
  plan.drop = 0.05;
  plan.kill_rank = 1;
  plan.kill_after_ops = 2;
  plan.seed = 0x10ADULL;
  const auto first =
      pt::run_plan_process(3, GetParam(), plan, "conf_collectives");
  EXPECT_EQ(first.outcome, pt::Outcome::kRankFailed) << first.error;
  EXPECT_NE(first.error.find("killed by fault plan"), std::string::npos)
      << first.error;
  for (int i = 0; i < 9; ++i) {
    const auto again =
        pt::run_plan_process(3, GetParam(), plan, "conf_collectives");
    EXPECT_EQ(again.outcome, first.outcome) << "replay " << i;
    EXPECT_EQ(again.error, first.error) << "replay " << i;
    EXPECT_EQ(again.per_rank_out, first.per_rank_out) << "replay " << i;
  }
}

TEST_P(TransportFuzz, ReplaysTheKnownHangSeed) {
  // A hang regression. Under this plan a sender could resend at once, over
  // and over, to a finished peer, whose acks then piled up behind a read
  // loop that never let go; about one tcp world in ten hung. Every replay
  // must match the in-process baseline, judged as fuzz_spmd_process does.
  const auto plan = pt::plan_from_seed(8676773715231084142ULL, 3, true);
  const auto baseline = pt::run_plan_process(3, mp::TransportKind::kInproc,
                                             mp::FaultPlan{},
                                             "conf_collectives");
  ASSERT_EQ(baseline.outcome, pt::Outcome::kOk) << baseline.error;
  const int replays = pt::stress_iters(40);
  for (int i = 0; i < replays; ++i) {
    const auto verdict = pt::judge_process(
        pt::run_plan_process(3, GetParam(), plan, "conf_collectives"), plan,
        baseline);
    ASSERT_TRUE(verdict.empty())
        << "replay " << i << " of " << plan.describe() << ": " << verdict;
  }
}

INSTANTIATE_TEST_SUITE_P(ProcessTransports, TransportFuzz,
                         ::testing::Values(mp::TransportKind::kShm,
                                           mp::TransportKind::kTcp),
                         kind_name);

// ------------------------------------------------- the one-run rule ---

class ProcessCommunicator
    : public ::testing::TestWithParam<mp::TransportKind> {};

TEST_P(ProcessCommunicator, SecondRunThrowsLogicError) {
  // A world of one: this process completes the rendezvous alone.
  mp::TransportOptions topt;
  topt.kind = GetParam();
  topt.world = 1;
  const std::string tag = "pdc_onerun_" + std::to_string(::getpid());
  topt.endpoint = GetParam() == mp::TransportKind::kShm
                      ? "/" + tag
                      : ::testing::TempDir() + tag;
  mp::Communicator comm(topt);
  int runs = 0;
  comm.run([&](mp::RankContext& ctx) {
    ++runs;
    ctx.barrier();
  });
  EXPECT_THROW(comm.run([&](mp::RankContext&) { ++runs; }), std::logic_error);
  EXPECT_EQ(runs, 1);
}

INSTANTIATE_TEST_SUITE_P(ProcessTransports, ProcessCommunicator,
                         ::testing::Values(mp::TransportKind::kShm,
                                           mp::TransportKind::kTcp),
                         kind_name);

// ------------------------------------------------------ wire codec ---

mp::Frame sample_frame(mp::Frame::Type type, std::size_t words) {
  mp::Frame f;
  f.type = type;
  f.src = 3;
  f.dst = -1;
  f.tag = -77;
  f.flags = mp::Frame::kFlagDup;
  f.delay = 2;
  f.seq = 0xFEEDFACECAFEULL + words;
  for (std::size_t i = 0; i < words; ++i)
    f.payload.push_back(static_cast<std::int64_t>(i * i) - 5);
  return f;
}

TEST(Wire, RoundTripsEveryFrameType) {
  std::vector<mp::Frame> sent;
  for (const auto type : {mp::Frame::kData, mp::Frame::kRData,
                          mp::Frame::kAck, mp::Frame::kFin})
    for (const std::size_t words : {0, 1, 9})
      sent.push_back(sample_frame(type, words));
  std::vector<std::uint8_t> buf;
  std::size_t total = 0;
  for (const auto& f : sent) {
    mp::wire::encode_frame(f, buf);
    total += mp::wire::frame_bytes(f);
    ASSERT_EQ(buf.size(), total);
  }
  std::size_t off = 0;
  for (const auto& want : sent) {
    mp::Frame got;
    const auto used =
        mp::wire::decode_frame(buf.data() + off, buf.size() - off, got);
    ASSERT_EQ(used, mp::wire::frame_bytes(want));
    off += used;
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(got.tag, want.tag);
    EXPECT_EQ(got.flags, want.flags);
    EXPECT_EQ(got.delay, want.delay);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.payload, want.payload);
  }
  EXPECT_EQ(off, buf.size());
}

TEST(Wire, PartialBufferDecodesToNothing) {
  std::vector<std::uint8_t> buf;
  mp::wire::encode_frame(sample_frame(mp::Frame::kRData, 4), buf);
  for (std::size_t n = 0; n < buf.size(); ++n) {
    mp::Frame f;
    EXPECT_EQ(mp::wire::decode_frame(buf.data(), n, f), 0u) << n << " bytes";
  }
}

TEST(Wire, MalformedHeadersThrow) {
  std::vector<std::uint8_t> good;
  mp::wire::encode_frame(sample_frame(mp::Frame::kData, 2), good);
  auto decode_with = [&](std::size_t at, std::uint32_t v) {
    auto buf = good;
    std::memcpy(buf.data() + at, &v, sizeof v);
    mp::Frame f;
    return mp::wire::decode_frame(buf.data(), buf.size(), f);
  };
  EXPECT_THROW(decode_with(0, 40), std::runtime_error);  // below the header
  EXPECT_THROW(decode_with(0, 52), std::runtime_error);  // not whole words
  EXPECT_THROW(decode_with(4, 0), std::runtime_error);   // no such type
  EXPECT_THROW(decode_with(4, 5), std::runtime_error);
  EXPECT_THROW(decode_with(40, 3), std::runtime_error);  // 3 words in 2's room
  EXPECT_EQ(decode_with(40, 2), good.size());
}

TEST(Wire, AppendingFramesGrowsTheBufferGeometrically) {
  // Senders append every frame to one buffer per peer; growing it to the
  // exact size each time would make every append copy the whole buffer.
  std::vector<std::uint8_t> buf;
  const auto ack = sample_frame(mp::Frame::kAck, 0);
  int reallocations = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto cap = buf.capacity();
    mp::wire::encode_frame(ack, buf);
    if (buf.capacity() != cap) ++reallocations;
  }
  EXPECT_EQ(buf.size(), 10000 * mp::wire::kFrameHeaderBytes);
  EXPECT_LE(reallocations, 64);
}

}  // namespace
