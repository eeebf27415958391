// Tests for pdc::mp — point-to-point semantics (tags, wildcards, ordering),
// nonblocking receives, and every collective checked against a sequential
// oracle across communicator sizes and algorithms.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "pdc/core/team_pool.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/obs/obs.hpp"

namespace mp = pdc::mp;

// --------------------------------------------------------- point to point ---

TEST(P2P, PingPong) {
  mp::Communicator comm(2);
  std::atomic<std::int64_t> got{0};
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value(1, 7, 123);
      got = ctx.recv_value(1, 8);
    } else {
      const auto v = ctx.recv_value(0, 7);
      ctx.send_value(0, 8, v + 1);
    }
  });
  EXPECT_EQ(got.load(), 124);
  EXPECT_EQ(comm.traffic().messages, 2u);
  EXPECT_EQ(comm.traffic().payload_words, 2u);
}

TEST(P2P, TagsSelectMessages) {
  mp::Communicator comm(2);
  std::atomic<std::int64_t> first{0};
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value(1, 10, 100);  // arrives first
      ctx.send_value(1, 20, 200);
    } else {
      // Receive tag 20 FIRST even though tag 10 arrived first.
      first = ctx.recv_value(0, 20);
      EXPECT_EQ(ctx.recv_value(0, 10), 100);
    }
  });
  EXPECT_EQ(first.load(), 200);
}

TEST(P2P, SameSourceSameTagIsFifo) {
  mp::Communicator comm(2);
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() == 0) {
      for (std::int64_t i = 0; i < 50; ++i) ctx.send_value(1, 0, i);
    } else {
      for (std::int64_t i = 0; i < 50; ++i)
        EXPECT_EQ(ctx.recv_value(0, 0), i);  // MPI ordering guarantee
    }
  });
}

TEST(P2P, WildcardsMatchAnything) {
  mp::Communicator comm(3);
  std::mutex m;
  std::vector<std::int64_t> got;
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        const auto msg = ctx.recv(mp::kAnySource, mp::kAnyTag);
        std::lock_guard lk(m);
        got.push_back(msg.data.at(0));
      }
    } else {
      ctx.send_value(0, ctx.rank(), ctx.rank() * 10);
    }
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0] + got[1], 30);  // 10 + 20 in some order
}

TEST(P2P, VectorPayload) {
  mp::Communicator comm(2);
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 0, {1, 2, 3, 4, 5});
    } else {
      const auto msg = ctx.recv(0, 0);
      EXPECT_EQ(msg.data, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
      EXPECT_EQ(msg.source, 0);
      EXPECT_EQ(msg.tag, 0);
    }
  });
}

TEST(P2P, NegativeUserTagRejected) {
  mp::Communicator comm(2);
  EXPECT_THROW(comm.run([&](mp::RankContext& ctx) {
                 if (ctx.rank() == 0) ctx.send_value(1, -5, 1);
                 // rank 1 sends to itself so it terminates either way
                 if (ctx.rank() == 1) return;
               }),
               std::invalid_argument);
}

TEST(P2P, ProbeAndIrecv) {
  mp::Communicator comm(2);
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_FALSE(ctx.probe(1, 5));
      auto req = ctx.irecv(1, 5);
      ctx.send_value(1, 9, 0);  // tell peer to go
      const auto msg = req.wait();
      EXPECT_EQ(msg.data.at(0), 77);
      EXPECT_TRUE(ctx.probe(1, 6));  // arrived first, still queued
      EXPECT_EQ(ctx.recv_value(1, 6), 88);
    } else {
      (void)ctx.recv(0, 9);
      // Tag 6 goes first, so it is queued before tag 5 is even sent. Sent
      // second, rank 0 could probe for it between the two sends.
      ctx.send_value(0, 6, 88);
      ctx.send_value(0, 5, 77);
    }
  });
}

// ------------------------------------------------------------ collectives ---

class CollectiveSweep
    : public ::testing::TestWithParam<std::tuple<int, mp::CollectiveAlgo>> {};

TEST_P(CollectiveSweep, BroadcastDeliversRootValue) {
  const auto [p, algo] = GetParam();
  mp::Communicator comm(p);
  std::vector<std::int64_t> results(static_cast<std::size_t>(p), -1);
  const int root = p / 2;
  comm.run([&](mp::RankContext& ctx) {
    const std::int64_t mine = ctx.rank() == root ? 4242 : 0;
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.broadcast_value(root, mine, algo);
  });
  for (auto v : results) EXPECT_EQ(v, 4242);
}

TEST_P(CollectiveSweep, ReduceSumMatchesOracle) {
  const auto [p, algo] = GetParam();
  mp::Communicator comm(p);
  std::vector<std::int64_t> results(static_cast<std::size_t>(p), -1);
  comm.run([&](mp::RankContext& ctx) {
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.reduce(0, (ctx.rank() + 1) * 10, mp::ReduceOp::kSum, algo);
  });
  // Oracle: sum of (r+1)*10.
  std::int64_t expect = 0;
  for (int r = 0; r < p; ++r) expect += (r + 1) * 10;
  EXPECT_EQ(results[0], expect);
}

TEST_P(CollectiveSweep, ReduceMaxAndMin) {
  const auto [p, algo] = GetParam();
  mp::Communicator comm(p);
  std::vector<std::int64_t> maxs(static_cast<std::size_t>(p), -1);
  std::vector<std::int64_t> mins(static_cast<std::size_t>(p), -1);
  comm.run([&](mp::RankContext& ctx) {
    const std::int64_t v = (ctx.rank() * 37) % 11;
    maxs[static_cast<std::size_t>(ctx.rank())] =
        ctx.reduce(0, v, mp::ReduceOp::kMax, algo);
    mins[static_cast<std::size_t>(ctx.rank())] =
        ctx.reduce(0, v, mp::ReduceOp::kMin, algo);
  });
  std::int64_t emax = std::numeric_limits<std::int64_t>::min();
  std::int64_t emin = std::numeric_limits<std::int64_t>::max();
  for (int r = 0; r < p; ++r) {
    emax = std::max<std::int64_t>(emax, (r * 37) % 11);
    emin = std::min<std::int64_t>(emin, (r * 37) % 11);
  }
  EXPECT_EQ(maxs[0], emax);
  EXPECT_EQ(mins[0], emin);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlgos, CollectiveSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8),
                       ::testing::Values(mp::CollectiveAlgo::kFlat,
                                         mp::CollectiveAlgo::kTree)));

class CommSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(CommSizeSweep, AllreduceGivesEveryoneTheSum) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::vector<std::int64_t> results(static_cast<std::size_t>(p), -1);
  comm.run([&](mp::RankContext& ctx) {
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.allreduce(ctx.rank() + 1, mp::ReduceOp::kSum);
  });
  const std::int64_t expect = static_cast<std::int64_t>(p) * (p + 1) / 2;
  for (auto v : results) EXPECT_EQ(v, expect);
}

TEST_P(CommSizeSweep, GatherCollectsInRankOrder) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::vector<std::int64_t> at_root;
  comm.run([&](mp::RankContext& ctx) {
    auto r = ctx.gather(0, ctx.rank() * ctx.rank());
    if (ctx.rank() == 0) at_root = std::move(r);
  });
  ASSERT_EQ(at_root.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(at_root[static_cast<std::size_t>(r)], r * r);
}

TEST_P(CommSizeSweep, ScatterDistributes) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::vector<std::int64_t> results(static_cast<std::size_t>(p), -1);
  comm.run([&](mp::RankContext& ctx) {
    std::vector<std::int64_t> values;
    if (ctx.rank() == 0)
      for (int r = 0; r < p; ++r) values.push_back(100 + r);
    results[static_cast<std::size_t>(ctx.rank())] = ctx.scatter(0, values);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(results[static_cast<std::size_t>(r)], 100 + r);
}

TEST_P(CommSizeSweep, AllgatherEveryoneSeesAll) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::vector<std::vector<std::int64_t>> results(
      static_cast<std::size_t>(p));
  comm.run([&](mp::RankContext& ctx) {
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.allgather(ctx.rank() * 3);
  });
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(results[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s)
      EXPECT_EQ(results[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(s)],
                s * 3);
  }
}

TEST_P(CommSizeSweep, ExscanIsExclusivePrefix) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::vector<std::int64_t> results(static_cast<std::size_t>(p), -1);
  comm.run([&](mp::RankContext& ctx) {
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.exscan(ctx.rank() + 1, mp::ReduceOp::kSum);
  });
  std::int64_t prefix = 0;
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], prefix) << "rank " << r;
    prefix += r + 1;
  }
}

TEST_P(CommSizeSweep, BarrierSeparatesPhases) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::atomic<int> before{0};
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    before.fetch_add(1);
    ctx.barrier();
    if (before.load() != p) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
  // An empty token up the reduce tree and an empty release down the
  // broadcast tree: P - 1 messages each way, no payload.
  EXPECT_EQ(comm.traffic().messages, 2u * static_cast<std::uint64_t>(p - 1));
  EXPECT_EQ(comm.traffic().payload_words, 0u);
}

TEST_P(CommSizeSweep, ConsecutiveCollectivesDoNotCrosstalk) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::vector<std::int64_t> sums(static_cast<std::size_t>(p));
  comm.run([&](mp::RankContext& ctx) {
    std::int64_t acc = 0;
    for (int round = 0; round < 10; ++round)
      acc += ctx.allreduce(round, mp::ReduceOp::kSum);
    sums[static_cast<std::size_t>(ctx.rank())] = acc;
  });
  // Each round's allreduce = round * p; total = p * 45.
  for (auto s : sums) EXPECT_EQ(s, static_cast<std::int64_t>(p) * 45);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

// --------------------------------------------------------------- traffic ---

TEST(Traffic, TreeAndFlatBroadcastMoveSameMessages) {
  // Both algorithms move exactly P-1 messages; the difference is the
  // critical path (rounds), which the bench reports analytically.
  for (int p : {4, 8, 16}) {
    for (auto algo : {mp::CollectiveAlgo::kFlat, mp::CollectiveAlgo::kTree}) {
      mp::Communicator comm(p);
      comm.run([&](mp::RankContext& ctx) {
        (void)ctx.broadcast_value(0, 5, algo);
      });
      EXPECT_EQ(comm.traffic().messages, static_cast<std::uint64_t>(p - 1))
          << "p=" << p;
    }
  }
}

TEST(Traffic, ResetClears) {
  mp::Communicator comm(2);
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_value(1, 0, 1);
    if (ctx.rank() == 1) (void)ctx.recv(0, 0);
  });
  EXPECT_GT(comm.traffic().messages, 0u);
  comm.reset_traffic();
  EXPECT_EQ(comm.traffic().messages, 0u);
}

TEST(Communicator, RejectsBadSize) {
  EXPECT_THROW(mp::Communicator(0), std::invalid_argument);
}

TEST(Communicator, PropagatesRankException) {
  mp::Communicator comm(2);
  EXPECT_THROW(comm.run([](mp::RankContext& ctx) {
                 if (ctx.rank() == 1) throw std::runtime_error("rank died");
               }),
               std::runtime_error);
}

// An in-process world is one pooled core::Team region: the caller runs
// rank 0, each other rank runs on a parked pool worker, and once the
// first world has started the workers it needs, later worlds start none.
TEST(Communicator, InProcessRanksRunAsOnePooledRegion) {
  mp::Communicator comm(4);
  std::vector<std::thread::id> rank_thread(4);
  const auto world = [&] {
    comm.run([&](mp::RankContext& ctx) {
      rank_thread[static_cast<std::size_t>(ctx.rank())] =
          std::this_thread::get_id();
      EXPECT_EQ(ctx.allreduce(1, mp::ReduceOp::kSum), 4);
    });
  };
  world();
  EXPECT_EQ(rank_thread[0], std::this_thread::get_id());
  EXPECT_EQ(std::set<std::thread::id>(rank_thread.begin(), rank_thread.end())
                .size(),
            4u);

  const auto& pool = pdc::core::TeamPool::instance();
  const pdc::obs::Counter& forked = pdc::obs::counter("core.regions.forked");
  const std::size_t workers = pool.workers_started();
  const std::uint64_t forked_before = forked.value();
  for (int i = 0; i < 50; ++i) world();
  EXPECT_EQ(pool.workers_started(), workers);
  EXPECT_EQ(forked.value(), forked_before);
}

// ------------------------------------------------- alltoall / sendrecv ---

TEST_P(CommSizeSweep, AlltoallDeliversPersonalizedMessages) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    // Rank r sends {r*100 + d} to rank d.
    std::vector<std::vector<std::int64_t>> out(
        static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      out[static_cast<std::size_t>(d)] = {ctx.rank() * 100 + d};
    const auto in = ctx.alltoall(std::move(out));
    for (int s = 0; s < p; ++s) {
      const auto& got = in[static_cast<std::size_t>(s)];
      if (got.size() != 1 || got[0] != s * 100 + ctx.rank())
        violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST_P(CommSizeSweep, AlltoallWithVariableSizes) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    // Rank r sends d copies of r to rank d.
    std::vector<std::vector<std::int64_t>> out(
        static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      out[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d),
                                              ctx.rank());
    const auto in = ctx.alltoall(std::move(out));
    for (int s = 0; s < p; ++s) {
      const auto& got = in[static_cast<std::size_t>(s)];
      if (got.size() != static_cast<std::size_t>(ctx.rank()))
        violations.fetch_add(1);
      for (auto v : got)
        if (v != s) violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(P2P, AlltoallRejectsWrongBufferCount) {
  mp::Communicator comm(2);
  EXPECT_THROW(comm.run([](mp::RankContext& ctx) {
                 std::vector<std::vector<std::int64_t>> out(1);
                 (void)ctx.alltoall(std::move(out));
               }),
               std::invalid_argument);
}

TEST(P2P, SendrecvRingShiftIsDeadlockFree) {
  const int p = 5;
  mp::Communicator comm(p);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    const int next = (ctx.rank() + 1) % p;
    const int prev = (ctx.rank() - 1 + p) % p;
    // Everyone sends right and receives from the left simultaneously —
    // with naive blocking sends this pattern deadlocks; sendrecv cannot.
    const auto got = ctx.sendrecv(next, {ctx.rank() * 7}, prev);
    if (got.size() != 1 || got[0] != prev * 7) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
}

// -------------------------------------------------------------------- dht ---

#include "pdc/mp/dht.hpp"

TEST_P(CommSizeSweep, DhtPutThenGetRoundTrips) {
  const int p = GetParam();
  mp::Communicator comm(p);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::BspHashMap dht(ctx);
    // Every rank stores 20 keys in its own stripe.
    for (int i = 0; i < 20; ++i)
      dht.queue_put(ctx.rank() * 1000 + i, ctx.rank() * 10 + i);
    (void)dht.round();
    // Every rank reads a *different* rank's stripe.
    const int peer = (ctx.rank() + 1) % p;
    for (int i = 0; i < 20; ++i) dht.queue_get(peer * 1000 + i);
    const auto results = dht.round();
    for (int i = 0; i < 20; ++i) {
      if (!results[static_cast<std::size_t>(i)].found ||
          results[static_cast<std::size_t>(i)].value != peer * 10 + i)
        violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(Dht, MissingKeysReportNotFound) {
  mp::Communicator comm(3);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::BspHashMap dht(ctx);
    if (ctx.rank() == 0) dht.queue_put(42, 99);
    (void)dht.round();
    dht.queue_get(42);
    dht.queue_get(43);  // never stored
    const auto r = dht.round();
    if (!r[0].found || r[0].value != 99) violations.fetch_add(1);
    if (r[1].found) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(Dht, LaterPutOverwrites) {
  mp::Communicator comm(2);
  std::atomic<std::int64_t> seen{-1};
  comm.run([&](mp::RankContext& ctx) {
    mp::BspHashMap dht(ctx);
    if (ctx.rank() == 0) dht.queue_put(7, 100);
    (void)dht.round();
    if (ctx.rank() == 1) dht.queue_put(7, 200);  // second round overwrites
    (void)dht.round();
    dht.queue_get(7);
    const auto r = dht.round();
    if (ctx.rank() == 0) seen = r[0].value;
  });
  EXPECT_EQ(seen.load(), 200);
}

TEST(Dht, ShardingDistributesKeys) {
  mp::Communicator comm(4);
  std::atomic<std::size_t> total{0};
  std::atomic<std::size_t> max_shard{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::BspHashMap dht(ctx);
    if (ctx.rank() == 0)
      for (int i = 0; i < 400; ++i) dht.queue_put(i, i);
    (void)dht.round();
    total.fetch_add(dht.local_size());
    std::size_t prev = max_shard.load();
    while (dht.local_size() > prev &&
           !max_shard.compare_exchange_weak(prev, dht.local_size())) {
    }
  });
  EXPECT_EQ(total.load(), 400u);
  // No shard should hold more than half of a 4-way hash partition.
  EXPECT_LT(max_shard.load(), 200u);
}

// Stress: many ranks exchanging randomized tagged messages with
// wildcards; per-(source,tag) FIFO order must survive the chaos.
TEST(P2P, RandomizedTaggedTrafficKeepsPerFlowOrder) {
  constexpr int kRanks = 6;
  constexpr int kMsgsPerFlow = 40;
  mp::Communicator comm(kRanks);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    // Every rank sends kMsgsPerFlow messages to every other rank on two
    // tags, with sequence numbers embedded.
    for (int seq = 0; seq < kMsgsPerFlow; ++seq) {
      for (int d = 0; d < kRanks; ++d) {
        if (d == ctx.rank()) continue;
        for (int tag : {1, 2})
          ctx.send(d, tag, {ctx.rank() * 1000000 + tag * 1000 + seq});
      }
    }
    // Receive everything with wildcards, tracking per-flow sequence.
    int expected[kRanks][3] = {};
    const int total = (kRanks - 1) * kMsgsPerFlow * 2;
    for (int i = 0; i < total; ++i) {
      const auto m = ctx.recv(mp::kAnySource, mp::kAnyTag);
      const auto v = m.data.at(0);
      const int src = static_cast<int>(v / 1000000);
      const int tag = static_cast<int>((v / 1000) % 1000);
      const int seq = static_cast<int>(v % 1000);
      if (src != m.source || tag != m.tag) violations.fetch_add(1);
      if (seq != expected[src][tag]++) violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
}
