// Tests for the fault-injecting comm layer: deterministic fault
// decisions, the reliable channel's retry/dedup/reorder healing, rank
// kill -> clean RankFailedError, dead-rank detection on blocked receives,
// Request lifetime safety, the reliable DHT, and the deterministic-repro
// guarantee the stress harness depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>

#include "fuzzer.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/mp/dht.hpp"
#include "pdc/mp/fault.hpp"

namespace mp = pdc::mp;
namespace pt = pdc::testing;

// ----------------------------------------------------------- fault plan ---

TEST(FaultPlan, DecisionsAreDeterministic) {
  // Same (seed, flow, attempt) -> same hash; different seeds diverge.
  const auto h1 = mp::detail::fault_hash(42, mp::detail::kSaltDrop, 1, 2, 3);
  const auto h2 = mp::detail::fault_hash(42, mp::detail::kSaltDrop, 1, 2, 3);
  const auto h3 = mp::detail::fault_hash(43, mp::detail::kSaltDrop, 1, 2, 3);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_FALSE(mp::detail::chance(0.0, h1));
  EXPECT_TRUE(mp::detail::chance(1.0, h1));
}

TEST(FaultPlan, DescribeIsStable) {
  mp::FaultPlan p;
  p.drop = 0.1;
  p.dup = 0.05;
  p.reorder = true;
  p.kill_rank = 2;
  p.kill_after_ops = 7;
  p.seed = 99;
  const auto s = p.describe();
  EXPECT_EQ(s, p.describe());
  EXPECT_NE(s.find("drop=0.100"), std::string::npos);
  EXPECT_NE(s.find("kill=2@7"), std::string::npos);
  EXPECT_NE(s.find("seed=99"), std::string::npos);
}

TEST(FaultPlan, FromSeedIsPure) {
  const auto a = pt::plan_from_seed(123, 8, true);
  const auto b = pt::plan_from_seed(123, 8, true);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_FALSE(pt::plan_from_seed(123, 8, false).kills());
}

// ----------------------------------------------------- reliable channel ---

TEST(Reliable, ExactWithoutFaults) {
  // The reliable channel on a clean network is just a slower plain
  // channel: same answers, acks counted, nothing retried or dropped.
  mp::Communicator comm(4);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    ctx.set_reliable(true);
    if (ctx.allreduce(ctx.rank() + 1, mp::ReduceOp::kSum) != 10)
      violations.fetch_add(1);
    const auto all = ctx.allgather(ctx.rank() * 5);
    for (int s = 0; s < 4; ++s)
      if (all[static_cast<std::size_t>(s)] != s * 5) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
  const auto t = comm.traffic();
  EXPECT_GT(t.acks, 0u);
  EXPECT_EQ(t.retries, 0u);
  EXPECT_EQ(t.dropped, 0u);
  EXPECT_EQ(t.duplicates, 0u);
}

TEST(Reliable, WildcardRecvIsRejectedWithDiagnostic) {
  // A blocking recv(kAnySource) on the reliable channel cannot name the
  // sender it depends on: if that sender dies after all its messages were
  // dropped, the wait is an undetectable hang. The channel refuses it up
  // front; probe(source, tag) polling is the supported alternative.
  mp::Communicator comm(2);
  std::atomic<int> rejected{0};
  comm.run([&](mp::RankContext& ctx) {
    ctx.set_reliable(true);
    if (ctx.rank() == 0) {
      ctx.send_value(1, 0, 42);
      ctx.set_reliable(false);
      ctx.send(1, 3, {7});
    } else {
      try {
        (void)ctx.recv(mp::kAnySource, 0);
      } catch (const std::logic_error& e) {
        if (std::string(e.what()).find("kAnySource") != std::string::npos)
          rejected.fetch_add(1);
      }
      // Naming the source works fine on the reliable channel...
      if (ctx.recv_value(0, 0) != 42) rejected.fetch_add(100);
      // ...and plain mode keeps full wildcard support.
      ctx.set_reliable(false);
      if (ctx.recv(mp::kAnySource, mp::kAnyTag).data.at(0) != 7)
        rejected.fetch_add(100);
    }
  });
  EXPECT_EQ(rejected.load(), 1);
}

TEST(Reliable, DropsAreRetriedToDelivery) {
  mp::FaultPlan plan;
  plan.drop = 0.3;
  plan.seed = 7;
  mp::Communicator comm(2, plan);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    ctx.set_reliable(true);
    if (ctx.rank() == 0) {
      for (std::int64_t i = 0; i < 50; ++i) ctx.send_value(1, 0, i);
    } else {
      for (std::int64_t i = 0; i < 50; ++i)
        if (ctx.recv_value(0, 0) != i) violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
  const auto t = comm.traffic();
  EXPECT_GT(t.dropped, 0u) << "a 30% loss plan over 50 sends must drop some";
  EXPECT_GT(t.retries, 0u);
  EXPECT_EQ(t.messages, 50u) << "each payload enqueued exactly once";
}

TEST(Reliable, DuplicatesAreSuppressed) {
  mp::FaultPlan plan;
  plan.dup = 1.0;  // every delivery arrives twice
  plan.seed = 11;
  mp::Communicator comm(2, plan);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    ctx.set_reliable(true);
    if (ctx.rank() == 0) {
      for (std::int64_t i = 0; i < 30; ++i) ctx.send_value(1, 0, i);
      ctx.send_value(1, 9, -1);  // end marker
    } else {
      for (std::int64_t i = 0; i < 30; ++i)
        if (ctx.recv_value(0, 0) != i) violations.fetch_add(1);
      (void)ctx.recv_value(0, 9);
      // Nothing may remain: every duplicate was suppressed.
      if (ctx.probe(mp::kAnySource, mp::kAnyTag)) violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GE(comm.traffic().duplicates, 30u);
}

TEST(Reliable, ReorderIsHealedByStopAndWait) {
  mp::FaultPlan plan;
  plan.reorder = true;
  plan.delay_prob = 1.0;  // hold every delivery back
  plan.max_delay = 3;
  plan.seed = 13;
  mp::Communicator comm(2, plan);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    ctx.set_reliable(true);
    if (ctx.rank() == 0) {
      for (std::int64_t i = 0; i < 25; ++i) ctx.send_value(1, 0, i);
    } else {
      for (std::int64_t i = 0; i < 25; ++i)
        if (ctx.recv_value(0, 0) != i) violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0) << "per-flow FIFO must survive reordering";
  EXPECT_GT(comm.traffic().delayed, 0u);
}

TEST(Reliable, CollectivesMatchOracleUnderLoss) {
  mp::FaultPlan plan;
  plan.drop = 0.2;
  plan.dup = 0.1;
  plan.reorder = true;
  plan.seed = 17;
  for (auto algo : {mp::CollectiveAlgo::kFlat, mp::CollectiveAlgo::kTree}) {
    mp::Communicator comm(5, plan);
    std::atomic<int> violations{0};
    comm.run([&](mp::RankContext& ctx) {
      ctx.set_reliable(true);
      if (ctx.broadcast_value(2, ctx.rank() == 2 ? 777 : 0, algo) != 777)
        violations.fetch_add(1);
      const auto sum =
          ctx.reduce(0, (ctx.rank() + 1) * 10, mp::ReduceOp::kSum, algo);
      if (ctx.rank() == 0 && sum != 150) violations.fetch_add(1);
      if (ctx.allreduce(ctx.rank(), mp::ReduceOp::kMax) != 4)
        violations.fetch_add(1);
    });
    EXPECT_EQ(violations.load(), 0);
  }
}

TEST(Reliable, SendToFinishedPeerBacksOff) {
  // A finished peer still acks through its lingering mailbox, so a send
  // to it waits out each backoff step as it would for a running peer.
  // Every frame is dropped here, so no ack ever comes: the send gives up
  // after the 5 s budget, having retried about once a step (200 us
  // doubling to 5 ms: about 1000 times), not in a tight loop.
  mp::FaultPlan plan;
  plan.drop = 1.0;
  plan.seed = 21;
  mp::Communicator comm(2, plan);
  try {
    comm.run([&](mp::RankContext& ctx) {
      ctx.set_reliable(true);
      if (ctx.rank() == 0) ctx.send_value(1, 0, 42);
    });
    FAIL() << "a send that is never acked must fail";
  } catch (const mp::RankFailedError& e) {
    EXPECT_NE(std::string(e.what()).find("no ack within retry budget"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LE(comm.traffic().retries, 1100u);
}

// ------------------------------------------------------------ rank kill ---

TEST(RankKill, SurfacesAsRankFailedError) {
  mp::FaultPlan plan;
  plan.kill_rank = 1;
  plan.kill_after_ops = 2;
  plan.seed = 5;
  mp::Communicator comm(4, plan);
  try {
    comm.run([&](mp::RankContext& ctx) {
      ctx.set_reliable(true);
      for (int i = 0; i < 5; ++i)
        (void)ctx.allreduce(ctx.rank() + i, mp::ReduceOp::kSum);
    });
    FAIL() << "a killed rank must fail the job";
  } catch (const mp::RankFailedError& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_NE(std::string(e.what()).find("kill=1@2"), std::string::npos)
        << "the error must carry the reproducing plan";
  }
}

TEST(RankKill, ErrorIsDeterministicAcrossReruns) {
  // The satellite guarantee: a failing (seed, plan) pair re-runs to the
  // identical failure 10/10 times.
  mp::FaultPlan plan;
  plan.kill_rank = 1;
  plan.kill_after_ops = 3;
  plan.drop = 0.1;
  plan.seed = 42;
  auto body = [](mp::RankContext& ctx) -> std::vector<std::int64_t> {
    std::vector<std::int64_t> d;
    for (int i = 0; i < 6; ++i)
      d.push_back(ctx.allreduce(ctx.rank() + i, mp::ReduceOp::kSum));
    return d;
  };
  std::optional<std::string> first;
  for (int i = 0; i < 10; ++i) {
    const auto r = pt::run_plan(3, plan, body);
    ASSERT_EQ(r.outcome, pt::Outcome::kRankFailed) << "rerun " << i;
    if (!first) first = r.error;
    EXPECT_EQ(r.error, *first) << "rerun " << i;
  }
}

TEST(RankKill, SingleRankJobAlsoFails) {
  mp::FaultPlan plan;
  plan.kill_rank = 0;
  plan.kill_after_ops = 0;
  mp::Communicator comm(2, plan);
  EXPECT_THROW(comm.run([&](mp::RankContext& ctx) {
                 ctx.set_reliable(true);
                 (void)ctx.allreduce(1, mp::ReduceOp::kSum);
               }),
               mp::RankFailedError);
}

// ------------------------------------------------- dead-rank detection ---

TEST(DeadRank, BlockedRecvFailsFastInsteadOfHanging) {
  // Rank 1 dies with a logic error before sending; rank 0's recv must
  // unblock (RankFailedError internally) and run() must rethrow the
  // root cause, not the secondary failure.
  mp::Communicator comm(2);
  try {
    comm.run([&](mp::RankContext& ctx) {
      if (ctx.rank() == 1) throw std::runtime_error("boom");
      (void)ctx.recv(1, 0);  // would hang forever on the seed comm layer
    });
    FAIL() << "expected the root-cause exception";
  } catch (const mp::RankFailedError&) {
    FAIL() << "root cause (runtime_error) must beat the cascade";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(DeadRank, AnySourceRecvFailsWhenAllPeersExit) {
  mp::Communicator comm(3);
  std::atomic<int> failures{0};
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() != 0) return;  // peers exit immediately, sending nothing
    try {
      (void)ctx.recv(mp::kAnySource, 7);
    } catch (const mp::RankFailedError&) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 1);
}

TEST(DeadRank, FlatReduceFailsWhenAContributorDiesWhileAnotherWaits) {
  // Rank 2 dies before contributing, while rank 1 contributes and then
  // waits on the root. The root receives per source, so it finds rank 2
  // dead at once; an any-source wait would stay open for as long as
  // rank 1 runs, and rank 1 waits for the root: a hang.
  mp::Communicator comm(3);
  try {
    comm.run([&](mp::RankContext& ctx) {
      const int r = ctx.rank();
      if (r == 2) throw std::runtime_error("rank 2 died");
      const std::int64_t sum =
          ctx.reduce(0, r + 1, mp::ReduceOp::kSum, mp::CollectiveAlgo::kFlat);
      if (r == 0)
        ctx.send_value(1, 7, sum);
      else
        (void)ctx.recv_value(0, 7);
    });
    FAIL() << "expected rank 2's exception";
  } catch (const mp::RankFailedError&) {
    FAIL() << "root cause (runtime_error) must beat the cascade";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 died");
  }
}

TEST(DeadRank, RecvOutOfRangeSourceRejected) {
  mp::Communicator comm(2);
  EXPECT_THROW(comm.run([&](mp::RankContext& ctx) {
                 if (ctx.rank() == 0) (void)ctx.recv(99, 0);
               }),
               std::out_of_range);
}

// ------------------------------------------------------ request lifetime ---

TEST(RequestLifetime, OutlivingCommunicatorThrowsInsteadOfUAF) {
  std::optional<mp::Request> leaked;
  {
    auto comm = std::make_unique<mp::Communicator>(2);
    comm->run([&](mp::RankContext& ctx) {
      if (ctx.rank() == 0) leaked.emplace(ctx.irecv(1, 5));
    });
    ASSERT_TRUE(leaked.has_value());
    EXPECT_FALSE(leaked->test());  // communicator alive: works normally
  }
  // Communicator destroyed; the leaked request must fail loudly.
  EXPECT_THROW((void)leaked->test(), std::runtime_error);
  EXPECT_THROW((void)leaked->wait(), std::runtime_error);
}

TEST(RequestLifetime, MatchedRequestStillWorksAfterRun) {
  std::optional<mp::Request> leaked;
  mp::Communicator comm(2);
  comm.run([&](mp::RankContext& ctx) {
    if (ctx.rank() == 0) leaked.emplace(ctx.irecv(1, 5));
    if (ctx.rank() == 1) ctx.send_value(0, 5, 31337);
  });
  ASSERT_TRUE(leaked.has_value());
  EXPECT_TRUE(leaked->test());
  EXPECT_EQ(leaked->wait().data.at(0), 31337);
}

// ------------------------------------------------------------------ dht ---

TEST(ReliableDht, RoundTripsUnderLoss) {
  mp::FaultPlan plan;
  plan.drop = 0.2;
  plan.dup = 0.1;
  plan.reorder = true;
  plan.seed = 23;
  mp::Communicator comm(4, plan);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::BspHashMap dht(ctx, {true});
    const int r = ctx.rank();
    for (int i = 0; i < 20; ++i) dht.queue_put(r * 1000 + i, r * 10 + i);
    (void)dht.round();
    const int peer = (r + 1) % 4;
    for (int i = 0; i < 20; ++i) dht.queue_get(peer * 1000 + i);
    const auto results = dht.round();
    for (int i = 0; i < 20; ++i) {
      const auto& g = results[static_cast<std::size_t>(i)];
      if (!g.found || g.value != peer * 10 + i) violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(comm.traffic().retries, 0u);
}

TEST(ReliableDht, KillFailsTheRoundCleanly) {
  mp::FaultPlan plan;
  plan.kill_rank = 2;
  plan.kill_after_ops = 1;
  plan.seed = 29;
  mp::Communicator comm(4, plan);
  EXPECT_THROW(comm.run([&](mp::RankContext& ctx) {
                 mp::BspHashMap dht(ctx, {true});
                 dht.queue_put(ctx.rank(), ctx.rank());
                 (void)dht.round();
                 dht.queue_get(ctx.rank());
                 (void)dht.round();
               }),
               mp::RankFailedError);
}

// --------------------------------------------------------------- traffic ---

TEST(Traffic, ReliabilityCountersStayZeroOnPlainChannel) {
  mp::Communicator comm(4);
  comm.run([&](mp::RankContext& ctx) {
    (void)ctx.allreduce(ctx.rank(), mp::ReduceOp::kSum);
  });
  const auto t = comm.traffic();
  EXPECT_EQ(t.acks, 0u);
  EXPECT_EQ(t.retries, 0u);
  EXPECT_EQ(t.dropped, 0u);
  EXPECT_EQ(t.duplicates, 0u);
  EXPECT_EQ(t.delayed, 0u);
}

TEST(Traffic, ResetClearsReliabilityCounters) {
  mp::FaultPlan plan;
  plan.drop = 0.3;
  plan.seed = 31;
  mp::Communicator comm(2, plan);
  comm.run([&](mp::RankContext& ctx) {
    ctx.set_reliable(true);
    if (ctx.rank() == 0) ctx.send_value(1, 0, 1);
    if (ctx.rank() == 1) (void)ctx.recv(0, 0);
  });
  comm.reset_traffic();
  const auto t = comm.traffic();
  EXPECT_EQ(t.messages, 0u);
  EXPECT_EQ(t.acks, 0u);
  EXPECT_EQ(t.dropped, 0u);
}
