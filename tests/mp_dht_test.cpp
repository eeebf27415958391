// Tests for DHT shard placement, the shard both drivers serve through,
// and the pipelined async client: the identity-hash skew regression,
// the shard's exactly-once check, Zipf workload generation, client
// semantics (batch coalescing, windows/backpressure/shedding, fences,
// shutdown), op-for-op equivalence against the BSP baseline, and fault
// recovery on the reliable channel.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "pdc/mp/client.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/mp/dht.hpp"
#include "pdc/mp/workload.hpp"
#include "pdc/obs/obs.hpp"

namespace mp = pdc::mp;

// --------------------------------------------------------- placement ---

namespace {

/// Shard loads for one key stream under an owner function.
std::vector<std::size_t> occupancy(const std::vector<std::int64_t>& keys,
                                   int p,
                                   const std::function<int(std::int64_t)>& own) {
  std::vector<std::size_t> load(static_cast<std::size_t>(p), 0);
  for (const auto k : keys) ++load[static_cast<std::size_t>(own(k))];
  return load;
}

double max_min_ratio(const std::vector<std::size_t>& load) {
  const auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  if (*mn == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(*mx) / static_cast<double>(*mn);
}

/// The pre-fix owner(): std::hash<int64_t> is the identity function on
/// libstdc++, so this is key % P.
int identity_owner(std::int64_t key, int p) {
  return static_cast<int>(std::hash<std::int64_t>{}(key) %
                          static_cast<std::size_t>(p));
}

std::vector<std::int64_t> sequential_keys(std::size_t n) {
  std::vector<std::int64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<std::int64_t>(i);
  return keys;
}

std::vector<std::int64_t> strided_keys(std::size_t n, std::int64_t stride) {
  std::vector<std::int64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = static_cast<std::int64_t>(i) * stride;
  return keys;
}

/// The distinct keys touched by a Zipf(0.99) stream — a prefix-heavy,
/// irregular subset of the keyspace.
std::vector<std::int64_t> zipf_distinct_keys(std::size_t n) {
  mp::ZipfGenerator zipf(4 * n, 0.99, 0x5eedULL);
  std::unordered_set<std::int64_t> seen;
  for (std::size_t draws = 0; draws < 64 * n && seen.size() < n; ++draws)
    seen.insert(zipf.next());
  return {seen.begin(), seen.end()};
}

}  // namespace

TEST(ShardPlacement, MixedHashSpreadsStructuredStreams) {
  constexpr int kP = 8;
  constexpr std::size_t kKeys = 64 * 1024;
  const auto own = [](std::int64_t k) { return mp::shard_owner(k, kP); };
  for (const auto& [name, keys] :
       {std::pair{"sequential", sequential_keys(kKeys)},
        std::pair{"strided", strided_keys(kKeys, kP)},
        std::pair{"zipf", zipf_distinct_keys(kKeys / 4)}}) {
    const auto load = occupancy(keys, kP, own);
    EXPECT_LT(max_min_ratio(load), 2.0) << name << " stream";
  }
}

TEST(ShardPlacement, IdentityHashCollapsesStridedStreamMixedHashDoesNot) {
  // The regression this PR fixes: with the identity hash, any stride
  // sharing a factor with P lands every key on a handful of shards —
  // stride == P puts ALL of them on shard 0.
  constexpr int kP = 8;
  const auto keys = strided_keys(64 * 1024, kP);
  const auto skewed =
      occupancy(keys, kP, [](std::int64_t k) { return identity_owner(k, kP); });
  EXPECT_EQ(skewed[0], keys.size()) << "identity hash: one shard owns all";
  EXPECT_TRUE(std::isinf(max_min_ratio(skewed)));

  const auto fixed =
      occupancy(keys, kP, [](std::int64_t k) { return mp::shard_owner(k, kP); });
  EXPECT_LT(max_min_ratio(fixed), 2.0);
}

TEST(ShardPlacement, BspMapAndClientAgreeOnOwnership) {
  mp::Communicator comm(4);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::BspHashMap bsp(ctx);
    mp::DhtClient client(ctx);
    for (std::int64_t k = -100; k < 100; ++k)
      if (bsp.owner(k) != client.owner(k) ||
          bsp.owner(k) != mp::shard_owner(k, 4))
        violations.fetch_add(1);
    client.shutdown();
  });
  EXPECT_EQ(violations.load(), 0);
}

// ---------------------------------------------------------- workload ---

TEST(Zipf, IsDeterministicAndHotKeyHeavy) {
  mp::ZipfGenerator a(1024, 0.99, 42), b(1024, 0.99, 42);
  std::vector<std::size_t> freq(1024, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto k = a.next();
    ASSERT_EQ(k, b.next());
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 1024);
    ++freq[static_cast<std::size_t>(k)];
  }
  // Key 0 is the hottest, and the head dominates the tail.
  EXPECT_GT(freq[0], freq[100]);
  std::size_t head = 0, total = 20000;
  for (std::size_t k = 0; k < 16; ++k) head += freq[k];
  EXPECT_GT(head, total / 4) << "Zipf(0.99): top 16/1024 keys carry >25%";
}

TEST(Zipf, ThetaZeroIsRoughlyUniform) {
  mp::ZipfGenerator z(16, 0.0, 7);
  std::vector<std::size_t> freq(16, 0);
  for (int i = 0; i < 16000; ++i) ++freq[static_cast<std::size_t>(z.next())];
  const auto [mn, mx] = std::minmax_element(freq.begin(), freq.end());
  EXPECT_LT(static_cast<double>(*mx) / static_cast<double>(*mn), 1.5);
}

TEST(SplitMix64, MatchesTheReferenceStream) {
  // splitmix64's published outputs for seed 0.
  mp::SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(rng.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(rng.next(), 0x06c45d188009454fULL);
}

// ------------------------------------------------------------- shard ---

// The server half both drivers share: each source's batches apply once,
// in order, against one map.
TEST(DhtShard, AppliesEachSourcesBatchesExactlyOnce) {
  using Puts = std::vector<std::pair<std::int64_t, std::int64_t>>;
  using Words = std::vector<std::int64_t>;
  mp::detail::Shard shard(2);
  const auto desync = [&](int source, const Words& batch) {
    try {
      (void)shard.apply(source, batch);
    } catch (const std::out_of_range&) {
      return false;
    } catch (const std::logic_error& e) {
      return std::string(e.what()).find("desync") != std::string::npos;
    }
    return false;
  };

  // Source 0's batches 1 and 2 apply, and batch 2's gets see its puts.
  (void)shard.apply(0, mp::detail::encode_batch(1, Puts{{10, 100}}, Words{}));
  const Words b2 =
      mp::detail::encode_batch(2, Puts{{11, 110}}, Words{10, 11, 12});
  EXPECT_EQ(b2, (Words{2, 1, 11, 110, 3, 10, 11, 12}));
  Words reply{2};
  shard.answer(b2, shard.apply(0, b2), reply);
  EXPECT_EQ(reply, (Words{2, 1, 100, 1, 110, 0, 0}));

  // A replay of batch 2 and a skip to batch 4 throw and apply nothing.
  EXPECT_TRUE(desync(0, mp::detail::encode_batch(2, Puts{{12, 1}}, Words{})));
  EXPECT_TRUE(desync(0, mp::detail::encode_batch(4, Puts{{12, 1}}, Words{})));
  EXPECT_EQ(shard.size(), 2u);
  EXPECT_FALSE(shard.get(12).first);

  // Source 1 keeps its own floor: it starts at 1 while source 0 is at 3.
  EXPECT_TRUE(desync(1, mp::detail::encode_batch(2, Puts{}, Words{})));
  (void)shard.apply(1, mp::detail::encode_batch(1, Puts{{10, 101}}, Words{}));
  (void)shard.apply(0, mp::detail::encode_batch(3, Puts{}, Words{}));
  EXPECT_EQ(shard.get(10), (std::pair<bool, std::int64_t>{true, 101}));

  // A batch cut short, in its puts or in its gets, is refused, and so is
  // a get count past the end of the batch.
  EXPECT_THROW((void)shard.apply(1, Words{2, 1, 13}), std::out_of_range);
  mp::detail::Shard fresh(1);
  for (const Words& bad : {Words{1, 0, 2, 10}, Words{2, 0, -1}}) {
    reply.clear();
    EXPECT_THROW(fresh.answer(bad, fresh.apply(0, bad), reply),
                 std::out_of_range);
  }
}

// -------------------------------------------------------- client basics ---

TEST(DhtClient, PutGetRoundTripsAcrossRanks) {
  constexpr int kP = 4;
  mp::Communicator comm(kP);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::DhtClient client(ctx);
    for (int i = 0; i < 32; ++i)
      (void)client.put(ctx.rank() * 1000 + i, ctx.rank() * 10 + i);
    client.fence();
    const int peer = (ctx.rank() + 1) % kP;
    std::vector<mp::DhtFuture> gets;
    for (int i = 0; i < 32; ++i) gets.push_back(client.get(peer * 1000 + i));
    for (int i = 0; i < 32; ++i) {
      const auto r = gets[static_cast<std::size_t>(i)].wait();
      if (!r.found || r.value != peer * 10 + i) violations.fetch_add(1);
    }
    client.shutdown();
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(DhtClient, MissingKeyReportsNotFoundAndPutEchoesValue) {
  mp::Communicator comm(2);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::DhtClient client(ctx);
    if (ctx.rank() == 0) {
      auto p = client.put(42, 99);
      const auto pr = p.wait();
      if (!pr.found || pr.value != 99 || pr.key != 42) violations.fetch_add(1);
      const auto miss = client.get(-777).wait();
      if (miss.found) violations.fetch_add(1);
    }
    client.fence();
    const auto hit = client.get(42).wait();
    if (!hit.found || hit.value != 99) violations.fetch_add(1);
    client.shutdown();
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(DhtClient, InBatchGetsObserveEarlierPutsAndCoalesce) {
  mp::Communicator comm(2);
  std::atomic<int> violations{0};
  const auto before = pdc::obs::metrics_snapshot();
  comm.run([&](mp::RankContext& ctx) {
    // Large batch, single in-flight window: everything rides one wire
    // batch, so this exercises in-batch semantics specifically.
    mp::DhtClient client(ctx, {.window = 64, .max_batch = 64});
    if (ctx.rank() == 0) {
      // A key owned by the remote rank, so the batch actually travels.
      std::int64_t k = 0;
      while (client.owner(k) != 1) ++k;
      // Occupy the wire: an idle wire ships each op immediately, so the
      // coalescing window only opens once a batch is in flight.
      (void)client.put(k, 0);
      (void)client.put(k, 1);
      auto second = client.put(k, 2);  // coalesces: last writer wins
      auto g1 = client.get(k);
      auto g2 = client.get(k);  // deduped: asked once, fanned out
      if (g1.wait().value != 2 || g2.wait().value != 2)
        violations.fetch_add(1);
      if (second.wait().value != 2) violations.fetch_add(1);
    }
    client.shutdown();
  });
  EXPECT_EQ(violations.load(), 0);
  const auto d = pdc::obs::metrics_snapshot() - before;
  EXPECT_GE(d.counter("dht.client.coalesced_puts"), 1u);
  EXPECT_GE(d.counter("dht.client.deduped_gets"), 1u);
}

TEST(DhtClient, BlockingWindowBackpressuresButCompletesEverything) {
  mp::Communicator comm(3);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::DhtClient client(ctx, {.window = 1, .max_batch = 1});
    std::vector<mp::DhtFuture> futs;
    for (int i = 0; i < 120; ++i)
      futs.push_back(client.put(ctx.rank() * 500 + i, i));
    client.drain();
    if (client.outstanding() != 0) violations.fetch_add(1);
    for (auto& f : futs)
      if (f.status() != mp::DhtOpStatus::kDone) violations.fetch_add(1);
    client.shutdown();
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(DhtClient, ShedModeRejectsBeyondWindowAndWaitThrows) {
  mp::Communicator comm(2);
  std::atomic<int> shed_count{0};
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::DhtClient client(ctx, {.window = 2, .max_batch = 2, .shed = true});
    if (ctx.rank() == 0) {
      // Burst to one shard with no pumping in between: the window (2)
      // fills immediately and the rest must shed.
      std::int64_t k = 0;
      while (client.owner(k) != 1) ++k;
      std::vector<mp::DhtFuture> futs;
      for (int i = 0; i < 10; ++i) futs.push_back(client.put(k + 0, i));
      int shed = 0;
      for (auto& f : futs)
        if (f.status() == mp::DhtOpStatus::kShed) ++shed;
      if (shed == 0) violations.fetch_add(1);
      shed_count.store(shed);
      for (auto& f : futs) {
        if (f.status() == mp::DhtOpStatus::kShed) {
          EXPECT_THROW((void)f.wait(), std::runtime_error);
        }
      }
    }
    client.shutdown();
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(shed_count.load(), 0);
}

TEST(DhtClient, SubmitAfterShutdownThrows) {
  mp::Communicator comm(1);
  comm.run([&](mp::RankContext& ctx) {
    mp::DhtClient client(ctx);
    (void)client.put(1, 2);
    client.shutdown();
    EXPECT_THROW((void)client.put(3, 4), std::logic_error);
  });
}

TEST(DhtClient, SingleRankDegeneratesToLocalStore) {
  mp::Communicator comm(1);
  comm.run([&](mp::RankContext& ctx) {
    mp::DhtClient client(ctx);
    for (int i = 0; i < 50; ++i) (void)client.put(i * 7, i);
    client.fence();
    EXPECT_EQ(client.local_size(), 50u);
    for (int i = 0; i < 50; ++i) {
      const auto r = client.get(i * 7).wait();
      EXPECT_TRUE(r.found);
      EXPECT_EQ(r.value, i);
    }
    client.shutdown();
  });
}

// ------------------------------------------- equivalence vs BSP rounds ---

namespace {

struct Op {
  bool is_get = false;
  std::int64_t key = 0;
  std::int64_t value = 0;
};

constexpr int kEqRanks = 4;
constexpr std::int64_t kEqKeys = 512;

std::int64_t eq_value(std::int64_t key, int phase) {
  return static_cast<std::int64_t>(
      mp::detail::mix64(static_cast<std::uint64_t>(key) * 31 +
                        static_cast<std::uint64_t>(phase)) &
      0xffff);
}

/// Deterministic op stream for (rank, phase). Put phases write only keys
/// from the rank's writer set (key % P == rank), so the final state is
/// order-independent across ranks; get phases read anywhere, including
/// guaranteed misses.
std::vector<Op> eq_phase_ops(int rank, int phase, bool puts) {
  mp::SplitMix64 rng(0xE0ULL + static_cast<std::uint64_t>(rank) * 131 +
                     static_cast<std::uint64_t>(phase));
  std::vector<Op> ops;
  for (int i = 0; i < 150; ++i) {
    const auto raw = static_cast<std::int64_t>(
        rng.next() % static_cast<std::uint64_t>(kEqKeys));
    if (puts) {
      const std::int64_t k = raw - (raw % kEqRanks) + rank;
      ops.push_back({false, k, eq_value(k, phase)});
    } else {
      const bool miss = rng.next_unit() < 0.1;
      ops.push_back({true, miss ? kEqKeys + raw : raw, 0});
    }
  }
  return ops;
}

}  // namespace

TEST(DhtEquivalence, PipelinedClientMatchesBspRoundsOpForOp) {
  // Phases: puts, gets, overwriting puts, gets — fences between. The BSP
  // map runs each phase as one synchronous round; the client runs it
  // free-running with a fence at the boundary. Every get result must be
  // byte-identical.
  const std::vector<std::pair<int, bool>> phases = {
      {0, false}, {1, true}, {2, false}, {3, true}};
  using Digest = std::vector<std::int64_t>;

  std::vector<Digest> bsp_digest(kEqRanks), client_digest(kEqRanks);
  {
    mp::Communicator comm(kEqRanks);
    comm.run([&](mp::RankContext& ctx) {
      mp::BspHashMap dht(ctx);
      auto& digest = bsp_digest[static_cast<std::size_t>(ctx.rank())];
      for (const auto& [phase, is_get_phase] : phases) {
        for (const auto& op : eq_phase_ops(ctx.rank(), phase, !is_get_phase)) {
          if (op.is_get)
            dht.queue_get(op.key);
          else
            dht.queue_put(op.key, op.value);
        }
        for (const auto& g : dht.round()) {
          digest.push_back(g.found ? 1 : 0);
          digest.push_back(g.value);
        }
      }
    });
  }
  {
    mp::Communicator comm(kEqRanks);
    comm.run([&](mp::RankContext& ctx) {
      mp::DhtClient client(ctx, {.window = 16, .max_batch = 8});
      auto& digest = client_digest[static_cast<std::size_t>(ctx.rank())];
      for (const auto& [phase, is_get_phase] : phases) {
        std::vector<mp::DhtFuture> gets;
        for (const auto& op : eq_phase_ops(ctx.rank(), phase, !is_get_phase)) {
          if (op.is_get)
            gets.push_back(client.get(op.key));
          else
            (void)client.put(op.key, op.value);
        }
        client.fence();
        for (auto& g : gets) {
          const auto r = g.wait();
          digest.push_back(r.found ? 1 : 0);
          digest.push_back(r.value);
        }
      }
      client.shutdown();
    });
  }
  for (int r = 0; r < kEqRanks; ++r)
    EXPECT_EQ(bsp_digest[static_cast<std::size_t>(r)],
              client_digest[static_cast<std::size_t>(r)])
        << "rank " << r;
}

// ------------------------------------------------- reliable channel ---

TEST(DhtClient, ReliableClientRecoversTheFaultFreeAnswerUnderLoss) {
  mp::FaultPlan plan;
  plan.drop = 0.05;
  plan.dup = 0.05;
  plan.reorder = true;
  plan.seed = 1234;
  mp::Communicator comm(4, plan);
  std::atomic<int> violations{0};
  comm.run([&](mp::RankContext& ctx) {
    mp::DhtClient client(ctx, {.window = 8, .max_batch = 4, .reliable = true});
    for (int i = 0; i < 24; ++i)
      (void)client.put(ctx.rank() * 100 + i, ctx.rank() * 100 + i * 3);
    client.fence();
    const int peer = (ctx.rank() + 2) % 4;
    for (int i = 0; i < 24; ++i) {
      const auto r = client.get(peer * 100 + i).wait();
      if (!r.found || r.value != peer * 100 + i * 3) violations.fetch_add(1);
    }
    client.shutdown();
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(DhtClient, LatencyHistogramRecordsEveryCompletedOp) {
  const auto before = pdc::obs::metrics_snapshot();
  mp::Communicator comm(2);
  comm.run([&](mp::RankContext& ctx) {
    mp::DhtClient client(ctx);
    for (int i = 0; i < 40; ++i) (void)client.put(ctx.rank() * 64 + i, i);
    client.drain();
    client.shutdown();
  });
  const auto d = pdc::obs::metrics_snapshot() - before;
  const auto it = d.histograms.find("dht.client.op_ns");
  ASSERT_NE(it, d.histograms.end());
  std::uint64_t n = 0;
  for (const auto b : it->second) n += b;
  EXPECT_EQ(n, 80u) << "one latency sample per completed op";
  EXPECT_GT(pdc::obs::quantile_from_buckets(it->second, 0.5), 0.0);
}
