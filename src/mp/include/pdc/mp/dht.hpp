#pragma once
// Bulk-synchronous distributed hash table (the paper's CS44 "distributed
// hash tables" topic): keys are hash-partitioned across ranks; every rank
// submits a batch of puts/gets per round, batches are routed with one
// all-to-all, owners apply/answer, and a second all-to-all returns the
// get results. The BSP batching makes the protocol deadlock-free on top
// of plain collectives — the same structure as a distributed join's
// exchange phase.
//
// Reliable mode routes both all-to-alls over the communicator's reliable
// channel: every request batch is sequence-numbered per flow, acked, and
// retransmitted with exponential backoff on loss; replayed batches are
// suppressed at the transport, and each round's batch carries the round
// number as its sequence number, so an owner's shard (the one DhtClient
// serves through) can prove it applies every batch exactly once (a
// replayed or skipped round throws instead of silently corrupting the
// shard). Under a FaultPlan, a round either completes with the fault-free
// answer or throws RankFailedError — it never hangs and never returns a
// wrong answer.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pdc/mp/comm.hpp"
#include "pdc/mp/fault.hpp"

namespace pdc::mp {

/// Owner rank of a key in a P-way hash partition. The key is run through
/// the splitmix64 finalizer before the modulo: libstdc++'s
/// std::hash<int64_t> is the identity, so hashing raw keys routes
/// sequential and strided workloads onto a handful of shards (a stride
/// that shares a factor with P lands every key on the same rank). The
/// bit-mix makes placement uniform for any key structure; both the BSP
/// map and the pipelined client route through this one function, so they
/// always agree on ownership.
[[nodiscard]] inline int shard_owner(std::int64_t key, int ranks) {
  return static_cast<int>(detail::mix64(static_cast<std::uint64_t>(key)) %
                          static_cast<std::uint64_t>(ranks));
}

namespace detail {

/// One rank's request batch to one shard, the wire format of both DHT
/// drivers: [seq, n_puts, k1, v1, ..., n_gets, g1, ...]. `seq` numbers
/// the batches on that flow from 1, so the shard can prove it applies
/// each exactly once.
[[nodiscard]] std::vector<std::int64_t> encode_batch(
    std::int64_t seq,
    std::span<const std::pair<std::int64_t, std::int64_t>> puts,
    std::span<const std::int64_t> gets);

/// The keys one rank owns, and the last batch it applied from each
/// source: the server half of both DHT drivers.
class Shard {
 public:
  explicit Shard(int sources) : floor_(static_cast<std::size_t>(sources)) {}

  /// Applies a request batch's puts in order and returns the index of its
  /// get count, for answer(). A batch that is not the next one from
  /// `source` (a replay or a skip) throws std::logic_error and changes
  /// nothing. Every read is bounds-checked, since on the process
  /// transports the batch comes from another process: a batch cut short
  /// throws std::out_of_range.
  std::size_t apply(int source, const std::vector<std::int64_t>& batch);

  /// Appends [found, value] to `reply` for each get of `batch`, whose get
  /// count apply() found at `gets_at`, in request order.
  void answer(const std::vector<std::int64_t>& batch, std::size_t gets_at,
              std::vector<std::int64_t>& reply) const;

  /// (found, value) for `key`; value 0 when it is absent.
  [[nodiscard]] std::pair<bool, std::int64_t> get(std::int64_t key) const;
  void put(std::int64_t key, std::int64_t value) { map_[key] = value; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::int64_t, std::int64_t> map_;
  std::vector<std::int64_t> floor_;  ///< last batch applied, per source
};

}  // namespace detail

/// Result of one get, in queue/submission order.
struct GetResult {
  std::int64_t key = 0;
  bool found = false;
  std::int64_t value = 0;
  bool operator==(const GetResult&) const = default;
};

/// Per-rank shard of the table. Construct one inside the SPMD body; all
/// ranks must call round() collectively (same number of times).
class BspHashMap {
 public:
  struct Options {
    /// Route rounds over the reliable channel (seq/ack/retry + dead-rank
    /// detection), regardless of the context's current channel mode.
    bool reliable = false;
  };

  explicit BspHashMap(RankContext& ctx) : BspHashMap(ctx, Options{}) {}
  BspHashMap(RankContext& ctx, Options opts)
      : ctx_(&ctx), opts_(opts), shard_(ctx.size()) {}

  /// Queue a put for the next round (applied at the owner).
  void queue_put(std::int64_t key, std::int64_t value);

  /// Queue a get for the next round; the result arrives after round().
  void queue_get(std::int64_t key);

  /// Execute one synchronous round: route queued puts and gets to their
  /// owner ranks, apply puts (last-writer-wins within a round is resolved
  /// by source rank order), answer gets. Returns this rank's get results
  /// in the order queue_get was called. COLLECTIVE: every rank must call.
  std::vector<GetResult> round();

  /// Owner rank of a key.
  [[nodiscard]] int owner(std::int64_t key) const;

  /// Number of keys stored in this rank's shard.
  [[nodiscard]] std::size_t local_size() const { return shard_.size(); }

 private:
  RankContext* ctx_;
  Options opts_;
  detail::Shard shard_;
  std::vector<std::pair<std::int64_t, std::int64_t>> pending_puts_;
  std::vector<std::int64_t> pending_gets_;
  std::int64_t round_ = 0;  ///< rounds this rank has issued
};

}  // namespace pdc::mp
