#pragma once
// Pipelined asynchronous DHT client — serving the hash-partitioned table
// like a KV store instead of a BSP lab exercise.
//
// BspHashMap::round() is bulk-synchronous: every op waits for a global
// superstep, so throughput is capped at (ops per round) / (round latency)
// and one slow shard stalls every rank. DhtClient keeps the same shards
// and the same owner function (shard_owner) but drops the superstep:
//
//  - puts/gets return immediately with a completion future (DhtFuture);
//  - ops headed to the same shard coalesce into one wire batch (puts are
//    last-writer-wins within the batch, duplicate gets are asked once and
//    fanned back out to every waiter);
//  - each destination shard has an outstanding-op window: submissions
//    beyond it either block (pumping the progress loop, so the rank keeps
//    serving its own shard while it waits — backpressure) or are shed
//    (DhtOpStatus::kShed) when Options::shed is set — admission control;
//  - every rank is simultaneously a server: any blocking wait pumps
//    poll(), which answers incoming request batches from the local shard.
//
// The protocol is deadlock-free by construction: no rank ever blocks
// without serving. Requests and replies ride ordinary tagged user
// messages on the plain or reliable channel (Options::reliable), so
// FaultPlan fuzzing applies unchanged; per-flow batch sequence numbers
// let a server prove exactly-once application (a replayed or skipped
// batch throws instead of silently corrupting the shard). Peer death is
// detected at every wait point and surfaces as RankFailedError.
//
// Collective structure: construct one client per rank, then pair every
// fence() and the final shutdown() across all ranks. Between those
// points, ranks are free-running — that is the point. Don't call bare
// blocking collectives (barrier, reduce, ...) while ops are outstanding;
// fence() is the synchronization that keeps serving.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "pdc/mp/comm.hpp"
#include "pdc/mp/dht.hpp"

namespace pdc::mp {

class DhtClient;

/// Reserved user tags for the client protocol (one client per rank per
/// communicator run; other user traffic must avoid these).
inline constexpr int kDhtReqTag = 0x7D470001;    ///< request batches
inline constexpr int kDhtRepTag = 0x7D470002;    ///< reply batches
inline constexpr int kDhtFenceTag = 0x7D470003;  ///< fence tokens/releases
inline constexpr int kDhtDoneTag = 0x7D470004;   ///< shutdown notices

/// Completion state of one async op.
enum class DhtOpStatus {
  kPending,  ///< submitted, not yet answered by the owner shard
  kDone,     ///< applied/answered; result available
  kShed,     ///< rejected by admission control (window full, shed mode)
};

namespace detail {
struct OpPool;

/// Versioned open-addressing key -> index map for in-batch coalescing.
/// The map is filled and cleared once per wire batch on the submit hot
/// path; std::unordered_map pays a node allocation per insert and an
/// O(buckets) clear there. Here clear() is a version bump and probes walk
/// a flat power-of-two array.
struct DedupMap {
  struct Slot {
    std::int64_t key = 0;
    std::uint32_t idx = 0;
    std::uint32_t ver = 0;
  };
  std::vector<Slot> slots;
  std::size_t mask = 0;
  std::uint32_t ver = 0;

  /// Size for at most max_entries live keys between clears (load <= 1/2).
  void init(std::size_t max_entries) {
    std::size_t cap = 8;
    while (cap < 2 * max_entries) cap <<= 1;
    slots.assign(cap, Slot{});
    mask = cap - 1;
    ver = 1;
  }

  void clear() {
    if (++ver == 0) {  // version wrapped: stale slots could match again
      for (auto& s : slots) s.ver = 0;
      ver = 1;
    }
  }

  /// Insert key -> idx if absent; returns {existing-or-new idx, inserted}.
  std::pair<std::uint32_t, bool> upsert(std::int64_t key, std::uint32_t idx) {
    auto h = static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(key))) &
             mask;
    while (true) {
      Slot& s = slots[h];
      if (s.ver != ver) {
        s.key = key;
        s.idx = idx;
        s.ver = ver;
        return {idx, true};
      }
      if (s.key == key) return {s.idx, false};
      h = (h + 1) & mask;
    }
  }
};

class OpRef;

struct DhtOp {
  std::int64_t key = 0;
  std::int64_t value = 0;  ///< put: value written; get: value read
  int dest = 0;
  bool is_get = false;
  bool found = false;
  DhtOpStatus status = DhtOpStatus::kPending;
  std::chrono::steady_clock::time_point submitted;
  /// Intrusive chain of futures waiting on the same deduped get — avoids
  /// a heap-allocated waiter vector per unique key per batch.
  DhtOp* next_waiter = nullptr;  ///< owns one ref to the chained op
  OpPool* pool = nullptr;
  std::uint32_t refs = 0;
};

/// Rank-thread-local smart pointer to a pooled DhtOp. A client's ops and
/// futures never leave their rank thread, so the refcount is a plain int:
/// profiles showed std::shared_ptr's heap round trip plus atomic refcount
/// traffic as the largest per-op cost on the serving hot path.
class OpRef {
 public:
  OpRef() = default;
  explicit OpRef(DhtOp* p) : p_(p) {
    if (p_ != nullptr) ++p_->refs;
  }
  OpRef(const OpRef& o) : OpRef(o.p_) {}
  OpRef(OpRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  OpRef& operator=(OpRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~OpRef() { reset(); }

  void reset();
  /// Detach: the caller takes over this reference (no refcount change).
  [[nodiscard]] DhtOp* release() {
    DhtOp* p = p_;
    p_ = nullptr;
    return p;
  }
  [[nodiscard]] DhtOp* get() const { return p_; }
  DhtOp& operator*() const { return *p_; }
  DhtOp* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  DhtOp* p_ = nullptr;
};

/// Slab + freelist recycler for DhtOp nodes. One per client; addresses
/// are stable (deque slab) and a freed node is a pointer push, so op
/// allocation never touches the heap after warm-up.
struct OpPool {
  std::vector<DhtOp*> free_list;
  std::deque<DhtOp> slab;
  std::int64_t live = 0;  ///< ops whose refcount has not yet hit zero

  OpRef take() {
    DhtOp* p = nullptr;
    if (!free_list.empty()) {
      p = free_list.back();
      free_list.pop_back();
    } else {
      p = &slab.emplace_back();
      p->pool = this;
    }
    p->found = false;
    p->status = DhtOpStatus::kPending;
    p->next_waiter = nullptr;
    ++live;
    return OpRef(p);
  }
};

inline void OpRef::reset() {
  DhtOp* p = p_;
  p_ = nullptr;
  // Dropping an op releases its waiter chain iteratively — a deep chain
  // of deduped gets must not recurse.
  while (p != nullptr && --p->refs == 0) {
    DhtOp* next = p->next_waiter;
    p->next_waiter = nullptr;
    p->pool->free_list.push_back(p);
    --p->pool->live;
    p = next;
  }
}
}  // namespace detail

/// Completion handle for one async op. Single-threaded per rank: wait()
/// drives the owning client's progress loop (serving peers) until this
/// op completes. Futures must not outlive their client.
class DhtFuture {
 public:
  DhtFuture() = default;

  [[nodiscard]] bool valid() const { return op_.get() != nullptr; }
  [[nodiscard]] DhtOpStatus status() const { return op_->status; }
  [[nodiscard]] bool done() const {
    return op_->status != DhtOpStatus::kPending;
  }

  /// Block (serving peers meanwhile) until the op completes; returns the
  /// result. For a put, found is true and value echoes the value written.
  /// Throws std::runtime_error if the op was shed, RankFailedError if the
  /// owner shard's rank died first.
  GetResult wait();

 private:
  friend class DhtClient;
  DhtFuture(DhtClient* client, detail::OpRef op)
      : client_(client), op_(std::move(op)) {}

  DhtClient* client_ = nullptr;
  detail::OpRef op_;
};

class DhtClient {
 public:
  struct Options {
    /// Max outstanding ops per destination shard (batched-but-unsent +
    /// on-the-wire). Beyond it, submit blocks or sheds.
    int window = 64;
    /// Ops coalesced into one wire batch. A batch goes out as soon as the
    /// wire to that shard is idle, so an isolated op still leaves
    /// immediately — under load, batches grow toward this cap.
    int max_batch = 16;
    /// Route client traffic over the reliable channel (seq/ack/retry +
    /// dead-rank detection) regardless of the context's current mode.
    bool reliable = false;
    /// Admission control: shed ops (complete as kShed) instead of
    /// blocking when the destination window is full.
    bool shed = false;
  };

  explicit DhtClient(RankContext& ctx) : DhtClient(ctx, Options{}) {}
  DhtClient(RankContext& ctx, Options opts);
  DhtClient(const DhtClient&) = delete;
  DhtClient& operator=(const DhtClient&) = delete;
  ~DhtClient();

  /// Queue an async write. Last writer wins — within one batch by
  /// submission order, across batches by server arrival order.
  DhtFuture put(std::int64_t key, std::int64_t value);

  /// Queue an async read. Gets observe every put submitted before them to
  /// the same shard batch (the owner applies a batch's puts before
  /// answering its gets — the same semantics as BspHashMap::round).
  DhtFuture get(std::int64_t key);

  /// One nonblocking progress pump: serve incoming request batches from
  /// the local shard, absorb replies (completing futures), and push any
  /// batch whose wire went idle.
  void poll();

  /// Force open batches onto the wire now (nonblocking).
  void flush();

  /// Block — serving peers — until every op this rank submitted has
  /// completed.
  void drain();

  /// Collective quiescence point: after every rank's fence() returns,
  /// every op submitted before the fence (on any rank) is applied and
  /// visible to every get submitted after it. Keeps serving throughout.
  void fence();

  /// Collective teardown: drain, then keep serving until every peer has
  /// also shut down. Must be the last client call on every rank.
  void shutdown();

  /// Owner rank of a key (same placement as BspHashMap).
  [[nodiscard]] int owner(std::int64_t key) const;

  /// Number of keys stored in this rank's shard.
  [[nodiscard]] std::size_t local_size() const { return shard_.size(); }

  /// Ops this rank has submitted that have not completed yet.
  [[nodiscard]] int outstanding() const { return outstanding_; }

 private:
  friend class DhtFuture;

  struct SentBatch {
    std::int64_t seq = 0;
    int ops = 0;
    std::vector<detail::OpRef> puts;
    /// Per unique requested key, the head of its waiter chain.
    std::vector<detail::OpRef> gets;
  };

  struct DestQueue {
    // Open batch under assembly (coalesced).
    std::vector<std::pair<std::int64_t, std::int64_t>> put_kv;
    detail::DedupMap put_idx;
    std::vector<std::int64_t> get_keys;
    detail::DedupMap get_idx;
    std::vector<detail::OpRef> open_puts;
    std::vector<detail::OpRef> open_gets;  ///< chain heads
    int open_ops = 0;
    // Batches on the wire, FIFO (per-flow ordering matches replies).
    std::deque<SentBatch> sent;
    std::int64_t next_seq = 0;
    int inflight_ops = 0;  ///< open + sent ops not yet completed
  };

  DhtFuture submit(bool is_get, std::int64_t key, std::int64_t value);
  void send_batch(int dest);
  void maybe_send(int dest);
  bool serve_once();
  void handle_request(int source, const Message& msg);
  bool absorb_replies();
  bool poll_once();
  void complete(detail::DhtOp& op, bool found, std::int64_t value,
                std::chrono::steady_clock::time_point now);
  void flush_pending_counts();
  void wait_for(const detail::DhtOp& op);
  void check_dest_alive(int dest) const;
  Message take_serving(int source, int tag);
  void tagged_send(int dest, int tag, std::vector<std::int64_t> data);

  RankContext* ctx_;
  Options opts_;
  /// Recycles DhtOp nodes. Declared before (destroyed after) the queues
  /// that hold OpRefs into it; see ~DhtClient for the escaped-future case.
  std::unique_ptr<detail::OpPool> pool_;
  std::vector<DestQueue> dest_;
  detail::Shard shard_;
  /// Per-op metric bumps accumulate here and flush to the process-global
  /// (atomic, sharded) counters per batch and at every blocking point — a
  /// global add per op is measurable on the serving hot path.
  struct PendingCounts {
    std::int64_t puts = 0;
    std::int64_t gets = 0;
    std::int64_t local = 0;
    std::int64_t dedup = 0;
    std::int64_t coalesce = 0;
  };
  PendingCounts pending_;
  // Submission timestamps are sampled once per kClockStride ops: a clock
  // read per op is measurable on the serving hot path, and a stale-by-a-
  // few-ops stamp only rounds latencies up. Reset after any blocking wait
  // so an idle gap never leaks into the next op's latency.
  static constexpr std::uint32_t kClockStride = 16;
  std::uint32_t clock_tick_ = 0;
  std::chrono::steady_clock::time_point cached_now_{};
  int outstanding_ = 0;
  bool shut_down_ = false;
};

}  // namespace pdc::mp
