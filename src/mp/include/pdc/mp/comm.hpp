#pragma once
// In-process message passing with MPI semantics (the CS87 MPI-lab
// substrate): P ranks run as threads sharing NO data; all communication is
// explicit tagged messages. Collectives are implemented on top of
// send/recv — the point of the lab is that broadcast, reduce, scatter,
// gather and scan are just message *patterns*.
//
// The substitution for real MPI on a cluster: wall-clock network cost is
// replaced by exact traffic accounting (messages and payload words), which
// is what the course's analysis compares anyway.
//
// Two channels share the mailbox fabric:
//  - the plain channel: exact, in-order, instant (the seed behavior), and
//  - the reliable channel (RankContext::set_reliable): per-flow sequence
//    numbers, transport acks, timeout + exponential-backoff retransmit,
//    and duplicate suppression — the machinery a FaultPlan (fault.hpp)
//    attacks with drops, duplicates, reordering and rank-kill.
// Blocked receives on either channel detect dead/exited peers and throw
// RankFailedError instead of hanging.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pdc/mp/fault.hpp"
#include "pdc/mp/transport.hpp"

namespace pdc::mp {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// A received message.
struct Message {
  int source = 0;
  int tag = 0;
  std::vector<std::int64_t> data;
};

/// Reduction operators for reduce/allreduce/scan.
enum class ReduceOp { kSum, kProd, kMin, kMax };

[[nodiscard]] std::int64_t apply(ReduceOp op, std::int64_t a, std::int64_t b);
[[nodiscard]] std::int64_t identity(ReduceOp op);

/// Threading contract for one rank's communication calls (the MPI
/// `MPI_THREAD_*` ladder, restricted to the two rungs this runtime
/// supports). A RankContext is NOT a thread-safe object; the mode says
/// which single thread is allowed to touch it:
///
///  - kSingle   (default): only the thread the rank body started on may
///    communicate. Pinned when the RankContext is constructed.
///  - kFunneled: the rank body is multi-threaded (e.g. runs a core::Team
///    per step), but ALL communication still funnels through exactly one
///    thread — the one that called set_threading(kFunneled). This is how
///    the hybrid stencil engine runs: worker threads compute tiles, the
///    team's rank-0 thread owns every send/recv/collective.
///
/// The contract is enforced in every build: every p2p call, probe,
/// arrival wait and collective checks the calling thread (one get_id()
/// and one atomic load) and throws std::logic_error on a violation — a
/// deterministic failure instead of a silent mailbox race.
enum class Threading {
  kSingle,    ///< one thread per rank, pinned at construction
  kFunneled,  ///< many compute threads, one designated comm thread
};

/// Collective algorithm selector (the bench compares them).
enum class CollectiveAlgo {
  kFlat,  ///< root talks to everyone directly: P-1 messages, P-1 rounds at root
  kTree,  ///< binomial tree: P-1 messages, ceil(log2 P) rounds
};

/// Aggregate traffic counters for a communicator run. The reliability
/// counters stay zero on a clean plain-channel run, so benches can price
/// exactly what a fault plan and the retry machinery cost.
///
/// This is a value snapshot over the communicator's pdc::obs counters
/// (which also feed the process-global "mp.*" registry metrics). The
/// arithmetic gives snapshot-delta semantics: `after - before` prices one
/// phase, `a + b` merges runs — no hand-subtracted fields in benches.
struct TrafficStats {
  std::uint64_t messages = 0;       ///< data messages enqueued at a mailbox
  std::uint64_t payload_words = 0;  ///< total int64 values moved
  std::uint64_t acks = 0;        ///< transport acks delivered to senders
  std::uint64_t retries = 0;     ///< retransmission attempts (reliable sends)
  std::uint64_t dropped = 0;     ///< deliveries eaten by the fault plan
  std::uint64_t duplicates = 0;  ///< replayed copies suppressed by seq dedup
  std::uint64_t delayed = 0;     ///< deliveries held back for reordering

  bool operator==(const TrafficStats&) const = default;

  TrafficStats& operator+=(const TrafficStats& o) {
    messages += o.messages;
    payload_words += o.payload_words;
    acks += o.acks;
    retries += o.retries;
    dropped += o.dropped;
    duplicates += o.duplicates;
    delayed += o.delayed;
    return *this;
  }
  TrafficStats& operator-=(const TrafficStats& o) {
    messages -= o.messages;
    payload_words -= o.payload_words;
    acks -= o.acks;
    retries -= o.retries;
    dropped -= o.dropped;
    duplicates -= o.duplicates;
    delayed -= o.delayed;
    return *this;
  }
  friend TrafficStats operator+(TrafficStats a, const TrafficStats& b) {
    return a += b;
  }
  friend TrafficStats operator-(TrafficStats a, const TrafficStats& b) {
    return a -= b;
  }
};

class Communicator;

namespace detail {
struct CommState;
}

/// Handle for a nonblocking receive. Holds only a weak reference to the
/// communicator's shared state: a Request that leaks out of a rank body
/// and outlives its Communicator throws std::runtime_error from test()
/// and wait() instead of touching freed memory.
class Request {
 public:
  /// True once a matching message is available (does not consume it).
  [[nodiscard]] bool test();
  /// Block until matched; returns the message (consumes it).
  Message wait();

 private:
  friend class RankContext;
  Request(std::weak_ptr<detail::CommState> state, int rank, int source,
          int tag)
      : state_(std::move(state)), rank_(rank), source_(source), tag_(tag) {}
  std::weak_ptr<detail::CommState> state_;
  int rank_;
  int source_;
  int tag_;
};

/// Per-rank API handed to the SPMD function.
class RankContext {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Route this rank's sends (point-to-point AND collectives) through the
  /// reliable channel: sequence numbers, acks, retransmit on loss, dead
  /// rank detection. Off by default — the plain channel is exact.
  void set_reliable(bool on) { reliable_ = on; }
  [[nodiscard]] bool reliable() const { return reliable_; }

  /// Declare this rank's threading mode (see Threading above) and pin the
  /// communication funnel to the CALLING thread. kSingle is the default,
  /// pinned to the thread that constructed the context. A multi-threaded
  /// rank body must call set_threading(kFunneled) from the one thread
  /// that will own all communication — before any other thread exists is
  /// safest; at a point where no comm call is in flight is required.
  void set_threading(Threading mode) {
    threading_ = mode;
    comm_thread_.store(std::this_thread::get_id(),
                       std::memory_order_release);
  }
  [[nodiscard]] Threading threading() const { return threading_; }

  /// The communicator's fault plan (test hook: lets harness bodies key
  /// expectations off the active plan).
  [[nodiscard]] const FaultPlan& fault_plan() const;

  /// This process's traffic ledger (== Communicator::traffic()). On the
  /// in-process backend every rank shares one ledger; on the process
  /// backends each rank counts only the frames its own process saw — sum
  /// every process's ledger (launch::LaunchResult::traffic does) to
  /// compare totals across backends.
  [[nodiscard]] TrafficStats traffic() const;

  // ---- point to point ----

  /// Buffered send: enqueues and returns (like MPI_Send with buffering).
  /// User tags must be >= 0 (negative tags are reserved for collectives).
  void send(int dest, int tag, std::vector<std::int64_t> data);
  void send_value(int dest, int tag, std::int64_t value);

  /// Blocking receive with optional wildcards kAnySource / kAnyTag.
  /// Throws RankFailedError if the awaited source can no longer send.
  ///
  /// kAnySource is rejected (std::logic_error) while this rank is on the
  /// reliable channel: an any-source wait cannot tell which sender it is
  /// actually waiting for, so one dead or partitioned peer turns a
  /// recoverable loss into a silent hang (every other peer keeps the
  /// match-set "alive" forever). Reliable protocols must receive
  /// per-source — poll probe(source, tag) across sources, or take from
  /// each source in turn, exactly as the flat reduce and the DHT client
  /// do.
  Message recv(int source = kAnySource, int tag = kAnyTag);
  std::int64_t recv_value(int source = kAnySource, int tag = kAnyTag);

  /// True while `rank` is still executing the SPMD body (it may yet send
  /// or serve). False once it finished, was killed, or threw — a peer
  /// with pending work owed to us that stops running is a failure the
  /// caller can convert into RankFailedError instead of spinning forever.
  [[nodiscard]] bool peer_running(int rank) const;

  /// Nonblocking probe: is a matching message waiting?
  [[nodiscard]] bool probe(int source = kAnySource, int tag = kAnyTag);

  /// Messages ever delivered into this rank's mailbox (monotonic, counts
  /// arrivals — not consumption). The handle for event-driven polling
  /// loops: snapshot arrivals(), poll, and if the poll found nothing call
  /// wait_arrivals(snapshot) to sleep until something new lands.
  [[nodiscard]] std::uint64_t arrivals() const;

  /// Block until arrivals() exceeds `seen`, a bounded wait elapses, or a
  /// peer stops running — whichever is first. Returns the current count.
  /// The bounded wait (~1ms) means callers can re-check liveness and shed
  /// conditions without busy-spinning; on the fast path a delivery wakes
  /// the waiter immediately via the mailbox condition variable.
  std::uint64_t wait_arrivals(std::uint64_t seen);

  /// Nonblocking receive.
  [[nodiscard]] Request irecv(int source = kAnySource, int tag = kAnyTag);

  // ---- collectives (every rank must call, in the same order) ----

  /// The reduce tree toward rank 0 carrying an empty token, then the
  /// broadcast tree releasing every rank: 2(P-1) messages, no payload.
  void barrier();

  /// Root's `data` is distributed to all ranks; everyone returns it.
  std::vector<std::int64_t> broadcast(int root, std::vector<std::int64_t> data,
                                      CollectiveAlgo algo = CollectiveAlgo::kTree);
  std::int64_t broadcast_value(int root, std::int64_t value,
                               CollectiveAlgo algo = CollectiveAlgo::kTree);

  /// Combine every rank's value at root (others return identity(op)).
  /// The flat root receives per source, in rank order.
  std::int64_t reduce(int root, std::int64_t value, ReduceOp op,
                      CollectiveAlgo algo = CollectiveAlgo::kTree);

  /// Reduce + broadcast: every rank returns the combined value.
  std::int64_t allreduce(std::int64_t value, ReduceOp op);

  /// Root receives [value_0, ..., value_{P-1}]; others get empty.
  std::vector<std::int64_t> gather(int root, std::int64_t value);

  /// Root supplies P values; every rank returns its own.
  std::int64_t scatter(int root, const std::vector<std::int64_t>& values);

  /// All ranks receive everyone's value, in rank order.
  std::vector<std::int64_t> allgather(std::int64_t value);

  /// Exclusive prefix: rank r returns op(value_0, ..., value_{r-1});
  /// rank 0 returns identity(op).
  std::int64_t exscan(std::int64_t value, ReduceOp op);

  /// Personalized all-to-all: `outgoing[d]` is sent to rank d (size must
  /// be P); returns incoming[s] = what rank s sent to this rank.
  std::vector<std::vector<std::int64_t>> alltoall(
      std::vector<std::vector<std::int64_t>> outgoing);

  /// Combined send+recv (deadlock-free even unbuffered): sends `data` to
  /// `dest` and returns the message received from `source`, both under
  /// `tag` (reserved per call).
  std::vector<std::int64_t> sendrecv(int dest, std::vector<std::int64_t> data,
                                     int source);

 private:
  friend class Communicator;
  RankContext(Communicator* comm, int rank);

  /// Fresh reserved (negative) tag for the next collective. Every rank
  /// calls collectives in the same order, so local counters agree.
  [[nodiscard]] int next_collective_tag();

  /// The binomial reduce tree toward `root` on `tag`: folds each child's
  /// payload into `payload` word by word with `op`, then sends it to the
  /// parent. Returns true at the root, which ends holding the total. An
  /// empty payload is a token: the tree then only waits for every rank.
  bool reduce_tree(int root, int tag, std::vector<std::int64_t>& payload,
                   ReduceOp op);

  /// If the fault plan kills this rank at this op count, die now.
  void maybe_kill();

  /// Enforce the Threading contract: the caller must be the designated
  /// comm thread (throws std::logic_error otherwise).
  void check_comm_thread() const;

  /// Channel send/take: count the op, honor the kill schedule, then route
  /// through the plain or reliable channel. All p2p calls and collective
  /// message patterns funnel through these two.
  void ch_send(int dest, int tag, std::vector<std::int64_t> data);
  Message ch_take(int source, int tag);

  /// Reliable channel: stop-and-wait per (this rank -> dest) flow with
  /// retransmission; throws RankFailedError if dest dies or never acks.
  void reliable_send(int dest, int tag, std::vector<std::int64_t> data);

  Communicator* comm_;
  int rank_;
  int collective_seq_ = 0;
  bool reliable_ = false;
  Threading threading_ = Threading::kSingle;
  std::atomic<std::thread::id> comm_thread_;  ///< the one thread allowed in
  long ops_ = 0;                           ///< channel ops completed (kill clock)
  std::vector<std::uint64_t> send_seq_;    ///< per-dest reliable flow sequence
};

/// Flip a rank onto (or off) the reliable channel for one scope,
/// restoring the caller's mode on every exit path — the guard both the
/// BSP map and the pipelined DHT client use so per-protocol channel
/// choices never leak into the caller's subsequent traffic.
class ReliableModeScope {
 public:
  ReliableModeScope(RankContext& ctx, bool want)
      : ctx_(ctx), prev_(ctx.reliable()) {
    if (want != prev_) ctx_.set_reliable(want);
  }
  ~ReliableModeScope() { ctx_.set_reliable(prev_); }
  ReliableModeScope(const ReliableModeScope&) = delete;
  ReliableModeScope& operator=(const ReliableModeScope&) = delete;

 private:
  RankContext& ctx_;
  bool prev_;
};

/// Runs an SPMD function over `size` ranks, under a seeded fault plan
/// (fault.hpp; the default plan injects nothing). With the default
/// in-process transport every rank is a thread of this process;
/// constructed from a TransportOptions naming a process backend (shm,
/// tcp), this process IS one rank of a multi-process world and run()
/// executes the body for that rank only, while the transport's progress
/// machinery keeps the mailbox, reliable-channel acks, and rank liveness
/// flowing. One runner serves every backend.
class Communicator {
 public:
  /// `size` ranks, all threads of this process.
  explicit Communicator(int size, FaultPlan plan = {});

  /// Join (or host, for inproc) a world described by `topt`. For process
  /// backends the constructor does not touch the network; the rendezvous
  /// handshake happens in run(), which all ranks must reach.
  explicit Communicator(const TransportOptions& topt, FaultPlan plan = {});

  /// Run the body on every local rank and wait for them, as one pooled
  /// core::Team region whose rank 0 is the caller: a process backend's
  /// one rank, or a world of one, runs inline; inproc ranks 1..P-1 run on
  /// parked pool workers. Then the transport's finish() tells the peers how
  /// this process's rank ended and waits for theirs, and run() rethrows
  /// in one order on every backend: a root-cause (non-RankFailedError)
  /// exception first, by rank; then a fault-plan kill, as a deterministic
  /// RankFailedError naming the victim and the plan (on a process
  /// backend the kill is a real SIGKILL, and a peer's shows up through
  /// transport liveness); then the RankFailedError cascade. An inproc
  /// Communicator runs any number of times; a process backend's
  /// rendezvous cannot be replayed, so its second run() throws
  /// std::logic_error.
  void run(const std::function<void(RankContext&)>& body);

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] TrafficStats traffic() const;
  void reset_traffic();

 private:
  friend class RankContext;
  friend class Request;

  int size_;
  std::shared_ptr<detail::CommState> st_;
  std::unique_ptr<Transport> transport_;
};

}  // namespace pdc::mp
