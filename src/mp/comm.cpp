#include "pdc/mp/comm.hpp"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "pdc/core/team.hpp"
#include "pdc/obs/obs.hpp"

namespace pdc::mp {

std::int64_t apply(ReduceOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kProd: return a * b;
    case ReduceOp::kMin: return std::min(a, b);
    case ReduceOp::kMax: return std::max(a, b);
  }
  throw std::logic_error("unreachable");
}

std::int64_t identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return 0;
    case ReduceOp::kProd: return 1;
    case ReduceOp::kMin: return std::numeric_limits<std::int64_t>::max();
    case ReduceOp::kMax: return std::numeric_limits<std::int64_t>::min();
  }
  throw std::logic_error("unreachable");
}

// ------------------------------------------------------------ shared state ---

namespace detail {

namespace {
bool matches(const Message& m, int source, int tag) {
  return (source == kAnySource || m.source == source) &&
         (tag == kAnyTag || m.tag == tag);
}

/// TrafficStats fields, indexable so one bump lands in both the
/// per-communicator counter and the process-global "mp.*" registry metric.
enum TrafficField : std::size_t {
  kFMessages = 0,
  kFPayloadWords,
  kFAcks,
  kFRetries,
  kFDropped,
  kFDuplicates,
  kFDelayed,
  kFieldCount,
};

obs::Counter& global_traffic(std::size_t f) {
  static obs::Counter* const g[kFieldCount] = {
      &obs::counter("mp.messages"),   &obs::counter("mp.payload_words"),
      &obs::counter("mp.acks"),       &obs::counter("mp.retries"),
      &obs::counter("mp.dropped"),    &obs::counter("mp.duplicates"),
      &obs::counter("mp.delayed")};
  return *g[f];
}

obs::Histogram& payload_histogram() {
  static obs::Histogram& h = obs::histogram("mp.payload_size_words");
  return h;
}
}  // namespace

/// What a rank is doing. Anything but kRunning means "this rank
/// will never send another message" — blocked receivers use that to turn
/// a guaranteed hang into RankFailedError.
enum RankState : int { kRunning = 0, kFinished, kKilled, kErrored };
static_assert(kRunning == rankstate::kRunning && kFinished == rankstate::kFinished &&
              kKilled == rankstate::kKilled && kErrored == rankstate::kErrored);

struct Mailbox {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Message> queue;
  std::uint64_t arrivals = 0;  ///< messages ever enqueued (monotonic)

  // Reliable-channel state, all under `m`. Reset per run.
  std::unordered_map<int, std::uint64_t> last_seq;  ///< per-source dedup floor
  std::unordered_map<int, std::uint64_t> acked;     ///< per-peer max acked seq
  struct Limbo {
    Message msg;
    std::uint64_t seq = 0;
    int countdown = 0;  ///< deliveries left before this one is released
  };
  std::vector<Limbo> limbo;
};

struct CommState : public Transport::Sink {
  explicit CommState(int n)
      : size(n),
        boxes(static_cast<std::size_t>(n)),
        rank_state(
            std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(n))),
        flow_attempt(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n))) {
    for (auto& b : boxes) b = std::make_unique<Mailbox>();
    reset_run_state();
  }

  int size;
  FaultPlan plan;
  /// The frame mover below this protocol state. Owned by the
  /// Communicator; always outlives the state's use of it.
  Transport* transport = nullptr;
  std::vector<std::unique_ptr<Mailbox>> boxes;
  std::unique_ptr<std::atomic<int>[]> rank_state;
  /// Per ordered (src,dst) pair: delivery attempts so far. Each attempt
  /// draws fresh fault decisions, so retransmits are not doomed to repeat
  /// their predecessor's fate.
  std::unique_ptr<std::atomic<std::uint64_t>[]> flow_attempt;
  /// Per-communicator traffic counters, one per TrafficStats field —
  /// sharded and lock-free, so the old traffic mutex is gone from the
  /// delivery hot path. TrafficStats is the snapshot view over these.
  obs::Counter traffic_c[kFieldCount];

  void reset_run_state() {
    for (int i = 0; i < size; ++i) rank_state[i].store(kRunning);
    const auto n2 = static_cast<std::size_t>(size) * static_cast<std::size_t>(size);
    for (std::size_t i = 0; i < n2; ++i) flow_attempt[i].store(0);
    for (auto& b : boxes) {
      std::lock_guard lk(b->m);
      b->last_seq.clear();
      b->acked.clear();
      b->limbo.clear();
    }
  }

  /// Record that rank r stopped running and wake every blocked receiver
  /// so it can re-evaluate (lock/unlock each mailbox so no waiter misses
  /// the state change between its predicate check and its wait).
  void mark(int r, RankState s) {
    rank_state[r].store(s);
    for (auto& b : boxes) {
      { std::lock_guard lk(b->m); }
      b->cv.notify_all();
    }
  }

  [[nodiscard]] const char* state_name(int r) const {
    switch (rank_state[r].load()) {
      case kFinished: return "finished";
      case kKilled: return "was killed by the fault plan";
      case kErrored: return "exited with an error";
      default: return "is running";
    }
  }

  void count(TrafficField field, std::uint64_t n = 1) {
    traffic_c[field].add(n);
    global_traffic(field).add(n);
  }

  [[nodiscard]] TrafficStats traffic_snapshot() const {
    TrafficStats t;
    t.messages = traffic_c[kFMessages].value();
    t.payload_words = traffic_c[kFPayloadWords].value();
    t.acks = traffic_c[kFAcks].value();
    t.retries = traffic_c[kFRetries].value();
    t.dropped = traffic_c[kFDropped].value();
    t.duplicates = traffic_c[kFDuplicates].value();
    t.delayed = traffic_c[kFDelayed].value();
    return t;
  }

  void reset_traffic() {
    for (auto& c : traffic_c) c.reset();
  }

  /// A data message landed in a mailbox: count it on both channels' shared
  /// ledger and feed the payload-size histogram.
  void count_delivery(std::size_t words) {
    count(kFMessages);
    count(kFPayloadWords, words);
    payload_histogram().record(words);
  }

  // ---- incoming frames (Transport::Sink) ----

  /// A frame addressed to a local rank. On the in-process backend this
  /// runs synchronously on the sending rank's thread; on the process
  /// backends it runs on the transport's progress thread.
  void deliver(Frame&& f) override {
    switch (f.type) {
      case Frame::kData:
        deliver_plain(f.dst, Message{f.src, f.tag, std::move(f.payload)});
        return;
      case Frame::kRData:
        accept_reliable(std::move(f));
        return;
      case Frame::kAck:
        accept_ack(f);
        return;
      default:  // kFin: the process backends consume it themselves
        break;
    }
    throw std::runtime_error("unexpected frame type");
  }

  /// Liveness event from the transport: a remote peer finished, errored,
  /// or vanished (SIGKILL). Wakes every blocked receiver, exactly like a
  /// local rank ending does.
  void peer_stopped(int rank, int state) override {
    if (rank < 0 || rank >= size) return;
    mark(rank, static_cast<RankState>(state));
  }

  // ---- plain channel (the seed behavior, byte for byte) ----

  void deliver_plain(int dest, Message msg) {
    if (dest < 0 || dest >= size) throw std::out_of_range("bad destination");
    count_delivery(msg.data.size());
    Mailbox& box = *boxes[static_cast<std::size_t>(dest)];
    {
      std::lock_guard lk(box.m);
      box.queue.push_back(std::move(msg));
      ++box.arrivals;
    }
    box.cv.notify_all();
  }

  // ---- reliable channel ----

  /// Enqueue a sequenced message unless it is a replay. Returns true if
  /// the sender should be (re-)acked — always, except that the caller
  /// already holds box.m so acks are collected and sent after unlock.
  bool enqueue_if_new(Mailbox& box, Message msg, std::uint64_t seq) {
    auto& floor = box.last_seq[msg.source];
    if (seq <= floor) {
      count(kFDuplicates);
      return true;  // replay: suppress, but re-ack so the sender stops
    }
    floor = seq;
    count_delivery(msg.data.size());
    box.queue.push_back(std::move(msg));
    ++box.arrivals;
    return true;
  }

  /// Transport ack: receiver `from` tells sender `to` that `seq` landed.
  /// The ack-drop decision is made here (the receiver owns the reverse
  /// flow's attempt counter); the surviving ack then travels the real
  /// transport back to the sender — a dropped ack forces a retransmit,
  /// which the receiver's dedup then suppresses.
  void send_ack(int from, int to, std::uint64_t seq) {
    const auto a =
        flow_attempt[static_cast<std::size_t>(from) *
                         static_cast<std::size_t>(size) +
                     static_cast<std::size_t>(to)]
            .fetch_add(1);
    if (chance(plan.drop, fault_hash(plan.seed, kSaltAckDrop,
                                     static_cast<std::uint64_t>(from),
                                     static_cast<std::uint64_t>(to), a))) {
      count(kFDropped);
      return;
    }
    Frame ack;
    ack.type = Frame::kAck;
    ack.src = from;
    ack.dst = to;
    ack.seq = seq;
    transport->send(std::move(ack));
  }

  /// An ack landed at its sender: raise the per-peer high-water mark and
  /// wake the retransmit loop waiting on it.
  void accept_ack(const Frame& f) {
    Mailbox& box = *boxes[static_cast<std::size_t>(f.dst)];
    {
      std::lock_guard lk(box.m);
      auto& high = box.acked[f.src];
      high = std::max(high, f.seq);
    }
    count(kFAcks);
    box.cv.notify_all();
  }

  /// Sender-side fault gate: one delivery attempt's drop / duplicate /
  /// delay decisions, a pure hash of (seed, flow, attempt#). Runs at the
  /// sender on every backend, so a given (seed, plan) exercises the same
  /// recovery paths whether the frame then crosses a function call, a
  /// shared-memory ring, or a socket.
  struct Gate {
    bool send = false;
    bool duplicate = false;
    int delay = 0;
  };

  [[nodiscard]] Gate reliable_gate(int src, int dest) {
    const auto s64 = static_cast<std::uint64_t>(src);
    const auto d64 = static_cast<std::uint64_t>(dest);
    const auto a = flow_attempt[static_cast<std::size_t>(src) *
                                    static_cast<std::size_t>(size) +
                                static_cast<std::size_t>(dest)]
                       .fetch_add(1);
    auto h = [&](std::uint64_t salt) {
      return fault_hash(plan.seed, salt, s64, d64, a);
    };
    Gate g;
    if (plan.jitter && (h(kSaltJitter) & 3u) == 0) std::this_thread::yield();
    const int ds = rank_state[dest].load();
    if (ds == kKilled || ds == kErrored) {
      count(kFDropped);  // host is down; message lost
      return g;
    }
    if (chance(plan.drop, h(kSaltDrop))) {
      count(kFDropped);
      return g;
    }
    g.send = true;
    g.duplicate = chance(plan.dup, h(kSaltDup));
    if (plan.reorder && plan.max_delay > 0 &&
        chance(plan.delay_prob, h(kSaltDelay))) {
      g.delay =
          1 + static_cast<int>(h(kSaltDelayN) %
                               static_cast<std::uint64_t>(plan.max_delay));
    }
    return g;
  }

  /// One reliable frame arriving at its destination mailbox. The dup and
  /// delay fault hints ride the frame, so this stays one "match event"
  /// regardless of backend: age the limbo, release anything whose
  /// countdown expired, then enqueue / hold / duplicate this delivery.
  void accept_reliable(Frame&& f) {
    if (f.dst < 0 || f.dst >= size) throw std::out_of_range("bad destination");
    const bool duplicate = (f.flags & Frame::kFlagDup) != 0;
    Mailbox& box = *boxes[static_cast<std::size_t>(f.dst)];
    // (to, seq) acks owed, sent after box.m is released (never hold two
    // mailbox locks at once).
    std::vector<std::pair<int, std::uint64_t>> acks_due;
    {
      std::lock_guard lk(box.m);
      // Retransmits keep the limbo clock ticking, so a held message can
      // never be stranded forever.
      for (auto& held : box.limbo) --held.countdown;
      for (auto it = box.limbo.begin(); it != box.limbo.end();) {
        if (it->countdown <= 0) {
          const int from = it->msg.source;
          const auto sq = it->seq;
          if (enqueue_if_new(box, std::move(it->msg), sq))
            acks_due.emplace_back(from, sq);
          it = box.limbo.erase(it);
        } else {
          ++it;
        }
      }
      Message msg{f.src, f.tag, f.payload};
      if (f.delay > 0) {
        box.limbo.push_back({std::move(msg), f.seq, f.delay});
        count(kFDelayed);
      } else if (enqueue_if_new(box, std::move(msg), f.seq)) {
        acks_due.emplace_back(f.src, f.seq);
      }
      if (duplicate) {
        // The extra copy arrives straight away; dedup eats whichever
        // copy lands second.
        if (enqueue_if_new(box, Message{f.src, f.tag, std::move(f.payload)},
                           f.seq))
          acks_due.emplace_back(f.src, f.seq);
      }
    }
    box.cv.notify_all();
    for (const auto& [to, sq] : acks_due) send_ack(f.dst, to, sq);
  }

  [[nodiscard]] bool match_available(int rank, int source, int tag) {
    Mailbox& box = *boxes[static_cast<std::size_t>(rank)];
    std::lock_guard lk(box.m);
    for (const auto& m : box.queue)
      if (matches(m, source, tag)) return true;
    return false;
  }

  /// Blocking matched receive. Throws RankFailedError when the awaited
  /// message can provably never arrive (specific source no longer
  /// running; or any-source with every peer stopped).
  Message take(int rank, int source, int tag) {
    if (source < kAnySource || source >= size)
      throw std::out_of_range("bad source rank");
    Mailbox& box = *boxes[static_cast<std::size_t>(rank)];
    std::unique_lock lk(box.m);
    while (true) {
      for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
        if (matches(*it, source, tag)) {
          Message m = std::move(*it);
          box.queue.erase(it);
          return m;
        }
      }
      if (source != kAnySource && source != rank &&
          rank_state[source].load() != kRunning) {
        throw RankFailedError(
            source, "recv from rank " + std::to_string(source) + " (tag " +
                        std::to_string(tag) + "): rank " + state_name(source) +
                        " with no matching message");
      }
      if (source == kAnySource && size > 1) {
        int stopped = 0;
        for (int s = 0; s < size; ++s)
          if (s != rank && rank_state[s].load() != kRunning) ++stopped;
        if (stopped == size - 1)
          throw RankFailedError(
              -1, "recv from any source: every peer rank has stopped with "
                  "no matching message");
      }
      box.cv.wait(lk);
    }
  }
};

}  // namespace detail

// ------------------------------------------------------------ communicator ---

Communicator::Communicator(int size, FaultPlan plan)
    : Communicator(TransportOptions{.world = size, .endpoint = {}},
                   std::move(plan)) {}

Communicator::Communicator(const TransportOptions& topt, FaultPlan plan)
    : size_(topt.world) {
  if (size_ < 1) throw std::invalid_argument("communicator size must be >= 1");
  transport_ = make_transport(topt);
  st_ = std::make_shared<detail::CommState>(size_);
  st_->plan = std::move(plan);
  st_->transport = transport_.get();
}

TrafficStats Communicator::traffic() const { return st_->traffic_snapshot(); }

void Communicator::reset_traffic() { st_->reset_traffic(); }

void Communicator::run(const std::function<void(RankContext&)>& body) {
  auto& st = *st_;
  st.reset_run_state();
  // On a process backend the handshake doubles as a barrier: no rank's
  // frames can arrive before every rank has reset its run state and
  // started listening.
  transport_->start(&st);

  // inproc runs every rank here; a process backend runs its one rank.
  const int local = transport_->local_rank();
  const int first = local < 0 ? 0 : local;
  const int last = local < 0 ? size_ : local + 1;
  const auto up = static_cast<std::size_t>(size_);
  std::vector<std::exception_ptr> root_causes(up);
  std::vector<std::exception_ptr> cascade(up);  // RankFailedError
  // The local ranks are one pooled team region, the caller running rank
  // `first`: a region of one runs inline. Each member catches all its
  // rank's errors, so none reaches the team.
  core::Team::run(last - first, [&](core::TeamContext& team) {
    const int r = first + team.rank();
    const auto ur = static_cast<std::size_t>(r);
    try {
      // Rank r's spans land on the "mp/r" track, whichever thread runs it.
      const obs::ThreadLabel label("mp/" + std::to_string(r));
      RankContext ctx(this, r);
      body(ctx);
      st.mark(r, detail::kFinished);
    } catch (const detail::RankKilledError&) {
      st.mark(r, detail::kKilled);
    } catch (const RankFailedError&) {
      cascade[ur] = std::current_exception();
      st.mark(r, detail::kErrored);
    } catch (...) {
      root_causes[ur] = std::current_exception();
      st.mark(r, detail::kErrored);
    }
  });

  // Tell the peers how this process's rank ended and wait for theirs
  // (nothing to do on inproc, where every rank is local).
  transport_->finish(st.rank_state[first].load());

  // Root causes first: a logic error beats the RankFailedError cascade it
  // triggered. A fault-plan kill is reported deterministically (the set
  // of survivors that noticed can vary with timing; the kill cannot),
  // whether this process ran the victim or the transport reported it.
  for (const auto& e : root_causes)
    if (e) std::rethrow_exception(e);
  for (int r = 0; r < size_; ++r)
    if (st.rank_state[r].load() == detail::kKilled)
      throw RankFailedError(r, "rank " + std::to_string(r) +
                                   " killed by fault plan " +
                                   st.plan.describe());
  for (const auto& e : cascade)
    if (e) std::rethrow_exception(e);
}

// ---------------------------------------------------------------- request ---

bool Request::test() {
  auto st = state_.lock();
  if (!st) throw std::runtime_error("Request outlived its Communicator");
  return st->match_available(rank_, source_, tag_);
}

Message Request::wait() {
  auto st = state_.lock();
  if (!st) throw std::runtime_error("Request outlived its Communicator");
  return st->take(rank_, source_, tag_);
}

// ------------------------------------------------------------ rank context ---

RankContext::RankContext(Communicator* comm, int rank)
    : comm_(comm),
      rank_(rank),
      send_seq_(static_cast<std::size_t>(comm->size()), 0) {
  // kSingle default: the thread that builds the context (the thread the
  // rank body starts on) is the one allowed to communicate.
  comm_thread_.store(std::this_thread::get_id(), std::memory_order_release);
}

void RankContext::check_comm_thread() const {
  if (std::this_thread::get_id() !=
      comm_thread_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        std::string("RankContext threading violation (mode ") +
        (threading_ == Threading::kFunneled ? "kFunneled" : "kSingle") +
        "): communication from a thread that is not the designated comm "
        "thread. Multi-threaded rank bodies must funnel every comm call "
        "through the one thread that called set_threading(kFunneled).");
  }
}

int RankContext::size() const { return comm_->size(); }

const FaultPlan& RankContext::fault_plan() const { return comm_->st_->plan; }

TrafficStats RankContext::traffic() const {
  return comm_->st_->traffic_snapshot();
}

void RankContext::maybe_kill() {
  const FaultPlan& plan = comm_->st_->plan;
  if (plan.kill_rank == rank_ && ops_ > plan.kill_after_ops) {
    if (comm_->st_->transport->local_rank() >= 0) {
      // A real kill: this process vanishes mid-protocol exactly like a
      // crashed host — no goodbye frame, no unwinding. Peers find out
      // through transport liveness (pid probe / connection reset).
      ::raise(SIGKILL);
    }
    throw detail::RankKilledError{};
  }
}

void RankContext::ch_send(int dest, int tag, std::vector<std::int64_t> data) {
  PDC_TRACE_SCOPE("mp.send");
  check_comm_thread();
  ++ops_;
  maybe_kill();
  if (reliable_) {
    reliable_send(dest, tag, std::move(data));
  } else {
    if (dest < 0 || dest >= comm_->size())
      throw std::out_of_range("bad destination");
    Frame f;
    f.type = Frame::kData;
    f.src = rank_;
    f.dst = dest;
    f.tag = tag;
    f.payload = std::move(data);
    comm_->st_->transport->send(std::move(f));
  }
}

Message RankContext::ch_take(int source, int tag) {
  PDC_TRACE_SCOPE("mp.recv");
  check_comm_thread();
  ++ops_;
  maybe_kill();
  if (reliable_ && source == kAnySource)
    throw std::logic_error(
        "recv(kAnySource) is not allowed on the reliable channel: an "
        "any-source wait cannot name the sender it depends on, so a dead "
        "peer whose messages were all dropped becomes an undetectable "
        "hang. Receive per-source (or poll probe(source, tag)) instead.");
  return comm_->st_->take(rank_, source, tag);
}

bool RankContext::peer_running(int rank) const {
  if (rank < 0 || rank >= comm_->st_->size)
    throw std::out_of_range("bad peer rank");
  return comm_->st_->rank_state[rank].load() == detail::kRunning;
}

namespace {
// Reliable-channel retransmission. The transport ack is generated at
// delivery time, so backoff waits are only paid when the fault plan
// actually eats or delays a message.
constexpr std::chrono::microseconds kInitialBackoff{200};
constexpr int kBackoffFactor = 2;
constexpr std::chrono::microseconds kMaxBackoff{5000};
/// Give up and throw RankFailedError after this long without an ack from
/// a peer that is not known to be dead.
constexpr std::chrono::milliseconds kGiveUp{5000};
}  // namespace

void RankContext::reliable_send(int dest, int tag,
                                std::vector<std::int64_t> data) {
  auto& st = *comm_->st_;
  if (dest < 0 || dest >= st.size) throw std::out_of_range("bad destination");
  const std::uint64_t seq = ++send_seq_[static_cast<std::size_t>(dest)];
  detail::Mailbox& mybox = *st.boxes[static_cast<std::size_t>(rank_)];
  const auto deadline = std::chrono::steady_clock::now() + kGiveUp;
  auto backoff = kInitialBackoff;
  for (int attempt = 0;; ++attempt) {
    {
      const int ds = st.rank_state[dest].load();
      if (ds == detail::kKilled || ds == detail::kErrored)
        throw RankFailedError(dest, "send to rank " + std::to_string(dest) +
                                        ": rank " + st.state_name(dest));
    }
    if (attempt > 0) st.count(detail::kFRetries);
    {
      const auto gate = st.reliable_gate(rank_, dest);
      if (gate.send) {
        Frame f;
        f.type = Frame::kRData;
        f.src = rank_;
        f.dst = dest;
        f.tag = tag;
        f.seq = seq;
        if (gate.duplicate) f.flags |= Frame::kFlagDup;
        f.delay = gate.delay;
        f.payload = data;  // copied: retransmits reuse `data`
        st.transport->send(std::move(f));
      }
    }
    {
      std::unique_lock lk(mybox.m);
      // A finished peer still acks through its lingering mailbox, so it
      // is waited out like a running one; only a killed or errored host
      // ends the backoff early.
      const bool done = mybox.cv.wait_for(lk, backoff, [&] {
        const auto it = mybox.acked.find(dest);
        if (it != mybox.acked.end() && it->second >= seq) return true;
        const int ds = st.rank_state[dest].load();
        return ds == detail::kKilled || ds == detail::kErrored;
      });
      if (done) {
        const auto it = mybox.acked.find(dest);
        if (it != mybox.acked.end() && it->second >= seq) return;
        lk.unlock();
        throw RankFailedError(dest, "send to rank " + std::to_string(dest) +
                                        ": rank " + st.state_name(dest) +
                                        " before acking");
      }
    }
    backoff = std::min(backoff * kBackoffFactor, kMaxBackoff);
    if (std::chrono::steady_clock::now() > deadline)
      throw RankFailedError(dest, "send to rank " + std::to_string(dest) +
                                      ": no ack within retry budget (plan " +
                                      st.plan.describe() + ")");
  }
}

void RankContext::send(int dest, int tag, std::vector<std::int64_t> data) {
  if (tag < 0) throw std::invalid_argument("user tags must be >= 0");
  ch_send(dest, tag, std::move(data));
}

void RankContext::send_value(int dest, int tag, std::int64_t value) {
  send(dest, tag, {value});
}

Message RankContext::recv(int source, int tag) { return ch_take(source, tag); }

std::int64_t RankContext::recv_value(int source, int tag) {
  const Message m = recv(source, tag);
  if (m.data.size() != 1)
    throw std::runtime_error("recv_value: message is not a single value");
  return m.data[0];
}

bool RankContext::probe(int source, int tag) {
  check_comm_thread();
  return comm_->st_->match_available(rank_, source, tag);
}

std::uint64_t RankContext::arrivals() const {
  detail::Mailbox& box = *comm_->st_->boxes[static_cast<std::size_t>(rank_)];
  std::lock_guard lk(box.m);
  return box.arrivals;
}

std::uint64_t RankContext::wait_arrivals(std::uint64_t seen) {
  check_comm_thread();
  detail::Mailbox& box = *comm_->st_->boxes[static_cast<std::size_t>(rank_)];
  std::unique_lock lk(box.m);
  // Bounded wait: deliveries and rank-death marks notify the cv, but the
  // timeout keeps liveness re-checks flowing even if neither happens.
  box.cv.wait_for(lk, std::chrono::milliseconds(1),
                  [&] { return box.arrivals > seen; });
  return box.arrivals;
}

Request RankContext::irecv(int source, int tag) {
  return Request(comm_->st_, rank_, source, tag);
}

int RankContext::next_collective_tag() {
  // Reserved negative tag space; -1 is never produced (kAnyTag).
  return -2 - (collective_seq_++);
}

void RankContext::barrier() {
  PDC_TRACE_SCOPE("mp.barrier");
  // Every rank reports up the reduce tree with an empty token, then rank
  // 0 releases them down the broadcast tree.
  std::vector<std::int64_t> token;
  (void)reduce_tree(0, next_collective_tag(), token, ReduceOp::kSum);
  (void)broadcast(0, {});
}

std::vector<std::int64_t> RankContext::broadcast(int root,
                                                 std::vector<std::int64_t> data,
                                                 CollectiveAlgo algo) {
  PDC_TRACE_SCOPE("mp.bcast");
  const int tag = next_collective_tag();
  const int p = size();
  if (root < 0 || root >= p) throw std::out_of_range("bad root");
  if (p == 1) return data;

  if (algo == CollectiveAlgo::kFlat) {
    if (rank_ == root) {
      for (int r = 0; r < p; ++r)
        if (r != root) ch_send(r, tag, data);
      return data;
    }
    return ch_take(root, tag).data;
  }

  // Binomial tree (MPICH-style).
  const int relative = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const int src = (rank_ - mask + p) % p;
      data = ch_take(src, tag).data;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int dst = (rank_ + mask) % p;
      ch_send(dst, tag, data);
    }
    mask >>= 1;
  }
  return data;
}

std::int64_t RankContext::broadcast_value(int root, std::int64_t value,
                                          CollectiveAlgo algo) {
  const auto v = broadcast(root, {value}, algo);
  return v.at(0);
}

std::int64_t RankContext::reduce(int root, std::int64_t value, ReduceOp op,
                                 CollectiveAlgo algo) {
  PDC_TRACE_SCOPE("mp.reduce");
  const int tag = next_collective_tag();
  const int p = size();
  if (root < 0 || root >= p) throw std::out_of_range("bad root");
  if (p == 1) return value;

  if (algo == CollectiveAlgo::kFlat) {
    if (rank_ != root) {
      ch_send(root, tag, {value});
      return identity(op);
    }
    // Per source, in rank order, on either channel: a dead contributor is
    // detected, where an any-source wait stays open while any peer runs.
    std::int64_t acc = value;
    for (int r = 0; r < p; ++r)
      if (r != root) acc = apply(op, acc, ch_take(r, tag).data.at(0));
    return acc;
  }
  std::vector<std::int64_t> acc{value};
  return reduce_tree(root, tag, acc, op) ? acc[0] : identity(op);
}

bool RankContext::reduce_tree(int root, int tag,
                              std::vector<std::int64_t>& payload,
                              ReduceOp op) {
  const int p = size();
  const int relative = (rank_ - root + p) % p;
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((relative & mask) != 0) {
      ch_send(((relative & ~mask) + root) % p, tag, std::move(payload));
      return false;
    }
    const int partner_rel = relative | mask;
    if (partner_rel < p) {
      const Message m = ch_take((partner_rel + root) % p, tag);
      for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = apply(op, payload[i], m.data.at(i));
    }
  }
  return true;
}

std::int64_t RankContext::allreduce(std::int64_t value, ReduceOp op) {
  PDC_TRACE_SCOPE("mp.allreduce");
  const std::int64_t total = reduce(0, value, op);
  return broadcast_value(0, rank_ == 0 ? total : 0);
}

std::vector<std::int64_t> RankContext::gather(int root, std::int64_t value) {
  PDC_TRACE_SCOPE("mp.gather");
  const int tag = next_collective_tag();
  const int p = size();
  if (root < 0 || root >= p) throw std::out_of_range("bad root");
  if (rank_ != root) {
    ch_send(root, tag, {value});
    return {};
  }
  std::vector<std::int64_t> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(rank_)] = value;
  for (int r = 0; r < p; ++r) {
    if (r == root) continue;
    out[static_cast<std::size_t>(r)] = ch_take(r, tag).data.at(0);
  }
  return out;
}

std::int64_t RankContext::scatter(int root,
                                  const std::vector<std::int64_t>& values) {
  PDC_TRACE_SCOPE("mp.scatter");
  const int tag = next_collective_tag();
  const int p = size();
  if (root < 0 || root >= p) throw std::out_of_range("bad root");
  if (rank_ == root) {
    if (values.size() != static_cast<std::size_t>(p))
      throw std::invalid_argument("scatter needs exactly P values at root");
    for (int r = 0; r < p; ++r)
      if (r != root)
        ch_send(r, tag, {values[static_cast<std::size_t>(r)]});
    return values[static_cast<std::size_t>(rank_)];
  }
  return ch_take(root, tag).data.at(0);
}

std::vector<std::int64_t> RankContext::allgather(std::int64_t value) {
  PDC_TRACE_SCOPE("mp.allgather");
  std::vector<std::int64_t> all = gather(0, value);
  if (rank_ != 0) all.assign(static_cast<std::size_t>(size()), 0);
  return broadcast(0, std::move(all));
}

std::vector<std::vector<std::int64_t>> RankContext::alltoall(
    std::vector<std::vector<std::int64_t>> outgoing) {
  PDC_TRACE_SCOPE("mp.alltoall");
  const int tag = next_collective_tag();
  const int p = size();
  if (outgoing.size() != static_cast<std::size_t>(p))
    throw std::invalid_argument("alltoall needs exactly P outgoing buffers");
  // Buffered sends: post everything, then collect per-source.
  for (int d = 0; d < p; ++d) {
    if (d == rank_) continue;
    ch_send(d, tag, std::move(outgoing[static_cast<std::size_t>(d)]));
  }
  std::vector<std::vector<std::int64_t>> incoming(
      static_cast<std::size_t>(p));
  incoming[static_cast<std::size_t>(rank_)] =
      std::move(outgoing[static_cast<std::size_t>(rank_)]);
  for (int s = 0; s < p; ++s) {
    if (s == rank_) continue;
    incoming[static_cast<std::size_t>(s)] = ch_take(s, tag).data;
  }
  return incoming;
}

std::vector<std::int64_t> RankContext::sendrecv(
    int dest, std::vector<std::int64_t> data, int source) {
  PDC_TRACE_SCOPE("mp.sendrecv");
  const int tag = next_collective_tag();
  ch_send(dest, tag, std::move(data));
  return ch_take(source, tag).data;
}

std::int64_t RankContext::exscan(std::int64_t value, ReduceOp op) {
  PDC_TRACE_SCOPE("mp.exscan");
  const int tag = next_collective_tag();
  const int p = size();
  std::int64_t prefix = identity(op);
  if (rank_ > 0) prefix = ch_take(rank_ - 1, tag).data.at(0);
  if (rank_ + 1 < p)
    ch_send(rank_ + 1, tag, {apply(op, prefix, value)});
  return prefix;
}

}  // namespace pdc::mp
