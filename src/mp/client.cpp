#include "pdc/mp/client.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "pdc/obs/obs.hpp"

namespace pdc::mp {

namespace {

// Wire formats (all int64):
//   request batch: detail::encode_batch's, with seq per (client -> server)
//                  flow, so the server's shard applies each exactly once;
//   reply batch:   [seq, found1, value1, ...]   (one pair per unique get,
//                                                in request order)

struct ClientMetrics {
  obs::Counter& puts = obs::counter("dht.client.puts");
  obs::Counter& gets = obs::counter("dht.client.gets");
  obs::Counter& shed = obs::counter("dht.client.shed");
  obs::Counter& batches = obs::counter("dht.client.batches");
  obs::Counter& coalesced_puts = obs::counter("dht.client.coalesced_puts");
  obs::Counter& deduped_gets = obs::counter("dht.client.deduped_gets");
  obs::Counter& served_batches = obs::counter("dht.client.served_batches");
  obs::Counter& served_puts = obs::counter("dht.client.served_puts");
  obs::Counter& served_gets = obs::counter("dht.client.served_gets");
  obs::Counter& local_ops = obs::counter("dht.client.local_ops");
  obs::Gauge& inflight = obs::gauge("dht.client.inflight");
  obs::Histogram& batch_ops = obs::histogram("dht.client.batch_ops");
  obs::Histogram& op_ns = obs::histogram("dht.client.op_ns");

  static ClientMetrics& instance() {
    static ClientMetrics m;
    return m;
  }
};

}  // namespace

GetResult DhtFuture::wait() {
  if (!valid()) throw std::logic_error("dht: wait() on an empty future");
  client_->wait_for(*op_);
  if (op_->status == DhtOpStatus::kShed)
    throw std::runtime_error("dht: op was shed by admission control (key " +
                             std::to_string(op_->key) + ")");
  return GetResult{op_->key, op_->found, op_->value};
}

DhtClient::DhtClient(RankContext& ctx, Options opts)
    : ctx_(&ctx),
      opts_(opts),
      pool_(std::make_unique<detail::OpPool>()),
      dest_(static_cast<std::size_t>(ctx.size())),
      shard_(ctx.size()) {
  if (opts_.window < 1) throw std::invalid_argument("dht: window must be >= 1");
  if (opts_.max_batch < 1)
    throw std::invalid_argument("dht: max_batch must be >= 1");
  for (auto& q : dest_) {
    q.put_idx.init(static_cast<std::size_t>(opts_.max_batch));
    q.get_idx.init(static_cast<std::size_t>(opts_.max_batch));
  }
}

DhtClient::~DhtClient() {
  flush_pending_counts();
  // Drop the client's own refs first, then check for futures that are
  // still alive (documented misuse: futures must not outlive the client).
  // Leaking the pool turns their dangling ops into a bounded leak instead
  // of a use-after-free.
  for (auto& q : dest_) {
    q.open_puts.clear();
    q.open_gets.clear();
    q.sent.clear();
  }
  if (pool_->live > 0) (void)pool_.release();
}

int DhtClient::owner(std::int64_t key) const {
  return shard_owner(key, ctx_->size());
}

DhtFuture DhtClient::put(std::int64_t key, std::int64_t value) {
  return submit(false, key, value);
}

DhtFuture DhtClient::get(std::int64_t key) { return submit(true, key, 0); }

DhtFuture DhtClient::submit(bool is_get, std::int64_t key,
                            std::int64_t value) {
  if (shut_down_)
    throw std::logic_error("dht: submit after shutdown()");
  auto& m = ClientMetrics::instance();
  (is_get ? pending_.gets : pending_.puts) += 1;
  const int d = owner(key);

  detail::OpRef op = pool_->take();
  op->key = key;
  op->value = value;
  op->dest = d;
  op->is_get = is_get;
  if ((clock_tick_++ % kClockStride) == 0)
    cached_now_ = std::chrono::steady_clock::now();
  op->submitted = cached_now_;

  // Self-owned keys take the local fast path: the shard lives in this
  // client, so apply/answer directly — no batch, no wire, no window.
  // BspHashMap's alltoall skips self the same way.
  if (d == ctx_->rank()) {
    pending_.local += 1;
    if (is_get) {
      const auto [found, v] = shard_.get(key);
      complete(*op, found, v, op->submitted);
    } else {
      shard_.put(key, value);
      complete(*op, true, value, op->submitted);
    }
    return DhtFuture(this, std::move(op));
  }

  auto& q = dest_[static_cast<std::size_t>(d)];
  // Admission control: the shard's window is full. Shed, or block while
  // pumping progress (we keep serving our own shard — backpressure, not
  // deadlock).
  if (q.inflight_ops >= opts_.window) {
    if (opts_.shed) {
      op->status = DhtOpStatus::kShed;
      m.shed.add();
      return DhtFuture(this, std::move(op));
    }
    while (q.inflight_ops >= opts_.window) {
      const auto seen = ctx_->arrivals();
      if (!poll_once()) {
        check_dest_alive(d);
        (void)ctx_->wait_arrivals(seen);
      }
    }
    clock_tick_ = 0;  // the blocked gap must not inflate later ops' stamps
  }

  if (is_get) {
    const auto [idx, fresh] =
        q.get_idx.upsert(key, static_cast<std::uint32_t>(q.get_keys.size()));
    if (fresh) {
      q.get_keys.push_back(key);
      q.open_gets.push_back(op);
    } else {
      // Asked once, fanned out: push onto the key's waiter chain (the new
      // op's raw link takes over the old head's reference).
      op->next_waiter = q.open_gets[idx].release();
      q.open_gets[idx] = op;
      pending_.dedup += 1;
    }
  } else {
    const auto [idx, fresh] =
        q.put_idx.upsert(key, static_cast<std::uint32_t>(q.put_kv.size()));
    if (fresh) {
      q.put_kv.emplace_back(key, value);
    } else {
      q.put_kv[idx].second = value;  // last writer wins in-batch
      pending_.coalesce += 1;
    }
    q.open_puts.push_back(op);
  }
  ++q.open_ops;
  ++q.inflight_ops;
  ++outstanding_;

  maybe_send(d);
  return DhtFuture(this, std::move(op));
}

void DhtClient::maybe_send(int dest) {
  auto& q = dest_[static_cast<std::size_t>(dest)];
  // Ship when the batch is full, or eagerly when the wire to this shard
  // is idle (an isolated op should not wait for company) — under load the
  // in-flight batch's round trip is exactly the coalescing window.
  if (q.open_ops > 0 && (q.open_ops >= opts_.max_batch || q.sent.empty()))
    send_batch(dest);
}

void DhtClient::send_batch(int dest) {
  auto& m = ClientMetrics::instance();
  auto& q = dest_[static_cast<std::size_t>(dest)];

  SentBatch batch;
  batch.seq = ++q.next_seq;
  batch.ops = q.open_ops;
  batch.puts = std::move(q.open_puts);
  batch.gets = std::move(q.open_gets);

  std::vector<std::int64_t> msg =
      detail::encode_batch(batch.seq, q.put_kv, q.get_keys);

  m.batches.add();
  m.batch_ops.record(static_cast<std::uint64_t>(q.open_ops));
  m.inflight.add(q.open_ops);
  flush_pending_counts();

  q.put_kv.clear();
  q.put_idx.clear();
  q.get_keys.clear();
  q.get_idx.clear();
  q.open_puts.clear();
  q.open_gets.clear();
  q.open_ops = 0;
  q.sent.push_back(std::move(batch));

  tagged_send(dest, kDhtReqTag, std::move(msg));
}

void DhtClient::tagged_send(int dest, int tag,
                            std::vector<std::int64_t> data) {
  ReliableModeScope scope(*ctx_, opts_.reliable);
  ctx_->send(dest, tag, std::move(data));
}

bool DhtClient::serve_once() {
  bool progress = false;
  const int p = ctx_->size();
  for (int s = 0; s < p; ++s) {
    if (!ctx_->probe(s, kDhtReqTag)) continue;
    const Message msg = ctx_->recv(s, kDhtReqTag);
    handle_request(s, msg);
    progress = true;
  }
  return progress;
}

void DhtClient::handle_request(int source, const Message& msg) {
  PDC_TRACE_SCOPE("dht.serve_batch");
  auto& m = ClientMetrics::instance();
  const std::size_t gets_at = shard_.apply(source, msg.data);
  std::vector<std::int64_t> reply{msg.data[0]};
  shard_.answer(msg.data, gets_at, reply);
  m.served_batches.add();
  m.served_puts.add(static_cast<std::uint64_t>(msg.data[1]));
  m.served_gets.add(static_cast<std::uint64_t>(msg.data[gets_at]));
  tagged_send(source, kDhtRepTag, std::move(reply));
}

bool DhtClient::absorb_replies() {
  bool progress = false;
  const int p = ctx_->size();
  for (int d = 0; d < p; ++d) {
    auto& q = dest_[static_cast<std::size_t>(d)];
    while (!q.sent.empty() && ctx_->probe(d, kDhtRepTag)) {
      const Message msg = ctx_->recv(d, kDhtRepTag);
      SentBatch batch = std::move(q.sent.front());
      q.sent.pop_front();
      std::size_t i = 0;
      if (msg.data.at(i++) != batch.seq)
        throw std::logic_error("dht: reply desync from rank " +
                               std::to_string(d) + " — replies reordered");
      // One clock sample prices the whole batch: its ops all complete now.
      const auto now = std::chrono::steady_clock::now();
      for (const auto& op : batch.puts) complete(*op, true, op->value, now);
      for (const auto& head : batch.gets) {
        const auto found = msg.data.at(i++) == 1;
        const auto value = msg.data.at(i++);
        for (detail::DhtOp* w = head.get(); w != nullptr; w = w->next_waiter)
          complete(*w, found, value, now);
      }
      q.inflight_ops -= batch.ops;
      outstanding_ -= batch.ops;
      ClientMetrics::instance().inflight.add(-batch.ops);
      progress = true;
      maybe_send(d);  // the wire went idle: push what coalesced meanwhile
    }
  }
  return progress;
}

void DhtClient::complete(detail::DhtOp& op, bool found, std::int64_t value,
                         std::chrono::steady_clock::time_point now) {
  op.status = DhtOpStatus::kDone;
  op.found = found;
  op.value = value;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - op.submitted)
          .count();
  ClientMetrics::instance().op_ns.record(
      ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
}

void DhtClient::flush_pending_counts() {
  auto& m = ClientMetrics::instance();
  if (pending_.puts != 0) m.puts.add(pending_.puts);
  if (pending_.gets != 0) m.gets.add(pending_.gets);
  if (pending_.local != 0) m.local_ops.add(pending_.local);
  if (pending_.dedup != 0) m.deduped_gets.add(pending_.dedup);
  if (pending_.coalesce != 0) m.coalesced_puts.add(pending_.coalesce);
  pending_ = PendingCounts{};
}

bool DhtClient::poll_once() {
  bool progress = serve_once();
  if (absorb_replies()) progress = true;
  return progress;
}

void DhtClient::poll() {
  flush_pending_counts();
  (void)poll_once();
}

void DhtClient::flush() {
  for (int d = 0; d < ctx_->size(); ++d)
    if (dest_[static_cast<std::size_t>(d)].open_ops > 0) send_batch(d);
}

void DhtClient::check_dest_alive(int dest) const {
  const auto& q = dest_[static_cast<std::size_t>(dest)];
  if (q.inflight_ops > 0 && !ctx_->peer_running(dest) &&
      !ctx_->probe(dest, kDhtRepTag))
    throw RankFailedError(dest, "dht: shard owner rank " +
                                    std::to_string(dest) + " stopped with " +
                                    std::to_string(q.inflight_ops) +
                                    " ops outstanding");
}

void DhtClient::wait_for(const detail::DhtOp& op) {
  flush_pending_counts();
  while (op.status == DhtOpStatus::kPending) {
    const auto seen = ctx_->arrivals();
    if (!poll_once()) {
      check_dest_alive(op.dest);
      (void)ctx_->wait_arrivals(seen);
    }
  }
}

void DhtClient::drain() {
  flush();
  flush_pending_counts();
  while (outstanding_ > 0) {
    const auto seen = ctx_->arrivals();
    if (!poll_once()) {
      for (int d = 0; d < ctx_->size(); ++d) check_dest_alive(d);
      (void)ctx_->wait_arrivals(seen);
    }
  }
  clock_tick_ = 0;  // idle time after a drain must not inflate op stamps
}

Message DhtClient::take_serving(int source, int tag) {
  while (true) {
    const auto seen = ctx_->arrivals();
    if (ctx_->probe(source, tag)) return ctx_->recv(source, tag);
    if (!poll_once()) {
      if (!ctx_->peer_running(source) && !ctx_->probe(source, tag))
        throw RankFailedError(
            source, "dht: rank " + std::to_string(source) +
                        " stopped before completing the fence/shutdown "
                        "handshake");
      (void)ctx_->wait_arrivals(seen);
    }
  }
}

void DhtClient::fence() {
  PDC_TRACE_SCOPE("dht.fence");
  drain();
  // Every rank quiesced its own ops before taking part, so once rank 0
  // holds a token from everyone, every pre-fence op in the system has
  // been applied — then 0 releases. Both waits keep serving: a peer may
  // still be draining (and needing answers from us) when we get here.
  const int p = ctx_->size();
  if (p == 1) return;
  if (ctx_->rank() == 0) {
    for (int s = 1; s < p; ++s) (void)take_serving(s, kDhtFenceTag);
    for (int s = 1; s < p; ++s) tagged_send(s, kDhtFenceTag, {});
  } else {
    tagged_send(0, kDhtFenceTag, {});
    (void)take_serving(0, kDhtFenceTag);
  }
}

void DhtClient::shutdown() {
  if (shut_down_) return;
  PDC_TRACE_SCOPE("dht.shutdown");
  drain();
  // Announce "this rank will submit no more ops", then serve until every
  // peer has said the same — a peer's DONE arrives strictly after its
  // last request batch (per-flow FIFO), and it only sends DONE once all
  // its replies are in, so after P-1 DONEs our mailbox holds no unserved
  // work and nobody needs us anymore.
  const int p = ctx_->size();
  for (int s = 0; s < p; ++s)
    if (s != ctx_->rank()) tagged_send(s, kDhtDoneTag, {});
  for (int s = 0; s < p; ++s)
    if (s != ctx_->rank()) (void)take_serving(s, kDhtDoneTag);
  shut_down_ = true;
}

}  // namespace pdc::mp
