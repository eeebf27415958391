#include "transport_progress.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace pdc::mp::detail {

namespace {
/// The most a pass reads from one peer.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;
}  // namespace

ProgressTransport::ProgressTransport(int world, int rank)
    : world_(world),
      rank_(rank),
      peers_(std::make_unique<Peer[]>(static_cast<std::size_t>(world))) {
  if (rank < 0 || rank >= world)
    throw std::invalid_argument("rank must be in [0, world)");
}

void ProgressTransport::start(Sink* sink) {
  if (sink_ != nullptr)
    throw std::logic_error(
        "a cross-process Communicator supports exactly one run(): the "
        "rendezvous handshake cannot be replayed");
  sink_ = sink;
  handshake(std::chrono::steady_clock::now() + kHandshakeTimeout);
  progress_ = std::thread([this] { progress_loop(); });
}

void ProgressTransport::stop_progress() {
  if (!progress_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  wake();
  progress_.join();
}

void ProgressTransport::send(Frame&& f) {
  const int d = f.dst;
  if (d < 0 || d >= world_) throw std::out_of_range("bad destination");
  if (d == rank_) {  // self-flow never touches the wire
    sink_->deliver(std::move(f));
    return;
  }
  Peer& q = peers_[d];
  {
    std::lock_guard lk(q.mu);
    if (q.gone) return;  // silent no-op: the host is gone
    wire::encode_frame(f, q.out);
    // Write through while the link has room, so a hop costs no hand-off
    // to the progress thread; it writes whatever is left.
    write_some(d, q);
    if (q.out.empty()) return;
  }
  wake();
}

void ProgressTransport::finish(int state) {
  for (int p = 0; p < world_; ++p) {
    if (p == rank_) continue;
    Frame f;
    f.type = Frame::kFin;
    f.src = rank_;
    f.dst = p;
    f.seq = static_cast<std::uint64_t>(state);
    send(std::move(f));
  }
  // Drain every peer's bytes, the kFin last, then wait for every peer's
  // stop, so all processes agree on the outcomes before the runner picks
  // what to throw. Each phase gives up after 2 s.
  for (const bool drain : {true, false}) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    for (int p = 0; p < world_; ++p)
      while (p != rank_ && (drain ? has_output(p) : !stop_reported(p)) &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop_progress();
}

void ProgressTransport::report_stopped(int peer, int state) {
  if (peer < 0 || peer >= world_ || peer == rank_) return;
  Peer& q = peers_[peer];
  if (q.stopped.exchange(true)) return;
  if (state == rankstate::kKilled) {
    std::lock_guard lk(q.mu);
    drop_output(q);  // the host is gone; these bytes can never land
  }
  sink_->peer_stopped(peer, state);
}

bool ProgressTransport::stop_reported(int peer) const {
  return peers_[peer].stopped.load();
}

bool ProgressTransport::readable(int peer) const { return !peers_[peer].eof; }

bool ProgressTransport::has_output(int peer) {
  Peer& q = peers_[peer];
  std::lock_guard lk(q.mu);
  return !q.out.empty();
}

void ProgressTransport::drop_output(Peer& q) {
  q.gone = true;
  q.out.clear();
  q.out_off = 0;
}

bool ProgressTransport::write_some(int peer, Peer& q) {
  if (q.out.empty()) return false;
  const auto k =
      write_bytes(peer, q.out.data() + q.out_off, q.out.size() - q.out_off);
  if (k == kLinkLost) {
    drop_output(q);  // the read side sees the loss and reports it
    return false;
  }
  q.out_off += static_cast<std::size_t>(k);
  // Reclaim the written prefix once it is half the buffer: every byte is
  // moved at most once more than it is written.
  if (2 * q.out_off >= q.out.size()) {
    q.out.erase(q.out.begin(),
                q.out.begin() + static_cast<std::ptrdiff_t>(q.out_off));
    q.out_off = 0;
  }
  return k > 0;
}

bool ProgressTransport::read_some(int peer) {
  Peer& q = peers_[peer];
  if (q.eof) return false;
  // Grows only while a frame is larger than any seen before.
  if (q.in.size() < q.in_len + kReadChunk) q.in.resize(q.in_len + kReadChunk);
  const auto k = read_bytes(peer, q.in.data() + q.in_len, kReadChunk);
  if (k == kLinkLost) {
    q.eof = true;
    {
      std::lock_guard lk(q.mu);
      drop_output(q);
    }
    // After a kFin this is the orderly goodbye; without one, a kill.
    report_stopped(peer, rankstate::kKilled);
    return true;
  }
  if (k == 0) return false;
  q.in_len += static_cast<std::size_t>(k);
  std::size_t off = 0;
  try {
    for (;;) {
      Frame f;
      const auto used =
          wire::decode_frame(q.in.data() + off, q.in_len - off, f);
      if (used == 0) break;
      off += used;
      if (f.type == Frame::kFin)
        report_stopped(peer, static_cast<int>(f.seq));
      else
        sink_->deliver(std::move(f));
    }
  } catch (const std::exception& e) {
    // A stream that stops parsing cannot be resynchronised. Stop reading
    // it and report the peer failed, so that waits on it end in
    // RankFailedError instead of the exception ending the process. Writes
    // go on, so this rank's own kFin still reaches the peer.
    std::fprintf(stderr, "pdc %s transport: no longer reading rank %d: %s\n",
                 name(), peer, e.what());
    q.eof = true;
    report_stopped(peer, rankstate::kErrored);
    return true;
  }
  if (off > 0) std::memmove(q.in.data(), q.in.data() + off, q.in_len - off);
  q.in_len -= off;
  return true;
}

void ProgressTransport::progress_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    bool did = false;
    for (int p = 0; p < world_; ++p) {
      if (p == rank_) continue;
      Peer& q = peers_[p];
      std::lock_guard lk(q.mu);
      did = write_some(p, q) || did;
    }
    for (int p = 0; p < world_; ++p)
      if (p != rank_) did = read_some(p) || did;
    probe_liveness();
    wait_for_work(did);
  }
}

}  // namespace pdc::mp::detail
