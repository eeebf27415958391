#pragma once
// The progress engine shared by the process backends (shm, tcp).
//
// ProgressTransport implements the whole Transport contract once: the
// one-start rule, send()'s destination check and self-flow short-circuit,
// one outbound byte buffer and one inbound reassembly buffer per peer,
// kFin handling and the once-only peer_stopped report, finish(), and the
// progress thread. A backend supplies four things: its handshake, a byte
// mover (write_bytes/read_bytes over a ring or a socket, either of which
// may take or give any piece of a frame), its liveness probe, and its
// wait for work.
//
// Each progress pass writes to every peer, then reads at most one
// kReadChunk from every peer, probes liveness and waits for work; stop_ is
// checked between passes. Bounding the pass is what keeps acks going out
// and finish() able to join while a peer floods this rank with frames.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pdc/mp/transport.hpp"

namespace pdc::mp::detail {

class ProgressTransport : public Transport {
 public:
  ProgressTransport(const ProgressTransport&) = delete;
  ProgressTransport& operator=(const ProgressTransport&) = delete;

  [[nodiscard]] int local_rank() const final { return rank_; }

  void start(Sink* sink) final;
  void send(Frame&& f) final;
  void finish(int state) override;

 protected:
  /// How long start() waits for every rank to attach (shm) or connect (tcp).
  static constexpr std::chrono::seconds kHandshakeTimeout{10};
  /// A byte mover's answer once the link to a peer is gone for good.
  static constexpr std::ptrdiff_t kLinkLost = -1;

  ProgressTransport(int world, int rank);
  /// Join the progress thread. Each backend's destructor calls this before
  /// it releases anything the hooks below touch.
  void stop_progress();

  /// Rendezvous with every rank; throw once `deadline` passes.
  virtual void handshake(std::chrono::steady_clock::time_point deadline) = 0;
  /// Move up to n bytes to / from `peer` without blocking. Return the
  /// bytes moved (0: no room, or nothing to read) or kLinkLost. Writes run
  /// under the peer's send lock; reads run on the progress thread only.
  virtual std::ptrdiff_t write_bytes(int peer, const std::uint8_t* p,
                                     std::size_t n) = 0;
  virtual std::ptrdiff_t read_bytes(int peer, std::uint8_t* p,
                                    std::size_t n) = 0;
  /// Once per pass: report peers whose process is gone without a kFin
  /// arriving.
  virtual void probe_liveness() {}
  /// End of a pass: spin, sleep or block until there may be work.
  virtual void wait_for_work(bool did_work) = 0;
  /// Rouse a progress thread that may be blocked in wait_for_work.
  virtual void wake() {}

  void report_stopped(int peer, int state);
  [[nodiscard]] bool stop_reported(int peer) const;
  /// Progress thread only: the peer's link may still carry bytes in.
  [[nodiscard]] bool readable(int peer) const;
  /// Bytes are queued toward `peer` that its link has not taken yet.
  [[nodiscard]] bool has_output(int peer);

  const int world_;
  const int rank_;

 private:
  struct Peer {
    std::mutex mu;                  ///< guards out, out_off, gone
    std::vector<std::uint8_t> out;  ///< encoded frames; [0, out_off) written
    std::size_t out_off = 0;
    bool gone = false;  ///< the peer takes no more bytes: sends are no-ops
    bool eof = false;   ///< progress thread only: no more bytes will come
    std::vector<std::uint8_t> in;  ///< progress thread only; [0, in_len)
    std::size_t in_len = 0;        ///< holds at most one partial frame
    std::atomic<bool> stopped{false};
  };

  bool write_some(int peer, Peer& q);  // caller holds q.mu
  bool read_some(int peer);
  static void drop_output(Peer& q);  // caller holds q.mu
  void progress_loop();

  Sink* sink_ = nullptr;
  std::unique_ptr<Peer[]> peers_;
  std::atomic<bool> stop_{false};
  std::thread progress_;
};

}  // namespace pdc::mp::detail
