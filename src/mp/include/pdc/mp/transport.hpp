#pragma once
// The transport seam under mp::Communicator.
//
// Everything above this line — collectives, the reliable channel's
// seq/ack/retransmit protocol, the DHT, fault gating — speaks in Frames:
// typed, tagged, rank-addressed packets. Everything below is a Transport:
// a frame mover with rank liveness. Three backends implement it:
//
//  - inproc  (transport_inproc.cpp): all P ranks are threads of this
//    process; send() hands the frame straight to the destination mailbox.
//    The seed behavior, byte for byte.
//  - shm     (transport_shm.cpp): P processes map one shm_open/mmap
//    segment of lock-free SPSC byte rings, one per ordered rank pair,
//    with a rendezvous/attach handshake and pid-probe dead-peer
//    detection. A SIGKILLed rank is noticed because its pid vanishes
//    while its published state still says "running".
//  - tcp     (transport_tcp.cpp): P processes full-mesh connected via a
//    rank-0 bootstrap listener that exchanges the rank -> port map over
//    non-blocking sockets. EOF/ECONNRESET without a prior FIN frame maps
//    to "rank killed".
//
// shm and tcp share one progress engine (src/mp/transport_progress.hpp):
// wire-encoded frames queue in one byte buffer per peer, and a progress
// thread's bounded passes write to and read from every peer. A backend
// adds only its handshake, its byte mover (a ring or a socket, either of
// which carries a frame of any size in pieces), its liveness probe and
// its wait for work.
//
// The contract every backend must honor (the conformance suite in
// tests/mp_transport_test.cpp checks it across the full matrix):
//  - per ordered (src, dst) pair, frames arrive exactly once and in send
//    order (the reliable channel adds its own end-to-end machinery ON TOP
//    of this: the fault plan drops/dups/delays frames *above* the
//    transport, at the sender gate, so a lossy run exercises recovery
//    identically on every backend);
//  - a peer that stops — finished, errored, or killed — is eventually
//    reported to the sink exactly once. A clean stop is reported only
//    through the peer's kFin, which arrives behind every frame the peer
//    sent, so no receiver hears "finished" while a frame is still on its
//    way. Only a peer whose process is gone is judged otherwise (tcp: EOF
//    without a kFin; shm: a vanished pid or a stale heartbeat, named by
//    the state the peer published in finish());
//  - send() to a stopped peer is a silent no-op (the layer above detects
//    dead peers through rank liveness, not through send failures), and
//  - one run per process backend: Communicator::run() calls start() and
//    then finish() once each run, and a shm or tcp transport's second
//    start() throws std::logic_error, because its rendezvous cannot be
//    replayed. inproc's start() and finish() may run any number of times.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pdc::mp {

/// One transport-level packet. `payload` is the user/protocol data in
/// int64 words (the unit all traffic accounting uses).
struct Frame {
  enum Type : std::uint32_t {
    kData = 1,  ///< plain-channel message
    kRData,     ///< reliable-channel message (seq, dup/delay fault hints)
    kAck,       ///< transport ack: src acked dst's seq
    kFin,       ///< src's terminal RankState rides in `seq`
  };
  static constexpr std::uint32_t kFlagDup = 1u;  ///< deliver a second copy

  Type type = kData;
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::uint32_t flags = 0;
  std::int32_t delay = 0;  ///< reorder-limbo countdown (fault-plan hint)
  std::uint64_t seq = 0;
  std::vector<std::int64_t> payload;
};

/// Terminal rank-state codes carried by kFin frames and peer_stopped().
/// Numerically identical to detail::RankState in comm.cpp (static_asserted
/// there) — backends speak these without seeing the protocol's internals.
namespace rankstate {
inline constexpr int kRunning = 0;
inline constexpr int kFinished = 1;
inline constexpr int kKilled = 2;
inline constexpr int kErrored = 3;
}  // namespace rankstate

enum class TransportKind { kInproc, kShm, kTcp };

[[nodiscard]] const char* to_string(TransportKind k);
/// Parse "inproc" / "shm" / "tcp" (throws std::invalid_argument).
[[nodiscard]] TransportKind transport_kind_from_string(const std::string& s);

/// How a process joins a communicator world.
struct TransportOptions {
  TransportKind kind = TransportKind::kInproc;
  int rank = 0;   ///< this process's rank (ignored for inproc)
  int world = 1;  ///< total ranks
  /// Rendezvous point shared by all ranks: the shm segment name
  /// ("/pdc_..."), or the path of the file where rank 0 publishes its
  /// bootstrap TCP port. Unused for inproc. The handshake waits 10 s for
  /// every rank to attach (shm) or connect (tcp), then throws.
  std::string endpoint;
};

class Transport {
 public:
  /// Where incoming frames and liveness events land. Implemented by the
  /// communicator's shared state; backends call it from their progress
  /// thread (inproc: from the sending rank's thread).
  class Sink {
   public:
    virtual ~Sink() = default;
    /// A frame addressed to a rank local to this process.
    virtual void deliver(Frame&& f) = 0;
    /// Peer `rank` stopped with terminal RankState `state` (a
    /// detail::RankState value). Called at most once per peer.
    virtual void peer_stopped(int rank, int state) = 0;
  };

  virtual ~Transport() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// The one rank this process runs (shm, tcp), or -1 when every rank is
  /// a thread of this process (inproc). With a local rank, each rank is
  /// its own OS process: a rank-kill is a real SIGKILL and traffic
  /// ledgers are per process.
  [[nodiscard]] virtual int local_rank() const = 0;

  /// Rendezvous + handshake; the sink starts receiving frames once this
  /// returns. Acts as a barrier across ranks on the process backends: no
  /// data frame can arrive before every rank has started. A process
  /// backend starts once; a second call throws std::logic_error.
  virtual void start(Sink* sink) = 0;

  /// Queue one frame toward f.dst. Thread-safe and never blocks: bytes
  /// the wire cannot take yet wait in the process backends' per-peer
  /// buffer.
  virtual void send(Frame&& f) = 0;

  /// End of a run, once the local ranks are done: send every peer a kFin
  /// carrying `state` (the local rank's terminal RankState) behind the
  /// frames already queued, wait up to 2 s for them to drain and up to 2 s
  /// for every peer's stop, then tear down. After finish() the sink is
  /// never called again. A no-op on inproc, whose ranks mark their own
  /// terminal state.
  virtual void finish(int state) = 0;
};

[[nodiscard]] std::unique_ptr<Transport> make_inproc_transport(int world);
[[nodiscard]] std::unique_ptr<Transport> make_shm_transport(
    const TransportOptions& opt);
[[nodiscard]] std::unique_ptr<Transport> make_tcp_transport(
    const TransportOptions& opt);
/// Dispatch on opt.kind.
[[nodiscard]] std::unique_ptr<Transport> make_transport(
    const TransportOptions& opt);

namespace wire {

/// Serialized frame: [u32 total_bytes][u32 type][i32 src][i32 dst]
/// [i32 tag][u32 flags][i32 delay][u32 pad][u64 seq][u64 payload_words]
/// [words...]. The pad keeps seq and the payload 8-aligned in any buffer
/// that starts aligned. Appended to `out` (not cleared), so senders can
/// batch frames.
inline constexpr std::size_t kFrameHeaderBytes = 48;

void encode_frame(const Frame& f, std::vector<std::uint8_t>& out);

/// Decode one frame starting at p (n bytes available). Returns the bytes
/// consumed, or 0 if the buffer does not yet hold a complete frame.
/// Throws std::runtime_error on a malformed header.
std::size_t decode_frame(const std::uint8_t* p, std::size_t n, Frame& out);

/// Exact wire size of a frame.
[[nodiscard]] inline std::size_t frame_bytes(const Frame& f) {
  return kFrameHeaderBytes + 8 * f.payload.size();
}

}  // namespace wire

}  // namespace pdc::mp
