#include <cstring>
#include <stdexcept>

#include "pdc/mp/transport.hpp"

namespace pdc::mp {

const char* to_string(TransportKind k) {
  switch (k) {
    case TransportKind::kInproc: return "inproc";
    case TransportKind::kShm: return "shm";
    case TransportKind::kTcp: return "tcp";
  }
  throw std::logic_error("unreachable");
}

TransportKind transport_kind_from_string(const std::string& s) {
  if (s == "inproc") return TransportKind::kInproc;
  if (s == "shm") return TransportKind::kShm;
  if (s == "tcp") return TransportKind::kTcp;
  throw std::invalid_argument("unknown transport \"" + s +
                              "\" (want inproc, shm, or tcp)");
}

std::unique_ptr<Transport> make_transport(const TransportOptions& opt) {
  switch (opt.kind) {
    case TransportKind::kInproc: return make_inproc_transport(opt.world);
    case TransportKind::kShm: return make_shm_transport(opt);
    case TransportKind::kTcp: return make_tcp_transport(opt);
  }
  throw std::logic_error("unreachable");
}

namespace {

/// All ranks are threads of this process: a "send" is a synchronous call
/// into the sink on the sending rank's thread. The seed behavior, byte
/// for byte — no queueing, no progress thread, and no liveness machinery
/// (ranks mark their own terminal state in CommState directly, so
/// finish is a no-op).
class InprocTransport final : public Transport {
 public:
  explicit InprocTransport(int world) : world_(world) {}

  [[nodiscard]] const char* name() const override { return "inproc"; }
  [[nodiscard]] int local_rank() const override { return -1; }

  void start(Sink* sink) override { sink_ = sink; }

  void send(Frame&& f) override {
    if (f.dst < 0 || f.dst >= world_)
      throw std::out_of_range("bad destination");
    sink_->deliver(std::move(f));
  }

  void finish(int /*state*/) override {}

 private:
  int world_;
  Sink* sink_ = nullptr;
};

}  // namespace

std::unique_ptr<Transport> make_inproc_transport(int world) {
  return std::make_unique<InprocTransport>(world);
}

// ------------------------------------------------------------------ wire ---

namespace wire {

namespace {
template <class T>
void put(std::vector<std::uint8_t>& out, T v) {
  const auto n = out.size();
  out.resize(n + sizeof(T));
  std::memcpy(out.data() + n, &v, sizeof(T));
}

template <class T>
[[nodiscard]] T get(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
}  // namespace

void encode_frame(const Frame& f, std::vector<std::uint8_t>& out) {
  // No exact reserve here: senders append frame after frame to one
  // buffer, which must grow geometrically to stay O(1) per frame.
  put<std::uint32_t>(out, static_cast<std::uint32_t>(frame_bytes(f)));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(f.type));
  put<std::int32_t>(out, f.src);
  put<std::int32_t>(out, f.dst);
  put<std::int32_t>(out, f.tag);
  put<std::uint32_t>(out, f.flags);
  put<std::int32_t>(out, f.delay);
  put<std::uint32_t>(out, 0);  // pad: 8-align seq and the payload
  put<std::uint64_t>(out, f.seq);
  put<std::uint64_t>(out, static_cast<std::uint64_t>(f.payload.size()));
  if (!f.payload.empty()) {
    const auto n = out.size();
    out.resize(n + 8 * f.payload.size());
    std::memcpy(out.data() + n, f.payload.data(), 8 * f.payload.size());
  }
}

std::size_t decode_frame(const std::uint8_t* p, std::size_t n, Frame& out) {
  if (n < kFrameHeaderBytes) return 0;
  const auto total = get<std::uint32_t>(p);
  if (total < kFrameHeaderBytes || (total - kFrameHeaderBytes) % 8 != 0)
    throw std::runtime_error("malformed frame: bad length " +
                             std::to_string(total));
  const auto type = get<std::uint32_t>(p + 4);
  if (type < Frame::kData || type > Frame::kFin)
    throw std::runtime_error("malformed frame: bad type " +
                             std::to_string(type));
  if (n < total) return 0;
  out.type = static_cast<Frame::Type>(type);
  out.src = get<std::int32_t>(p + 8);
  out.dst = get<std::int32_t>(p + 12);
  out.tag = get<std::int32_t>(p + 16);
  out.flags = get<std::uint32_t>(p + 20);
  out.delay = get<std::int32_t>(p + 24);
  out.seq = get<std::uint64_t>(p + 32);
  const auto words = get<std::uint64_t>(p + 40);
  if (kFrameHeaderBytes + 8 * words != total)
    throw std::runtime_error("malformed frame: payload/length mismatch");
  out.payload.resize(words);
  if (words != 0)
    std::memcpy(out.payload.data(), p + kFrameHeaderBytes, 8 * words);
  return total;
}

}  // namespace wire

}  // namespace pdc::mp
