// Shared-memory ring transport: P processes map one shm_open/mmap segment
// holding a lock-free SPSC byte ring per ordered rank pair. Rank 0 creates
// and initializes the segment; everyone else attaches, the attach counts
// double as the rendezvous barrier, and rank 0 unlinks the name once all
// ranks are in (so a crashed world cannot leak the segment). The rings are
// this backend's byte mover: a frame streams through one in pieces, so no
// frame size is tied to the ring's.
//
// Liveness: a peer that stops cleanly says so only with its kFin, which
// the ring carries behind everything the peer sent. Its published state
// alone proves nothing: a peer publishes it in finish() while its
// outbound buffer may still hold the tail of a frame larger than the
// ring. So this probe judges only a peer whose process is gone: its pid
// probe reports ESRCH (the launcher reaps children promptly, so a
// SIGKILLed rank's pid vanishes fast) or its heartbeat, bumped every
// progress pass, goes stale (the zombie window when nobody reaped it).
// Such a peer is judged once its inbound ring is drained, so frames it
// sent before it went are delivered first, and its published state names
// how it ended: still "running" means killed.

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "transport_progress.hpp"

namespace pdc::mp {
namespace {

constexpr std::uint64_t kReadyMagic = 0x7064635f73686d31ULL;  // "pdc_shm1"
/// Data capacity of each ordered rank pair's ring (a power of two).
constexpr std::size_t kRingBytes = std::size_t{1} << 18;

struct alignas(64) SegHead {
  std::atomic<std::uint64_t> ready;  ///< kReadyMagic once fully initialized
  std::int32_t world;
};

struct alignas(64) RankSlot {
  std::atomic<std::int32_t> pid;
  std::atomic<std::int32_t> state;  ///< rankstate::* published by finish()
  std::atomic<std::int32_t> attached;
  std::atomic<std::uint64_t> heartbeat;
};

/// SPSC ring: monotonic positions over kRingBytes of data. Producer owns
/// tail, consumer owns head; cross-process visibility of the copied bytes
/// rides the release/acquire pair on tail (and head for the producer's
/// free-space check).
struct RingHdr {
  alignas(64) std::atomic<std::uint64_t> head;  ///< consumer position
  alignas(64) std::atomic<std::uint64_t> tail;  ///< producer position
};

class ShmTransport final : public detail::ProgressTransport {
 public:
  explicit ShmTransport(const TransportOptions& opt)
      : ProgressTransport(opt.world, opt.rank), endpoint_(opt.endpoint) {
    if (endpoint_.empty() || endpoint_[0] != '/')
      throw std::invalid_argument(
          "shm transport needs a \"/name\" endpoint (shm_open name)");
  }

  ~ShmTransport() override {
    stop_progress();
    if (base_ != nullptr) ::munmap(base_, seg_size());
    if (fd_ >= 0) ::close(fd_);
    if (unlink_owner_) ::shm_unlink(endpoint_.c_str());
  }

  [[nodiscard]] const char* name() const override { return "shm"; }

  void finish(int state) override {
    slot_ptr(rank_)->state.store(state, std::memory_order_release);
    ProgressTransport::finish(state);
  }

 private:
  void handshake(std::chrono::steady_clock::time_point deadline) override {
    if (rank_ == 0) {
      ::shm_unlink(endpoint_.c_str());  // stale segment from a crash
      fd_ = ::shm_open(endpoint_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
      if (fd_ < 0) sys_fail("shm_open(create " + endpoint_ + ")");
      unlink_owner_ = true;
      if (::ftruncate(fd_, static_cast<off_t>(seg_size())) != 0)
        sys_fail("ftruncate(shm segment)");
      map_segment();
      auto* h = new (base_) SegHead;
      h->world = world_;
      for (int r = 0; r < world_; ++r) {
        auto* s = new (slot_ptr(r)) RankSlot;
        s->pid.store(0);
        s->state.store(rankstate::kRunning);
        s->attached.store(0);
        s->heartbeat.store(0);
      }
      for (int i = 0; i < world_ * world_; ++i) {
        auto* r = new (ring_base(i)) RingHdr;
        r->head.store(0);
        r->tail.store(0);
      }
      h->ready.store(kReadyMagic, std::memory_order_release);
    } else {
      while ((fd_ = ::shm_open(endpoint_.c_str(), O_RDWR, 0600)) < 0) {
        if (errno != ENOENT) sys_fail("shm_open(" + endpoint_ + ")");
        wait_or_fail(deadline, "shm segment to appear");
      }
      struct stat sb{};
      for (;;) {
        if (::fstat(fd_, &sb) != 0) sys_fail("fstat(shm segment)");
        if (static_cast<std::size_t>(sb.st_size) >= seg_size()) break;
        wait_or_fail(deadline, "shm segment to be sized");
      }
      map_segment();
      auto* h = reinterpret_cast<SegHead*>(base_);
      while (h->ready.load(std::memory_order_acquire) != kReadyMagic)
        wait_or_fail(deadline, "shm segment to initialize");
      if (h->world != world_)
        throw std::runtime_error("shm segment geometry mismatch: " +
                                 endpoint_);
    }

    // Attach barrier: publish ourselves, wait for the full world.
    auto* me = slot_ptr(rank_);
    me->pid.store(static_cast<std::int32_t>(::getpid()));
    me->heartbeat.store(1);
    me->attached.store(1, std::memory_order_release);
    for (int r = 0; r < world_; ++r)
      while (slot_ptr(r)->attached.load(std::memory_order_acquire) == 0)
        wait_or_fail(deadline, "rank " + std::to_string(r) + " to attach");
    if (rank_ == 0) {
      ::shm_unlink(endpoint_.c_str());
      unlink_owner_ = false;
    }
    last_hb_.assign(static_cast<std::size_t>(world_), 0);
    hb_seen_.assign(static_cast<std::size_t>(world_), clock::now());
  }

  // ---- segment geometry ----

  static constexpr std::size_t kRingStride = sizeof(RingHdr) + kRingBytes;

  [[nodiscard]] std::size_t seg_size() const {
    const auto w = static_cast<std::size_t>(world_);
    return sizeof(SegHead) + w * sizeof(RankSlot) + w * w * kRingStride;
  }
  [[nodiscard]] RankSlot* slot_ptr(int r) const {
    return reinterpret_cast<RankSlot*>(base_ + sizeof(SegHead) +
                                       static_cast<std::size_t>(r) *
                                           sizeof(RankSlot));
  }
  [[nodiscard]] std::uint8_t* ring_base(int idx) const {
    return base_ + sizeof(SegHead) +
           static_cast<std::size_t>(world_) * sizeof(RankSlot) +
           static_cast<std::size_t>(idx) * kRingStride;
  }
  [[nodiscard]] RingHdr* ring_hdr(int src, int dst) const {
    return reinterpret_cast<RingHdr*>(ring_base(src * world_ + dst));
  }
  [[nodiscard]] std::uint8_t* ring_data(int src, int dst) const {
    return ring_base(src * world_ + dst) + sizeof(RingHdr);
  }

  void map_segment() {
    void* p = ::mmap(nullptr, seg_size(), PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
    if (p == MAP_FAILED) sys_fail("mmap(shm segment)");
    base_ = static_cast<std::uint8_t*>(p);
  }

  [[noreturn]] static void sys_fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
  }

  static void wait_or_fail(std::chrono::steady_clock::time_point deadline,
                           const std::string& what) {
    if (std::chrono::steady_clock::now() > deadline)
      throw std::runtime_error("shm handshake timed out waiting for " + what);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // ---- the byte mover: as much of [p, p + n) as the ring takes or holds ----

  std::ptrdiff_t write_bytes(int d, const std::uint8_t* p,
                             std::size_t n) override {
    RingHdr* r = ring_hdr(rank_, d);
    const auto tail = r->tail.load(std::memory_order_relaxed);  // sole producer
    n = std::min<std::size_t>(
        n, kRingBytes - (tail - r->head.load(std::memory_order_acquire)));
    if (n == 0) return 0;
    std::uint8_t* data = ring_data(rank_, d);
    const std::size_t idx = tail & (kRingBytes - 1);
    const std::size_t first = std::min(n, kRingBytes - idx);
    std::memcpy(data + idx, p, first);
    std::memcpy(data, p + first, n - first);
    r->tail.store(tail + n, std::memory_order_release);
    return static_cast<std::ptrdiff_t>(n);
  }

  std::ptrdiff_t read_bytes(int s, std::uint8_t* p, std::size_t n) override {
    RingHdr* r = ring_hdr(s, rank_);
    const auto head = r->head.load(std::memory_order_relaxed);  // sole consumer
    n = std::min<std::size_t>(
        n, r->tail.load(std::memory_order_acquire) - head);
    if (n == 0) return 0;  // an idle pass must not dirty the shared line
    const std::uint8_t* data = ring_data(s, rank_);
    const std::size_t idx = head & (kRingBytes - 1);
    const std::size_t first = std::min(n, kRingBytes - idx);
    std::memcpy(p, data + idx, first);
    std::memcpy(p + first, data, n - first);
    r->head.store(head + n, std::memory_order_release);
    return static_cast<std::ptrdiff_t>(n);
  }

  // ---- liveness and idling ----

  using clock = std::chrono::steady_clock;

  void probe_liveness() override {
    slot_ptr(rank_)->heartbeat.store(++beat_, std::memory_order_relaxed);
    const auto now = clock::now();
    if (now < next_scan_) return;
    next_scan_ = now + std::chrono::milliseconds(5);
    for (int p = 0; p < world_; ++p) {
      if (p == rank_ || stop_reported(p)) continue;
      RankSlot* sl = slot_ptr(p);
      const auto pid = sl->pid.load();
      bool dead = pid > 0 && ::kill(pid, 0) == -1 && errno == ESRCH;
      const auto up = static_cast<std::size_t>(p);
      const auto hb = sl->heartbeat.load(std::memory_order_relaxed);
      if (hb != last_hb_[up]) {
        last_hb_[up] = hb;
        hb_seen_[up] = now;
      } else if (now - hb_seen_[up] > std::chrono::milliseconds(3000)) {
        dead = true;  // zombie window: pid probe can't see an unreaped kill
      }
      // Judge a dead peer only once its inbound ring is drained: frames
      // it sent before dying must be delivered, not misreported as lost.
      RingHdr* r = ring_hdr(p, rank_);
      if (!dead || r->tail.load(std::memory_order_acquire) !=
                       r->head.load(std::memory_order_relaxed))
        continue;
      const int st = sl->state.load(std::memory_order_acquire);
      report_stopped(p, st != rankstate::kRunning ? st : rankstate::kKilled);
    }
  }

  void wait_for_work(bool did_work) override {
    // Poll the rings for a while before sleeping. A ping-pong peer answers
    // within a few microseconds, so parking the thread on every empty pass
    // would put one scheduler wakeup (tens of microseconds) into every
    // message's critical path.
    constexpr int kIdleSpinPasses = 4000;
    if (did_work) {
      idle_passes_ = 0;
    } else if (++idle_passes_ < kIdleSpinPasses) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  std::string endpoint_;
  int fd_ = -1;
  bool unlink_owner_ = false;
  std::uint8_t* base_ = nullptr;
  // Progress thread only.
  std::uint64_t beat_ = 1;
  int idle_passes_ = 0;
  clock::time_point next_scan_{};
  std::vector<std::uint64_t> last_hb_;
  std::vector<clock::time_point> hb_seen_;
};

}  // namespace

std::unique_ptr<Transport> make_shm_transport(const TransportOptions& opt) {
  return std::make_unique<ShmTransport>(opt);
}

}  // namespace pdc::mp
