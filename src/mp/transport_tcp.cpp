// TCP socket transport: N processes, full mesh over loopback (and in
// principle any network). Bootstrap: rank 0 binds an ephemeral listener
// and publishes its port by atomically renaming a one-line file into the
// endpoint path. Every other rank opens its own listener, dials rank 0,
// and sends HELLO{rank, my_port}; once all HELLOs are in, rank 0 sends
// everyone the rank -> port MAP, and each rank dials every lower-ranked
// peer (the bootstrap connection doubles as the rank-0 data connection).
// The handshake is the rendezvous barrier: start() returns only after all
// of this rank's connections exist.
//
// Data path: non-blocking sockets with TCP_NODELAY are this backend's
// byte mover; the progress thread waits for work in poll() over every
// socket and a self-pipe that send() writes when it leaves bytes queued.
// Dead-peer detection: EOF or ECONNRESET without a prior kFin frame means
// the peer's process died without announcing (a SIGKILL) and maps to
// rankstate::kKilled.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "transport_progress.hpp"

namespace pdc::mp {
namespace {

constexpr std::uint64_t kHelloMagic = 0x7064635f74637031ULL;  // "pdc_tcp1"

struct Hello {
  std::uint64_t magic;
  std::int32_t rank;
  std::int32_t port;
};

class TcpTransport final : public detail::ProgressTransport {
 public:
  explicit TcpTransport(const TransportOptions& opt)
      : ProgressTransport(opt.world, opt.rank),
        endpoint_(opt.endpoint),
        fds_(static_cast<std::size_t>(opt.world), -1) {
    if (endpoint_.empty())
      throw std::invalid_argument(
          "tcp transport needs an endpoint (path of the rank-0 port file)");
  }

  ~TcpTransport() override {
    stop_progress();
    for (const int fd : fds_)
      if (fd >= 0) ::close(fd);
    for (const int fd : wake_pipe_)
      if (fd >= 0) ::close(fd);
    if (rank_ == 0) std::remove(endpoint_.c_str());
  }

  [[nodiscard]] const char* name() const override { return "tcp"; }

 private:
  // ---- handshake ----

  void handshake(std::chrono::steady_clock::time_point deadline) override {
    if (world_ > 1) connect_mesh(deadline);
    for (const int fd : fds_)
      if (fd >= 0) set_data_mode(fd);
    if (::pipe2(wake_pipe_, O_NONBLOCK) != 0) sys_fail("pipe2(self-pipe)");
  }

  [[noreturn]] static void sys_fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
  }

  static void set_data_mode(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int fl = ::fcntl(fd, F_GETFL);
    if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0)
      sys_fail("fcntl(O_NONBLOCK)");
  }

  static void check_deadline(std::chrono::steady_clock::time_point deadline,
                             const std::string& what) {
    if (std::chrono::steady_clock::now() > deadline)
      throw std::runtime_error("tcp handshake timed out waiting for " + what);
  }

  static int make_listener(int backlog, int* port_out) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(listener)");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      sys_fail("bind(listener)");
    if (::listen(fd, backlog) != 0) sys_fail("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      sys_fail("getsockname");
    *port_out = ntohs(addr.sin_port);
    return fd;
  }

  static int accept_with_deadline(
      int lfd, std::chrono::steady_clock::time_point deadline) {
    for (;;) {
      pollfd p{lfd, POLLIN, 0};
      const int r = ::poll(&p, 1, 50);
      if (r > 0) {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd >= 0) return fd;
        if (errno != EINTR && errno != EAGAIN) sys_fail("accept");
      }
      check_deadline(deadline, "an inbound connection");
    }
  }

  static int dial_with_deadline(
      int port, std::chrono::steady_clock::time_point deadline,
      const std::string& who) {
    for (;;) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) sys_fail("socket(dial)");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
        return fd;
      const int e = errno;
      ::close(fd);
      if (e != ECONNREFUSED && e != EINTR && e != ETIMEDOUT)
        sys_fail("connect(" + who + ")");
      check_deadline(deadline, who);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  static void read_full(int fd, void* buf, std::size_t n,
                        std::chrono::steady_clock::time_point deadline,
                        const std::string& what) {
    auto* p = static_cast<char*>(buf);
    while (n > 0) {
      pollfd pf{fd, POLLIN, 0};
      if (::poll(&pf, 1, 50) > 0) {
        const ssize_t k = ::read(fd, p, n);
        if (k == 0)
          throw std::runtime_error("tcp handshake: peer closed while reading " +
                                   what);
        if (k < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
          sys_fail("read(" + what + ")");
        }
        p += k;
        n -= static_cast<std::size_t>(k);
      }
      check_deadline(deadline, what);
    }
  }

  static void write_full(int fd, const void* buf, std::size_t n,
                         std::chrono::steady_clock::time_point deadline,
                         const std::string& what) {
    const auto* p = static_cast<const char*>(buf);
    while (n > 0) {
      pollfd pf{fd, POLLOUT, 0};
      if (::poll(&pf, 1, 50) > 0) {
        const ssize_t k = ::write(fd, p, n);
        if (k < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
          sys_fail("write(" + what + ")");
        }
        p += k;
        n -= static_cast<std::size_t>(k);
      }
      check_deadline(deadline, what);
    }
  }

  void publish_port(int port) const {
    const std::string tmp = endpoint_ + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) sys_fail("fopen(" + tmp + ")");
    std::fprintf(f, "%d\n", port);
    std::fclose(f);
    if (std::rename(tmp.c_str(), endpoint_.c_str()) != 0)
      sys_fail("rename(port file)");
  }

  [[nodiscard]] int wait_port(
      std::chrono::steady_clock::time_point deadline) const {
    for (;;) {
      FILE* f = std::fopen(endpoint_.c_str(), "r");
      if (f != nullptr) {
        int port = 0;
        const int got = std::fscanf(f, "%d", &port);
        std::fclose(f);
        if (got == 1 && port > 0) return port;
      }
      check_deadline(deadline, "rank 0's port file");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  void connect_mesh(std::chrono::steady_clock::time_point deadline) {
    if (rank_ == 0) {
      int port = 0;
      const int lfd = make_listener(world_, &port);
      publish_port(port);
      std::vector<std::int32_t> ports(static_cast<std::size_t>(world_), 0);
      for (int i = 0; i < world_ - 1; ++i) {
        const int fd = accept_with_deadline(lfd, deadline);
        Hello h{};
        read_full(fd, &h, sizeof(h), deadline, "HELLO");
        if (h.magic != kHelloMagic || h.rank < 1 || h.rank >= world_ ||
            fds_[static_cast<std::size_t>(h.rank)] >= 0)
          throw std::runtime_error("tcp handshake: bad HELLO");
        fds_[static_cast<std::size_t>(h.rank)] = fd;
        ports[static_cast<std::size_t>(h.rank)] = h.port;
      }
      for (int p = 1; p < world_; ++p)
        write_full(fds_[static_cast<std::size_t>(p)], ports.data(),
                   ports.size() * sizeof(std::int32_t), deadline, "MAP");
      ::close(lfd);
      return;
    }
    int my_port = 0;
    const int lfd = rank_ + 1 < world_ ? make_listener(world_, &my_port) : -1;
    const int fd0 =
        dial_with_deadline(wait_port(deadline), deadline, "rank 0");
    Hello hello{kHelloMagic, rank_, my_port};
    write_full(fd0, &hello, sizeof(hello), deadline, "HELLO");
    fds_[0] = fd0;
    std::vector<std::int32_t> ports(static_cast<std::size_t>(world_), 0);
    read_full(fd0, ports.data(), ports.size() * sizeof(std::int32_t), deadline,
              "MAP");
    for (int q = 1; q < rank_; ++q) {
      const int fd = dial_with_deadline(ports[static_cast<std::size_t>(q)],
                                        deadline,
                                        "rank " + std::to_string(q));
      write_full(fd, &hello, sizeof(hello), deadline, "HELLO");
      fds_[static_cast<std::size_t>(q)] = fd;
    }
    for (int i = rank_ + 1; i < world_; ++i) {
      const int fd = accept_with_deadline(lfd, deadline);
      Hello h{};
      read_full(fd, &h, sizeof(h), deadline, "HELLO");
      if (h.magic != kHelloMagic || h.rank <= rank_ || h.rank >= world_ ||
          fds_[static_cast<std::size_t>(h.rank)] >= 0)
        throw std::runtime_error("tcp handshake: bad HELLO");
      fds_[static_cast<std::size_t>(h.rank)] = fd;
    }
    if (lfd >= 0) ::close(lfd);
  }

  // ---- the byte mover, liveness and idling ----

  std::ptrdiff_t write_bytes(int p, const std::uint8_t* data,
                             std::size_t n) override {
    const ssize_t k =
        ::send(fds_[static_cast<std::size_t>(p)], data, n, MSG_NOSIGNAL);
    if (k >= 0) return k;
    return errno == EAGAIN || errno == EINTR ? 0 : kLinkLost;
  }

  /// EOF or a reset is the liveness probe: the base reports kKilled unless
  /// the peer's kFin came first.
  std::ptrdiff_t read_bytes(int p, std::uint8_t* data,
                            std::size_t n) override {
    const ssize_t k = ::read(fds_[static_cast<std::size_t>(p)], data, n);
    if (k > 0) return k;
    return k < 0 && (errno == EAGAIN || errno == EINTR) ? 0 : kLinkLost;
  }

  /// Block until a socket is readable, a socket with queued bytes is
  /// writable, or send() rouses us. poll() is level-triggered, so work a
  /// bounded pass left behind wakes it at once.
  void wait_for_work(bool /*did_work*/) override {
    pfds_.clear();
    pfds_.push_back({wake_pipe_[0], POLLIN, 0});
    for (int p = 0; p < world_; ++p)
      if (p != rank_ && readable(p))
        pfds_.push_back({fds_[static_cast<std::size_t>(p)],
                         static_cast<short>(has_output(p) ? POLLIN | POLLOUT
                                                          : POLLIN),
                         0});
    if (::poll(pfds_.data(), pfds_.size(), 50) > 0 &&
        (pfds_[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
  }

  void wake() override {
    const char b = 1;
    [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &b, 1);
  }

  std::string endpoint_;
  std::vector<int> fds_;  ///< per peer; set by the handshake
  int wake_pipe_[2] = {-1, -1};
  std::vector<pollfd> pfds_;  ///< progress thread only
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(const TransportOptions& opt) {
  return std::make_unique<TcpTransport>(opt);
}

}  // namespace pdc::mp
