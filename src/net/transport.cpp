#include "net/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"

namespace deck {

namespace {

/// Shared by every transport flavor: frame/byte totals both ways plus the
/// time recv() spent blocked waiting for a frame (the round-barrier and
/// chunk-stream stall signal).
struct NetMetrics {
  obs::Counter& tx_frames = obs::Registry::global().counter("net.tx.frames");
  obs::Counter& tx_bytes = obs::Registry::global().counter("net.tx.bytes");
  obs::Counter& rx_frames = obs::Registry::global().counter("net.rx.frames");
  obs::Counter& rx_bytes = obs::Registry::global().counter("net.rx.bytes");
  obs::Histogram& rx_wait_ns = obs::Registry::global().histogram("net.rx.wait_ns");

  static NetMetrics& get() {
    static NetMetrics m;
    return m;
  }
};

[[noreturn]] void fail(const std::string& what) { throw NetError("net: " + what); }

[[noreturn]] void fail_errno(const std::string& what) {
  fail(what + ": " + std::strerror(errno));
}

void check_size(std::size_t bytes) {
  if (static_cast<std::uint64_t>(bytes) > kMaxMessageBytes)
    fail("message of " + std::to_string(bytes) + " byte(s) exceeds the " +
         std::to_string(kMaxMessageBytes) + "-byte frame limit");
}

// ---------------------------------------------------------------------------
// Loopback: two FIFO queues shared by the endpoint pair. Each endpoint
// writes its peer's inbox and drains its own; close() wakes the peer so a
// blocked recv() observes the orderly shutdown.

struct LoopbackChannel {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::vector<std::uint8_t>> queue;
  bool closed = false;  // the *writer* closed; readable until drained
};

class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(std::shared_ptr<LoopbackChannel> inbox,
                    std::shared_ptr<LoopbackChannel> outbox)
      : inbox_(std::move(inbox)), outbox_(std::move(outbox)) {}

  ~LoopbackTransport() override { LoopbackTransport::close(); }

  void send(std::span<const std::uint8_t> message) override {
    check_size(message.size());
    if (obs::enabled()) {
      NetMetrics::get().tx_frames.inc();
      NetMetrics::get().tx_bytes.add(message.size());
    }
    std::lock_guard<std::mutex> lock(outbox_->mu);
    if (outbox_->closed) fail("send on a closed loopback transport");
    outbox_->queue.emplace_back(message.begin(), message.end());
    outbox_->cv.notify_one();
  }

  std::optional<std::vector<std::uint8_t>> recv() override { return recv_for(-1); }

  std::optional<std::vector<std::uint8_t>> recv_for(int timeout_ms) override {
    const std::uint64_t wait_start = obs::enabled() ? obs::now_ns() : 0;
    std::unique_lock<std::mutex> lock(inbox_->mu);
    const auto ready = [this] { return !inbox_->queue.empty() || inbox_->closed; };
    if (timeout_ms < 0) {
      inbox_->cv.wait(lock, ready);
    } else if (!inbox_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
      throw NetTimeout("net: recv timed out after " + std::to_string(timeout_ms) +
                       "ms on a loopback transport");
    }
    if (inbox_->queue.empty()) return std::nullopt;  // peer closed, fully drained
    std::vector<std::uint8_t> message = std::move(inbox_->queue.front());
    inbox_->queue.pop_front();
    if (obs::enabled()) {
      NetMetrics::get().rx_wait_ns.observe(obs::now_ns() - wait_start);
      NetMetrics::get().rx_frames.inc();
      NetMetrics::get().rx_bytes.add(message.size());
    }
    return message;
  }

  void close() override {
    std::lock_guard<std::mutex> lock(outbox_->mu);
    outbox_->closed = true;
    outbox_->cv.notify_all();
  }

 private:
  std::shared_ptr<LoopbackChannel> inbox_;
  std::shared_ptr<LoopbackChannel> outbox_;
};

// ---------------------------------------------------------------------------
// Stream sockets (TCP and Unix domain): framed messages over a connected
// socket. All loops handle partial transfers and EINTR; SIGPIPE is
// suppressed per send so a reset peer surfaces as NetError.

void put_u64_le(std::uint8_t out[8], std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64_le(const std::uint8_t in[8]) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

class StreamTransport final : public Transport {
 public:
  explicit StreamTransport(int fd, bool tcp) : fd_(fd) {
    if (tcp) {
      // Request/response protocols (per-round barriers in the CONGEST
      // engine, per-attempt ingest coordination) ship many small frames;
      // leaving Nagle on serializes them against delayed ACKs at ~40ms each.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
  }

  ~StreamTransport() override { StreamTransport::close(); }

  void send(std::span<const std::uint8_t> message) override {
    check_size(message.size());
    if (fd_ < 0) fail("send on a closed stream transport");
    std::uint8_t prefix[8];
    put_u64_le(prefix, message.size());
    send_all(prefix, sizeof prefix);
    send_all(message.data(), message.size());
    if (obs::enabled()) {
      NetMetrics::get().tx_frames.inc();
      NetMetrics::get().tx_bytes.add(message.size());
    }
  }

  std::optional<std::vector<std::uint8_t>> recv() override { return recv_for(-1); }

  std::optional<std::vector<std::uint8_t>> recv_for(int timeout_ms) override {
    if (fd_ < 0) fail("recv on a closed stream transport");
    const std::uint64_t wait_start = obs::enabled() ? obs::now_ns() : 0;
    if (timeout_ms >= 0) {
      // The deadline guards the idle wait between frames; once the length
      // prefix starts arriving the frame is read to completion below.
      pollfd p{fd_, POLLIN, 0};
      for (;;) {
        const int rc = ::poll(&p, 1, timeout_ms);
        if (rc > 0) break;
        if (rc == 0)
          throw NetTimeout("net: recv timed out after " + std::to_string(timeout_ms) +
                           "ms on a stream transport");
        if (errno != EINTR) fail_errno("poll failed");
      }
    }
    std::uint8_t prefix[8];
    const std::size_t got = recv_some(prefix, sizeof prefix);
    // The length prefix is where recv() blocks between frames; payload bytes
    // follow promptly once it lands, so the wait metric stops here.
    if (obs::enabled()) NetMetrics::get().rx_wait_ns.observe(obs::now_ns() - wait_start);
    if (got == 0) return std::nullopt;  // orderly close between frames
    if (got < sizeof prefix) fail("truncated frame: peer closed mid length prefix");
    const std::uint64_t length = get_u64_le(prefix);
    if (length > kMaxMessageBytes)
      fail("frame length " + std::to_string(length) + " exceeds the " +
           std::to_string(kMaxMessageBytes) + "-byte limit — corrupt or hostile peer");
    std::vector<std::uint8_t> message(static_cast<std::size_t>(length));
    if (recv_some(message.data(), message.size()) < message.size())
      fail("truncated frame: peer closed mid payload");
    if (obs::enabled()) {
      NetMetrics::get().rx_frames.inc();
      NetMetrics::get().rx_bytes.add(message.size());
    }
    return message;
  }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  void send_all(const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t w = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        fail_errno("send failed");
      }
      sent += static_cast<std::size_t>(w);
    }
  }

  /// Reads exactly `size` bytes unless EOF interrupts; returns bytes read.
  std::size_t recv_some(std::uint8_t* data, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      const ssize_t r = ::recv(fd_, data + got, size - got, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        fail_errno("recv failed");
      }
      if (r == 0) break;  // EOF
      got += static_cast<std::size_t>(r);
    }
    return got;
  }

  int fd_ = -1;
};

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path)
    fail("unix socket path '" + path + "' must be 1.." +
         std::to_string(sizeof addr.sun_path - 1) + " bytes");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Parsed socket address for either IP family: a ':' in the literal selects
/// AF_INET6 (every IPv6 literal contains one; no IPv4 literal does).
struct IpAddr {
  sockaddr_storage storage{};
  socklen_t len = 0;
  int family = AF_INET;
};

IpAddr make_addr(const std::string& address, std::uint16_t port) {
  IpAddr a;
  if (address.find(':') != std::string::npos) {
    a.family = AF_INET6;
    a.len = sizeof(sockaddr_in6);
    auto* addr6 = reinterpret_cast<sockaddr_in6*>(&a.storage);
    addr6->sin6_family = AF_INET6;
    addr6->sin6_port = htons(port);
    if (::inet_pton(AF_INET6, address.c_str(), &addr6->sin6_addr) != 1)
      fail("invalid IPv6 address '" + address + "'");
  } else {
    a.family = AF_INET;
    a.len = sizeof(sockaddr_in);
    auto* addr4 = reinterpret_cast<sockaddr_in*>(&a.storage);
    addr4->sin_family = AF_INET;
    addr4->sin_port = htons(port);
    if (::inet_pton(AF_INET, address.c_str(), &addr4->sin_addr) != 1)
      fail("invalid IPv4 address '" + address + "'");
  }
  return a;
}

std::uint16_t addr_port(const sockaddr_storage& storage) {
  if (storage.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&storage)->sin6_port);
  return ntohs(reinterpret_cast<const sockaddr_in*>(&storage)->sin_port);
}

}  // namespace

std::optional<std::vector<std::uint8_t>> Transport::recv(const RecvOptions& opts) {
  for (int attempt = 1;; ++attempt) {
    try {
      return recv_for(opts.timeout_ms);
    } catch (const NetTimeout&) {
      if (attempt > opts.retries) throw;
      if (opts.backoff_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(opts.backoff_ms * attempt));
    }
  }
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> loopback_pair() {
  auto a_to_b = std::make_shared<LoopbackChannel>();
  auto b_to_a = std::make_shared<LoopbackChannel>();
  return {std::make_unique<LoopbackTransport>(b_to_a, a_to_b),
          std::make_unique<LoopbackTransport>(a_to_b, b_to_a)};
}

TcpListener::TcpListener(std::uint16_t port, const std::string& bind_address) {
  const IpAddr addr = make_addr(bind_address, port);
  fd_ = ::socket(addr.family, SOCK_STREAM, 0);
  if (fd_ < 0) fail_errno("socket failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr.storage), addr.len) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    fail("bind to " + bind_address + ":" + std::to_string(port) + " failed: " + detail);
  }
  sockaddr_storage bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd_);
    fd_ = -1;
    fail_errno("getsockname failed");
  }
  port_ = addr_port(bound);
  if (::listen(fd_, SOMAXCONN) < 0) {
    ::close(fd_);
    fd_ = -1;
    fail_errno("listen failed");
  }
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Transport> TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<StreamTransport>(fd, /*tcp=*/true);
    if (errno != EINTR) fail_errno("accept failed");
  }
}

std::unique_ptr<Transport> tcp_connect(const std::string& host, std::uint16_t port) {
  const IpAddr addr = make_addr(host, port);
  const int fd = ::socket(addr.family, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr.storage), addr.len) == 0)
    return std::make_unique<StreamTransport>(fd, /*tcp=*/true);
  if (errno == EINTR) {
    // POSIX: an interrupted connect keeps completing asynchronously, and
    // calling connect() again yields EALREADY — wait for writability and
    // read the real outcome from SO_ERROR instead.
    pollfd p{fd, POLLOUT, 0};
    while (::poll(&p, 1, -1) < 0) {
      if (errno != EINTR) {
        const std::string detail = std::strerror(errno);
        ::close(fd);
        fail("connect to " + host + ":" + std::to_string(port) + " failed: poll: " + detail);
      }
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0)
      return std::make_unique<StreamTransport>(fd, /*tcp=*/true);
    const std::string detail = std::strerror(err != 0 ? err : errno);
    ::close(fd);
    fail("connect to " + host + ":" + std::to_string(port) + " failed: " + detail);
  }
  const std::string detail = std::strerror(errno);
  ::close(fd);
  fail("connect to " + host + ":" + std::to_string(port) + " failed: " + detail);
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  const sockaddr_un addr = make_unix_addr(path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) fail_errno("socket failed");
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    fail("bind to unix socket '" + path + "' failed: " + detail);
  }
  if (::listen(fd_, SOMAXCONN) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    ::unlink(path_.c_str());
    fail("listen on unix socket '" + path + "' failed: " + detail);
  }
}

UnixListener::~UnixListener() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

std::unique_ptr<Transport> UnixListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<StreamTransport>(fd, /*tcp=*/false);
    if (errno != EINTR) fail_errno("accept failed");
  }
}

std::unique_ptr<Transport> unix_connect(const std::string& path) {
  const sockaddr_un addr = make_unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket failed");
  // AF_UNIX connect() completes synchronously (or fails); no EINPROGRESS
  // dance like TCP, but EINTR still needs a retry.
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno == EINTR) continue;
    const std::string detail = std::strerror(errno);
    ::close(fd);
    fail("connect to unix socket '" + path + "' failed: " + detail);
  }
  return std::make_unique<StreamTransport>(fd, /*tcp=*/false);
}

}  // namespace deck
