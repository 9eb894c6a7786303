#pragma once

// Minimal length-prefixed message transport — the shipping layer under the
// multi-process sketch ingest (src/net/ingest.*). A Transport moves whole
// messages (byte vectors) between exactly two endpoints, reliably and in
// order; framing is a little-endian u64 length prefix followed by the
// payload, so the receiver always knows message boundaries and a short read
// is a detectable fault, never a misparse.
//
// Three implementations:
//   - LoopbackTransport (loopback_pair()): an in-process queue pair for
//     deterministic tests and benches — no sockets, no timing, FIFO per
//     direction, close() observable from the peer.
//   - TCP (TcpListener / tcp_connect): POSIX stream sockets over IPv4 or
//     IPv6 (an address containing ':' selects AF_INET6 — "::1" works
//     everywhere "127.0.0.1" does), loopback or LAN. Partial reads/writes
//     and EINTR are handled; peers on different hosts interoperate because
//     framing is endian-stable.
//   - Unix domain (UnixListener / unix_connect): stream sockets over a
//     filesystem path for same-host worker fleets — no port allocation, no
//     TCP stack, and the listener unlinks its path on destruction. Framing
//     and fault semantics are identical to TCP (same stream transport).
//
// Faults raise NetError (closed peer, truncated frame, oversized frame,
// socket errors) — never UB and never a silent short message. Orderly
// shutdown is distinguishable: recv() returns std::nullopt when the peer
// closed after a complete message.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace deck {

/// Transport-layer fault: closed/reset peer, truncated or oversized frame,
/// or an OS socket error.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A recv deadline expired with the peer still connected. Subclass of
/// NetError so every existing catch keeps working; death-detection code
/// catches this specifically to distinguish "silent" from "gone".
class NetTimeout : public NetError {
 public:
  using NetError::NetError;
};

/// Blocking policy for Transport::recv(const RecvOptions&): how long one
/// attempt may wait, how many times to retry after a timeout, and the
/// linear backoff between retries. The default blocks forever (exactly
/// recv()).
struct RecvOptions {
  int timeout_ms = -1;  // per-attempt wait; < 0 blocks indefinitely
  int retries = 0;      // extra attempts after the first times out
  int backoff_ms = 0;   // sleep backoff_ms * attempt between attempts
};

/// Frames larger than this are rejected on both send and receive — a forged
/// length prefix must fail on arithmetic, not on a giant allocation.
inline constexpr std::uint64_t kMaxMessageBytes = 1ull << 30;

/// Reliable, ordered, message-oriented channel between two endpoints.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Ships one message (empty allowed). Throws NetError if the peer is gone
  /// or the message exceeds kMaxMessageBytes.
  virtual void send(std::span<const std::uint8_t> message) = 0;

  /// Blocks for the next message. Returns std::nullopt on orderly close
  /// (peer closed with no partial frame pending); throws NetError on a
  /// truncated frame, oversized prefix, or socket error.
  virtual std::optional<std::vector<std::uint8_t>> recv() = 0;

  /// recv() with a deadline: waits at most `timeout_ms` for the *start* of
  /// the next frame, then throws NetTimeout (the peer may still be alive —
  /// the caller decides whether silence means death). timeout_ms < 0 blocks
  /// forever, identical to recv(). Once a frame starts arriving it is read
  /// to completion regardless of the deadline.
  virtual std::optional<std::vector<std::uint8_t>> recv_for(int timeout_ms) = 0;

  /// Policy-driven recv: up to opts.retries + 1 attempts of
  /// recv_for(opts.timeout_ms) with linear backoff between them; throws
  /// NetTimeout when every attempt times out.
  std::optional<std::vector<std::uint8_t>> recv(const RecvOptions& opts);

  /// Closes this endpoint. Further send() calls throw; the peer's pending
  /// messages stay readable and its next recv() after draining them
  /// observes the close.
  virtual void close() = 0;
};

/// Two connected in-process endpoints: messages sent on `first` arrive at
/// `second` and vice versa. Thread-safe per endpoint; FIFO per direction.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> loopback_pair();

/// Listening TCP socket bound to an address (default IPv4 loopback,
/// ephemeral port — read the chosen one back with port()). Passing an IPv6
/// address ("::1", "::") binds an AF_INET6 socket instead; the address
/// family is inferred from the literal.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0, const std::string& bind_address = "127.0.0.1");
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The bound port (the ephemeral choice when constructed with port 0).
  std::uint16_t port() const { return port_; }

  /// Blocks for one inbound connection. Throws NetError on failure.
  std::unique_ptr<Transport> accept();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to a listening peer (IPv4 or IPv6 literal — ':' in `host`
/// selects AF_INET6). Throws NetError when the connection is refused or the
/// address is invalid.
std::unique_ptr<Transport> tcp_connect(const std::string& host, std::uint16_t port);

/// Listening Unix-domain stream socket bound to a filesystem path. The path
/// must not exist yet (stale-socket takeover is an operator decision, not a
/// library default); it is unlinked when the listener is destroyed.
class UnixListener {
 public:
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  const std::string& path() const { return path_; }

  /// Blocks for one inbound connection. Throws NetError on failure.
  std::unique_ptr<Transport> accept();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Connects to a listening Unix-domain peer. Throws NetError when nothing
/// listens at `path` or the path does not fit a socket address.
std::unique_ptr<Transport> unix_connect(const std::string& path);

}  // namespace deck
