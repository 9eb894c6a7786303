#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/ingest.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch_test_util.hpp"

namespace deck {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<std::uint8_t> init) {
  return std::vector<std::uint8_t>(init);
}

/// One query on a coordinated GraphSession over `workers`, then close: the
/// coordinator side of the ingest-protocol tests.
SparsifyResult coordinated_query(const std::vector<Transport*>& workers, int n, int k,
                                 const SketchOptions& opt,
                                 const IngestCoordinatorOptions& copt = {}) {
  GraphSession session(n, k, {.sketch = opt, .workers = workers, .coordinator = copt});
  SparsifyResult result = session.query();
  session.close();
  return result;
}

TEST(Transport, LoopbackRoundTripsInOrder) {
  auto [a, b] = loopback_pair();
  a->send(bytes_of({1, 2, 3}));
  a->send(bytes_of({}));  // empty messages are legal frames
  a->send(bytes_of({9}));
  EXPECT_EQ(b->recv(), bytes_of({1, 2, 3}));
  EXPECT_EQ(b->recv(), bytes_of({}));
  EXPECT_EQ(b->recv(), bytes_of({9}));
  // And the reverse direction is independent.
  b->send(bytes_of({7, 7}));
  EXPECT_EQ(a->recv(), bytes_of({7, 7}));
}

TEST(Transport, LoopbackCloseIsOrderlyAfterDraining) {
  auto [a, b] = loopback_pair();
  a->send(bytes_of({5}));
  a->close();
  EXPECT_EQ(b->recv(), bytes_of({5}));       // queued data survives the close
  EXPECT_EQ(b->recv(), std::nullopt);        // then the orderly EOF
  EXPECT_THROW(a->send(bytes_of({1})), NetError);
}

TEST(Transport, LoopbackCloseWakesABlockedReceiver) {
  auto [a, b] = loopback_pair();
  std::optional<std::vector<std::uint8_t>> got = bytes_of({1});
  std::thread receiver([&] { got = b->recv(); });
  a->close();
  receiver.join();
  EXPECT_EQ(got, std::nullopt);
}

TEST(Transport, TcpRoundTripsLargeMessages) {
  TcpListener listener;
  ASSERT_GT(listener.port(), 0);
  std::unique_ptr<Transport> client;
  std::thread connector([&] { client = tcp_connect("127.0.0.1", listener.port()); });
  std::unique_ptr<Transport> server = listener.accept();
  connector.join();

  std::vector<std::uint8_t> big(3 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  client->send(big);
  client->send(bytes_of({1, 2}));
  EXPECT_EQ(server->recv(), big);  // framing survives partial socket reads
  EXPECT_EQ(server->recv(), bytes_of({1, 2}));
  server->send(bytes_of({3}));
  EXPECT_EQ(client->recv(), bytes_of({3}));
  client->close();
  EXPECT_EQ(server->recv(), std::nullopt);  // orderly EOF between frames
}

TEST(Transport, TcpTruncatedFrameIsATypedError) {
  TcpListener listener;
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  std::unique_ptr<Transport> server = listener.accept();

  // A frame that dies mid length prefix...
  const std::uint8_t half_prefix[4] = {10, 0, 0, 0};
  ASSERT_EQ(::send(raw, half_prefix, sizeof half_prefix, 0),
            static_cast<ssize_t>(sizeof half_prefix));
  ::close(raw);
  EXPECT_THROW((void)server->recv(), NetError);
}

TEST(Transport, TcpTruncatedPayloadIsATypedError) {
  TcpListener listener;
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  std::unique_ptr<Transport> server = listener.accept();

  // ...and one that promises 100 payload bytes but delivers 3.
  std::uint8_t prefix[8] = {100, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::send(raw, prefix, sizeof prefix, 0), static_cast<ssize_t>(sizeof prefix));
  const std::uint8_t partial[3] = {1, 2, 3};
  ASSERT_EQ(::send(raw, partial, sizeof partial, 0), static_cast<ssize_t>(sizeof partial));
  ::close(raw);
  EXPECT_THROW((void)server->recv(), NetError);
}

TEST(Transport, OversizedFramePrefixRejectedBeforeAllocation) {
  TcpListener listener;
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  std::unique_ptr<Transport> server = listener.accept();

  std::uint8_t prefix[8];
  for (auto& byte : prefix) byte = 0xff;  // ~2^64 bytes claimed
  ASSERT_EQ(::send(raw, prefix, sizeof prefix, 0), static_cast<ssize_t>(sizeof prefix));
  try {
    (void)server->recv();
    FAIL() << "oversized frame accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos) << e.what();
  }
  ::close(raw);
}

/// Short unique socket path under /tmp (sun_path is ~108 bytes, so build
/// dirs are unsafe as prefixes).
std::string unix_path(const char* tag) {
  return "/tmp/deck_uds_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

TEST(Transport, UnixRoundTripsAndClosesOrderly) {
  const std::string path = unix_path("rt");
  UnixListener listener(path);
  std::unique_ptr<Transport> client;
  std::thread connector([&] { client = unix_connect(path); });
  std::unique_ptr<Transport> server = listener.accept();
  connector.join();

  // 2 MiB dwarfs the AF_UNIX socket buffer, so the send must overlap the
  // recv (unlike the TCP suite, where the kernel absorbs the whole frame).
  std::vector<std::uint8_t> big(2 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 13 + 5);
  std::thread sender([&] {
    client->send(big);
    client->send(bytes_of({}));
  });
  EXPECT_EQ(server->recv(), big);  // framing survives partial socket reads
  EXPECT_EQ(server->recv(), bytes_of({}));
  sender.join();
  server->send(bytes_of({6}));
  EXPECT_EQ(client->recv(), bytes_of({6}));
  client->close();
  EXPECT_EQ(server->recv(), std::nullopt);  // orderly EOF between frames
}

TEST(Transport, UnixListenerUnlinksItsPath) {
  const std::string path = unix_path("unlink");
  {
    UnixListener listener(path);
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
    // A second listener on the same live path must fail, not steal it.
    EXPECT_THROW(UnixListener{path}, NetError);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  // Path released: rebinding now works.
  UnixListener again(path);
}

TEST(Transport, UnixConnectFaultsAreTyped) {
  EXPECT_THROW((void)unix_connect(unix_path("nobody-listens")), NetError);
  EXPECT_THROW((void)unix_connect(std::string(200, 'x')), NetError);  // > sun_path
  EXPECT_THROW(UnixListener{std::string(200, 'x')}, NetError);
  EXPECT_THROW(UnixListener{""}, NetError);
}

TEST(Transport, UnixTruncatedFrameIsATypedError) {
  const std::string path = unix_path("trunc");
  UnixListener listener(path);
  int raw = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  std::unique_ptr<Transport> server = listener.accept();

  // A frame that promises 9 payload bytes, delivers 2, then dies.
  const std::uint8_t prefix[8] = {9, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::send(raw, prefix, sizeof prefix, 0), static_cast<ssize_t>(sizeof prefix));
  const std::uint8_t partial[2] = {1, 2};
  ASSERT_EQ(::send(raw, partial, sizeof partial, 0), static_cast<ssize_t>(sizeof partial));
  ::close(raw);
  EXPECT_THROW((void)server->recv(), NetError);
}

TEST(IngestProtocol, IngestRunsOverUnixSockets) {
  const GraphStream stream = churned_stream(26, 2, 7900);
  SketchOptions opt;
  opt.seed = 7901;
  opt.max_forests = 2;
  const SparsifyResult local = ingest(stream, 2, {.sketch = opt});

  const std::string path = unix_path("ingest");
  UnixListener listener(path);
  const int workers = 2;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&stream, w, path] {
      const std::unique_ptr<Transport> t = unix_connect(path);
      run_ingest_worker(*t, stream, static_cast<std::uint32_t>(w), workers);
    });
  }
  std::vector<std::unique_ptr<Transport>> accepted;
  std::vector<Transport*> raw;
  for (int w = 0; w < workers; ++w) {
    accepted.push_back(listener.accept());
    raw.push_back(accepted.back().get());
  }
  const SparsifyResult remote = coordinated_query(raw, stream.num_vertices(), 2, opt);
  for (auto& th : threads) th.join();
  EXPECT_EQ(sorted_pairs(remote.forests), sorted_pairs(local.forests));
}

TEST(Transport, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    TcpListener listener;
    dead_port = listener.port();
  }  // listener closed; the port is (almost surely) not listening now
  EXPECT_THROW((void)tcp_connect("127.0.0.1", dead_port), NetError);
  EXPECT_THROW((void)tcp_connect("not-an-ipv4-address", 1), NetError);
}

// ---------------------------------------------------------------------------
// Recv deadlines (recv_for / RecvOptions) — the death-detection primitive
// under the fault-tolerant CONGEST engine.

TEST(Transport, RecvForTimesOutTypedAndThePeerStaysUsable) {
  auto [a, b] = loopback_pair();
  EXPECT_THROW((void)b->recv_for(30), NetTimeout);
  // A timeout is not a death: the link still works afterwards.
  a->send(bytes_of({4, 2}));
  EXPECT_EQ(b->recv_for(1000), bytes_of({4, 2}));
  // Orderly close is still nullopt, never a timeout.
  a->close();
  EXPECT_EQ(b->recv_for(30), std::nullopt);
}

TEST(Transport, RecvForNegativeTimeoutBlocksLikeRecv) {
  auto [a, b] = loopback_pair();
  std::optional<std::vector<std::uint8_t>> got;
  std::thread receiver([&] { got = b->recv_for(-1); });
  a->send(bytes_of({9}));
  receiver.join();
  EXPECT_EQ(got, bytes_of({9}));
}

TEST(Transport, NetTimeoutIsANetError) {
  // Every existing catch (NetError&) must keep catching deadline expiries.
  auto [a, b] = loopback_pair();
  EXPECT_THROW((void)b->recv_for(10), NetError);
  (void)a;
}

TEST(Transport, RecvOptionsRetriesAbsorbASlowSender) {
  auto [a, b] = loopback_pair();
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    a->send(bytes_of({1}));
  });
  // One 25 ms attempt would expire; the retry budget rides out the silence.
  RecvOptions opts;
  opts.timeout_ms = 25;
  opts.retries = 20;
  opts.backoff_ms = 1;
  EXPECT_EQ(b->recv(opts), bytes_of({1}));
  sender.join();
}

TEST(Transport, RecvOptionsExhaustedRetriesThrowNetTimeout) {
  auto [a, b] = loopback_pair();
  RecvOptions opts;
  opts.timeout_ms = 10;
  opts.retries = 2;
  EXPECT_THROW((void)b->recv(opts), NetTimeout);
  (void)a;
}

TEST(Transport, TcpRecvForTimesOutTyped) {
  TcpListener listener;
  std::unique_ptr<Transport> client;
  std::thread connector([&] { client = tcp_connect("127.0.0.1", listener.port()); });
  std::unique_ptr<Transport> server = listener.accept();
  connector.join();
  EXPECT_THROW((void)server->recv_for(30), NetTimeout);
  client->send(bytes_of({7}));
  EXPECT_EQ(server->recv_for(1000), bytes_of({7}));
  client->close();
}

// ---------------------------------------------------------------------------
// IPv6.

TEST(Transport, Ipv6RoundTripsAndClosesOrderly) {
  TcpListener listener(0, "::1");
  ASSERT_GT(listener.port(), 0);
  std::unique_ptr<Transport> client;
  std::thread connector([&] { client = tcp_connect("::1", listener.port()); });
  std::unique_ptr<Transport> server = listener.accept();
  connector.join();

  client->send(bytes_of({1, 2, 3}));
  server->send(bytes_of({4}));
  EXPECT_EQ(server->recv(), bytes_of({1, 2, 3}));
  EXPECT_EQ(client->recv(), bytes_of({4}));
  client->close();
  EXPECT_EQ(server->recv(), std::nullopt);
}

TEST(Transport, Ipv6TruncatedFrameIsATypedError) {
  TcpListener listener(0, "::1");
  int raw = ::socket(AF_INET6, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in6 addr{};
  addr.sin6_family = AF_INET6;
  addr.sin6_port = htons(listener.port());
  addr.sin6_addr = in6addr_loopback;
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  std::unique_ptr<Transport> server = listener.accept();

  const std::uint8_t half_prefix[4] = {10, 0, 0, 0};
  ASSERT_EQ(::send(raw, half_prefix, sizeof half_prefix, 0),
            static_cast<ssize_t>(sizeof half_prefix));
  ::close(raw);
  EXPECT_THROW((void)server->recv(), NetError);
}

TEST(Transport, Ipv6ConnectFaultsAreTyped) {
  std::uint16_t dead_port;
  {
    TcpListener listener(0, "::1");
    dead_port = listener.port();
  }
  EXPECT_THROW((void)tcp_connect("::1", dead_port), NetError);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection (net/fault.hpp).

TEST(FaultInjection, KillClosesTheLinkAtTheExactFrame) {
  auto [a, b] = loopback_pair();
  FaultInjectingTransport faulted(std::move(b), {FaultRule{1, FaultRule::Kind::kKill, 0}});
  a->send(bytes_of({1}));
  a->send(bytes_of({2}));
  EXPECT_EQ(faulted.recv(), bytes_of({1}));  // frame 0 passes
  EXPECT_THROW((void)faulted.recv(), NetError);  // frame 1 is the kill
  EXPECT_THROW((void)faulted.recv(), NetError);  // and the link stays dead
  EXPECT_THROW(faulted.send(bytes_of({3})), NetError);
  EXPECT_EQ(a->recv(), std::nullopt);  // the peer observes the close
}

TEST(FaultInjection, DropSwallowsExactlyTheMatchedFrame) {
  auto [a, b] = loopback_pair();
  FaultInjectingTransport faulted(std::move(b), {FaultRule{1, FaultRule::Kind::kDrop, 0}});
  a->send(bytes_of({1}));
  a->send(bytes_of({2}));  // dropped
  a->send(bytes_of({3}));
  EXPECT_EQ(faulted.recv(), bytes_of({1}));
  EXPECT_EQ(faulted.recv(), bytes_of({3}));
  EXPECT_EQ(faulted.frames_seen(), 3u);  // the dropped frame still ticked the clock
}

TEST(FaultInjection, DelayDeliversLateButIntact) {
  auto [a, b] = loopback_pair();
  FaultInjectingTransport faulted(std::move(b), {FaultRule{0, FaultRule::Kind::kDelay, 40}});
  a->send(bytes_of({5}));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(faulted.recv(), bytes_of({5}));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 35);
}

TEST(FaultInjection, ScriptsComposeWithRecvDeadlines) {
  // A dropped frame plus a recv deadline is the canonical "silent worker"
  // scenario: the protocol above sees NetTimeout, not a hang.
  auto [a, b] = loopback_pair();
  FaultInjectingTransport faulted(std::move(b), {FaultRule{0, FaultRule::Kind::kDrop, 0}});
  a->send(bytes_of({1}));
  EXPECT_THROW((void)faulted.recv_for(50), NetTimeout);
}

// ---------------------------------------------------------------------------
// Coordinator/worker ingest protocol.

/// Spawns `workers` loopback ingest workers over a shared seeded stream and
/// runs the coordinator; returns the coordinator's SparsifyResult.
SparsifyResult loopback_ingest(const GraphStream& stream, int workers, int k,
                               const SketchOptions& opt, const IngestCoordinatorOptions& copt = {},
                               const IngestWorkerOptions& wopt = {}) {
  std::vector<std::unique_ptr<Transport>> coordinator_side;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    auto [c, wt] = loopback_pair();
    coordinator_side.push_back(std::move(c));
    threads.emplace_back(
        [&stream, workers, w, wopt, t = std::shared_ptr<Transport>(std::move(wt))] {
          try {
            run_ingest_worker(*t, stream, static_cast<std::uint32_t>(w),
                              static_cast<std::uint32_t>(workers), wopt);
          } catch (const NetError&) {
            // Coordinator-side faults close the transport under us; the
            // test asserts on the coordinator's error, not ours.
          }
        });
  }
  std::vector<Transport*> raw;
  raw.reserve(coordinator_side.size());
  for (auto& t : coordinator_side) raw.push_back(t.get());
  SparsifyResult result;
  try {
    result = coordinated_query(raw, stream.num_vertices(), k, opt, copt);
  } catch (...) {
    for (auto& t : coordinator_side) t->close();
    for (auto& th : threads) th.join();
    throw;
  }
  for (auto& th : threads) th.join();
  return result;
}

TEST(IngestProtocol, BitIdenticalToSingleProcessForEveryWorkerCount) {
  const GraphStream stream = churned_stream(40, 2, 7100);
  SketchOptions opt;
  opt.seed = 7101;
  opt.max_forests = 2;
  const SparsifyResult local = ingest(stream, 2, {.sketch = opt});
  for (int workers : {1, 2, 4}) {
    const SparsifyResult remote = loopback_ingest(stream, workers, 2, opt);
    EXPECT_EQ(sorted_pairs(remote.forests), sorted_pairs(local.forests)) << workers << " workers";
    EXPECT_EQ(remote.copies_used, local.copies_used);
    EXPECT_EQ(remote.certificate.num_edges(), local.certificate.num_edges());
    for (const Edge& e : local.certificate.edges())
      EXPECT_TRUE(remote.certificate.has_edge(e.u, e.v));
  }
}

TEST(IngestProtocol, ChunkSizeNeverChangesTheResult) {
  const GraphStream stream = churned_stream(36, 2, 7200);
  SketchOptions opt;
  opt.seed = 7201;
  opt.max_forests = 2;
  const SparsifyResult local = ingest(stream, 2, {.sketch = opt});
  for (int vpc : {1, 5, 36}) {
    IngestWorkerOptions wopt;
    wopt.vertices_per_chunk = vpc;
    const SparsifyResult remote = loopback_ingest(stream, 2, 2, opt, {}, wopt);
    EXPECT_EQ(sorted_pairs(remote.forests), sorted_pairs(local.forests)) << "vpc=" << vpc;
  }
}

TEST(IngestProtocol, SharedPoolThreadCountNeverChangesTheResult) {
  const GraphStream stream = churned_stream(36, 2, 7300);
  SketchOptions opt;
  opt.seed = 7301;
  opt.max_forests = 2;
  const SparsifyResult local = ingest(stream, 2, {.sketch = opt});
  for (int threads : {1, 2, 4}) {
    IngestCoordinatorOptions copt;
    copt.threads = threads;
    const SparsifyResult remote = loopback_ingest(stream, 3, 2, opt, copt);
    EXPECT_EQ(sorted_pairs(remote.forests), sorted_pairs(local.forests)) << threads << " threads";
  }
}

TEST(IngestProtocol, AdaptiveSizingRunsOverTheWire) {
  // Auto-sizing re-broadcasts grown options per attempt; the distributed
  // attempt loop must land on the same certificate as the local one.
  const GraphStream stream = churned_stream(32, 2, 7400);
  SketchOptions opt;
  opt.seed = 7401;
  opt.max_forests = 2;
  opt.auto_size.enabled = true;
  const SparsifyResult local = ingest(stream, 2, {.sketch = opt});
  const SparsifyResult remote = loopback_ingest(stream, 2, 2, opt);
  EXPECT_EQ(remote.attempts, local.attempts);
  EXPECT_EQ(remote.columns_used, local.columns_used);
  EXPECT_EQ(sorted_pairs(remote.forests), sorted_pairs(local.forests));
}

TEST(IngestProtocol, IngestRunsOverRealSockets) {
  const GraphStream stream = churned_stream(28, 2, 7500);
  SketchOptions opt;
  opt.seed = 7501;
  opt.max_forests = 2;
  const SparsifyResult local = ingest(stream, 2, {.sketch = opt});

  TcpListener listener;
  const int workers = 2;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&stream, w, port = listener.port()] {
      const std::unique_ptr<Transport> t = tcp_connect("127.0.0.1", port);
      run_ingest_worker(*t, stream, static_cast<std::uint32_t>(w), workers);
    });
  }
  std::vector<std::unique_ptr<Transport>> accepted;
  for (int w = 0; w < workers; ++w) accepted.push_back(listener.accept());
  std::vector<Transport*> raw;
  for (auto& t : accepted) raw.push_back(t.get());
  const SparsifyResult remote = coordinated_query(raw, stream.num_vertices(), 2, opt);
  for (auto& th : threads) th.join();
  EXPECT_EQ(sorted_pairs(remote.forests), sorted_pairs(local.forests));
}

TEST(IngestProtocol, WorkerDyingMidAttemptIsATypedError) {
  const GraphStream stream = churned_stream(24, 2, 7600);
  SketchOptions opt;
  opt.seed = 7601;
  auto [c, w] = loopback_pair();
  std::thread impostor([t = std::shared_ptr<Transport>(std::move(w))] {
    std::vector<std::uint8_t> hello;
    net::put_u32(hello, static_cast<std::uint32_t>(IngestMsg::kHello));
    net::put_u32(hello, 0);   // worker id
    net::put_u32(hello, 24);  // n
    net::put_u32(hello, 1);   // fleet size
    t->send(hello);
    (void)t->recv();  // swallow the Attempt...
    t->close();       // ...and die without sending a single chunk
  });
  std::vector<Transport*> raw{c.get()};
  EXPECT_THROW((void)coordinated_query(raw, 24, 2, opt), NetError);
  impostor.join();
}

TEST(IngestProtocol, RosterViolationsAreTypedErrors) {
  SketchOptions opt;
  opt.seed = 7700;
  {  // first message is not a Hello
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> junk;
    net::put_u32(junk, static_cast<std::uint32_t>(IngestMsg::kDone));
    w->send(junk);
    std::vector<Transport*> raw{c.get()};
    EXPECT_THROW((void)coordinated_query(raw, 16, 2, opt), NetError);
  }
  {  // n mismatch
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> hello;
    net::put_u32(hello, static_cast<std::uint32_t>(IngestMsg::kHello));
    net::put_u32(hello, 0);
    net::put_u32(hello, 99);  // coordinator expects 16
    net::put_u32(hello, 1);
    w->send(hello);
    std::vector<Transport*> raw{c.get()};
    EXPECT_THROW((void)coordinated_query(raw, 16, 2, opt), NetError);
  }
  {  // duplicate worker ids
    auto [c0, w0] = loopback_pair();
    auto [c1, w1] = loopback_pair();
    for (auto* w : {w0.get(), w1.get()}) {
      std::vector<std::uint8_t> hello;
      net::put_u32(hello, static_cast<std::uint32_t>(IngestMsg::kHello));
      net::put_u32(hello, 1);  // same (in-range) id twice
      net::put_u32(hello, 16);
      net::put_u32(hello, 2);
      w->send(hello);
    }
    std::vector<Transport*> raw{c0.get(), c1.get()};
    EXPECT_THROW((void)coordinated_query(raw, 16, 2, opt), NetError);
  }
  {  // fleet-size disagreement: a worker slicing for a 3-worker fleet would
     // leave stream updates ingested by nobody — the roster must catch it
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> hello;
    net::put_u32(hello, static_cast<std::uint32_t>(IngestMsg::kHello));
    net::put_u32(hello, 0);
    net::put_u32(hello, 16);
    net::put_u32(hello, 3);  // coordinator drives 1
    w->send(hello);
    std::vector<Transport*> raw{c.get()};
    try {
      (void)coordinated_query(raw, 16, 2, opt);
      FAIL() << "fleet-size disagreement accepted";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find("fleet"), std::string::npos) << e.what();
    }
  }
  {  // worker id outside the fleet
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> hello;
    net::put_u32(hello, static_cast<std::uint32_t>(IngestMsg::kHello));
    net::put_u32(hello, 5);  // fleet of 1 — only id 0 is valid
    net::put_u32(hello, 16);
    net::put_u32(hello, 1);
    w->send(hello);
    std::vector<Transport*> raw{c.get()};
    EXPECT_THROW((void)coordinated_query(raw, 16, 2, opt), NetError);
  }
}

TEST(IngestProtocol, WorkerRejectsMalformedCoordinator) {
  const GraphStream stream = churned_stream(16, 2, 7800);
  {  // unexpected message type instead of Attempt/Shutdown
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> junk;
    net::put_u32(junk, static_cast<std::uint32_t>(IngestMsg::kChunk));
    c->send(junk);
    EXPECT_THROW(run_ingest_worker(*w, stream, 0, 1), NetError);
  }
  {  // coordinator vanishes before shutdown
    auto [c, w] = loopback_pair();
    c->close();
    EXPECT_THROW(run_ingest_worker(*w, stream, 0, 1), NetError);
  }
  {  // short attempt message
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> attempt;
    net::put_u32(attempt, static_cast<std::uint32_t>(IngestMsg::kAttempt));
    net::put_u32(attempt, 1);  // far fewer bytes than SketchOptions needs
    c->send(attempt);
    EXPECT_THROW(run_ingest_worker(*w, stream, 0, 1), NetError);
  }
  {  // well-formed frame, absurd sizing: the worker must refuse the typed
     // way instead of overflowing arithmetic or allocating a forged bank
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> attempt;
    net::put_u32(attempt, static_cast<std::uint32_t>(IngestMsg::kAttempt));
    net::put_u64(attempt, 1);           // seed
    net::put_u32(attempt, 0x7fffffff);  // max_forests far beyond any budget
    net::put_u32(attempt, 6);           // columns
    net::put_u32(attempt, 4);           // rounds_slack
    net::put_u32(attempt, 0);           // auto_size.enabled
    net::put_u32(attempt, 2);
    net::put_u32(attempt, 1);
    net::put_u32(attempt, 2);
    net::put_u32(attempt, 6);
    c->send(attempt);
    try {
      run_ingest_worker(*w, stream, 0, 1);
      FAIL() << "absurd attempt sizing accepted";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find("max_forests"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace deck
