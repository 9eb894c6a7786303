// Serving-layer suite: the guttering stage, GraphStream replay cursors, the
// GraphSession lifecycle (and its bit-identity contract against the
// pre-facade one-shot pipeline, for local sessions, deck::ingest and
// coordinated sessions), and the serve wire protocol — single client,
// malformed frames, and concurrent client mixes over loopback and TCP.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "net/ingest.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/gutter.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"
#include "sketch_test_util.hpp"
#include "support/thread_pool.hpp"

namespace deck {
namespace {

// ---------------------------------------------------------------------------
// Ground truth: the pre-facade one-shot pipeline, inlined. Every bit-identity
// test compares the session output against this independent implementation,
// not against another facade path.

SparsifyResult reference_sparsify(const GraphStream& stream, int k, const SketchOptions& opt,
                                  const RecoveryOptions& ropt = {}) {
  std::optional<SketchConnectivity> bank;
  return recover_certificate(k, opt, ropt,
                             [&](const SketchOptions& aopt) -> const SketchConnectivity& {
                               SketchConnectivity& sk = bank.emplace(stream.num_vertices(), aopt);
                               for (const StreamUpdate& u : stream.updates())
                                 sk.update(u.u, u.v, u.insert ? 1 : -1);
                               return sk;
                             });
}

std::vector<std::pair<VertexId, VertexId>> graph_pairs(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (const Edge& e : g.edges()) out.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  std::sort(out.begin(), out.end());
  return out;
}

/// Full SparsifyResult equality — certificate, forests, and every piece of
/// telemetry the adaptive driver reports.
void expect_same_result(const SparsifyResult& got, const SparsifyResult& want) {
  EXPECT_EQ(graph_pairs(got.certificate), graph_pairs(want.certificate));
  EXPECT_EQ(sorted_pairs(got.forests), sorted_pairs(want.forests));
  EXPECT_EQ(got.copies_used, want.copies_used);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.columns_used, want.columns_used);
  EXPECT_EQ(got.rounds_slack_used, want.rounds_slack_used);
}

/// A GraphStream holding the first `count` updates of `s`.
GraphStream prefix_stream(const GraphStream& s, std::size_t count) {
  GraphStream out(s.num_vertices());
  std::size_t i = 0;
  for (const StreamUpdate& u : s.updates()) {
    if (i++ >= count) break;
    if (u.insert)
      out.insert(u.u, u.v);
    else
      out.erase(u.u, u.v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Guttering stage

struct Collected {
  VertexId src;
  VertexId dst;
  int delta;

  friend bool operator==(const Collected&, const Collected&) = default;
  friend auto operator<=>(const Collected&, const Collected&) = default;
};

/// Thread-safe collecting applier; sorted() is the order-insensitive
/// delivered-half fingerprint.
struct CollectingSink {
  std::mutex mu;
  std::vector<Collected> halves;

  GutteringSystem::Applier applier() {
    return [this](VertexId src, std::span<const VertexDelta> deltas) {
      const std::lock_guard<std::mutex> lock(mu);
      for (const VertexDelta& d : deltas) halves.push_back({src, d.dst, d.delta});
    };
  }

  std::vector<Collected> sorted() {
    const std::lock_guard<std::mutex> lock(mu);
    std::vector<Collected> out = halves;
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST(Gutter, RangesPartitionTheVertexSet) {
  CollectingSink sink;
  GutterOptions opt;
  opt.num_gutters = 7;
  GutteringSystem gs(100, opt, sink.applier());
  ASSERT_EQ(gs.num_gutters(), 7);
  int prev = 0;
  for (VertexId v = 0; v < 100; ++v) {
    const int g = gs.gutter_of(v);
    EXPECT_GE(g, prev);  // contiguous ranges: non-decreasing in the vertex
    EXPECT_LT(g, 7);
    prev = g;
  }
  EXPECT_EQ(gs.gutter_of(99), 6);
}

TEST(Gutter, GutterCountIsClampedToVertices) {
  CollectingSink sink;
  GutterOptions opt;
  opt.num_gutters = 64;
  GutteringSystem gs(3, opt, sink.applier());
  EXPECT_LE(gs.num_gutters(), 3);
  GutteringSystem one(1, opt, sink.applier());
  EXPECT_EQ(one.num_gutters(), 1);
}

TEST(Gutter, SizeTriggerSpillsWithoutDrain) {
  CollectingSink sink;
  GutterOptions opt;
  opt.num_gutters = 1;
  opt.policy.max_halves = 4;
  GutteringSystem gs(8, opt, sink.applier());
  gs.push(0, 1, 1);
  EXPECT_EQ(gs.pending_halves(), 2u);
  gs.push(2, 3, 1);  // hits max_halves — spills inline, no drain() needed
  EXPECT_EQ(gs.pending_halves(), 0u);
  EXPECT_EQ(gs.stats().size_flushes, 1u);
  EXPECT_EQ(gs.stats().flushed_halves, 4u);
  EXPECT_EQ(sink.sorted(),
            (std::vector<Collected>{{0, 1, 1}, {1, 0, 1}, {2, 3, 1}, {3, 2, 1}}));
}

TEST(Gutter, AgeTriggerBoundsStaleness) {
  CollectingSink sink;
  GutterOptions opt;
  opt.num_gutters = 2;
  opt.policy.max_halves = 1 << 20;  // size trigger effectively off
  opt.policy.max_age = 3;
  GutteringSystem gs(8, opt, sink.applier());
  gs.push(0, 1, 1);  // lands in gutter 0 (both endpoints low)
  // Push far-side updates until the round-robin age sweep spills gutter 0.
  for (int i = 0; i < 8 && gs.stats().age_flushes == 0; ++i) gs.push(4, 5, 1);
  EXPECT_GE(gs.stats().age_flushes, 1u);
  bool saw = false;
  for (const Collected& c : sink.sorted()) saw = saw || (c.src == 0 && c.dst == 1);
  EXPECT_TRUE(saw);
}

TEST(Gutter, DrainDeliversEveryHalfExactlyOnce) {
  Rng rng(41);
  CollectingSink sink;
  GutterOptions opt;
  opt.num_gutters = 5;
  opt.policy.max_halves = 8;
  GutteringSystem gs(32, opt, sink.applier());
  std::vector<Collected> expected;
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(32));
    auto v = static_cast<VertexId>(rng.next_below(32));
    if (v == u) v = (v + 1) % 32;
    const int delta = (i % 3 == 0) ? -1 : 1;
    gs.push(u, v, delta);
    expected.push_back({u, v, delta});
    expected.push_back({v, u, delta});
  }
  gs.drain();
  EXPECT_EQ(gs.pending_halves(), 0u);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sink.sorted(), expected);
  EXPECT_EQ(gs.stats().halves_buffered, 400u);
  EXPECT_EQ(gs.stats().flushed_halves, 400u);
}

TEST(Gutter, PooledDrainDeliversTheSameHalves) {
  Rng rng(42);
  std::vector<Collected> pushed;
  for (int i = 0; i < 300; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(64));
    auto v = static_cast<VertexId>(rng.next_below(64));
    if (v == u) v = (v + 1) % 64;
    pushed.push_back({u, v, 1});
  }

  auto run = [&pushed](ThreadPool* pool, int gutters) {
    CollectingSink sink;
    GutterOptions opt;
    opt.num_gutters = gutters;
    opt.policy.max_halves = 1 << 20;
    opt.pool = pool;
    GutteringSystem gs(64, opt, sink.applier());
    for (const Collected& c : pushed) gs.push(c.src, c.dst, c.delta);
    gs.drain();
    return sink.sorted();
  };

  ThreadPool pool(4);
  const std::vector<Collected> inline_halves = run(nullptr, 8);
  const std::vector<Collected> pooled_halves = run(&pool, 8);
  EXPECT_EQ(inline_halves, pooled_halves);
}

TEST(Gutter, FlushPolicyNeverChangesTheDeliveredMultiset) {
  const GraphStream stream = churned_stream(24, 2, 510);
  const std::vector<FlushPolicy> policies = {
      FlushPolicy{},                      // defaults
      FlushPolicy{.max_halves = 2},       // spill on every push
      FlushPolicy{.max_halves = 7},       // odd size, mid-batch spills
      FlushPolicy{.max_halves = 1 << 20, .max_age = 5},
  };
  std::vector<std::vector<Collected>> delivered;
  for (const FlushPolicy& policy : policies) {
    for (const int gutters : {1, 3, 8}) {
      CollectingSink sink;
      GutterOptions opt;
      opt.num_gutters = gutters;
      opt.policy = policy;
      GutteringSystem gs(stream.num_vertices(), opt, sink.applier());
      for (const StreamUpdate& u : stream.updates()) gs.push(u.u, u.v, u.insert ? 1 : -1);
      gs.drain();
      delivered.push_back(sink.sorted());
    }
  }
  for (std::size_t i = 1; i < delivered.size(); ++i) EXPECT_EQ(delivered[i], delivered[0]);
}

// ---------------------------------------------------------------------------
// GraphStream replay cursors

TEST(StreamCursor, UpdatesSinceReturnsTheAppendedTail) {
  GraphStream s(8);
  s.insert(0, 1);
  s.insert(1, 2);
  const std::size_t cursor = s.size();
  s.insert(2, 3);
  s.erase(0, 1);
  const std::span<const StreamUpdate> tail = s.updates_since(cursor);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].u, 2);
  EXPECT_EQ(tail[0].v, 3);
  EXPECT_TRUE(tail[0].insert);
  EXPECT_FALSE(tail[1].insert);
  EXPECT_EQ(s.updates_since(0).size(), s.size());
  EXPECT_TRUE(s.updates_since(s.size()).empty());
}

TEST(StreamCursor, CursorBeyondTheStreamThrows) {
  GraphStream s(4);
  s.insert(0, 1);
  EXPECT_THROW((void)s.updates_since(2), std::logic_error);
}

// ---------------------------------------------------------------------------
// GraphSession lifecycle and bit-identity

TEST(ServeSession, QueryMatchesOneShotForEveryPolicyAndMode) {
  const GraphStream stream = churned_stream(26, 2, 520);
  SketchOptions opt;
  opt.seed = 521;
  const SparsifyResult want = reference_sparsify(stream, 2, opt);

  // Inline drains, and parallel drains on lent pools of 1/2/4 threads.
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(4)};
  std::vector<IngestOptions> variants;
  for (const FlushPolicy& policy :
       {FlushPolicy{}, FlushPolicy{.max_halves = 2}, FlushPolicy{.max_halves = 64, .max_age = 9}}) {
    IngestOptions seq;
    seq.sketch = opt;
    seq.gutter.policy = policy;
    seq.gutter.num_gutters = 3;
    variants.push_back(seq);
    for (ThreadPool& pool : pools) {
      IngestOptions pooled = seq;
      pooled.gutter.pool = &pool;
      variants.push_back(pooled);
    }
  }

  for (const IngestOptions& io : variants) {
    GraphSession session(stream.num_vertices(), 2, io);
    session.ingest(stream);
    expect_same_result(session.query(), want);
    session.close();
  }
}

TEST(ServeSession, PerUpdateIngestMatchesBulkIngest) {
  const GraphStream stream = churned_stream(20, 2, 530);
  SketchOptions opt;
  opt.seed = 531;
  IngestOptions io;
  io.sketch = opt;
  io.gutter.policy.max_halves = 8;

  GraphSession per_update(stream.num_vertices(), 2, io);
  for (const StreamUpdate& u : stream.updates()) per_update.apply(u);
  GraphSession bulk(stream.num_vertices(), 2, io);
  bulk.ingest(stream);
  expect_same_result(per_update.query(), bulk.query());
  EXPECT_EQ(per_update.stats().updates, bulk.stats().updates);
}

TEST(ServeSession, MidStreamQueriesMatchOneShotAtEveryPoint) {
  const GraphStream stream = churned_stream(24, 2, 540);
  SketchOptions opt;
  opt.seed = 541;
  IngestOptions io;
  io.sketch = opt;
  io.gutter.policy.max_halves = 8;

  GraphSession session(stream.num_vertices(), 2, io);
  const std::vector<std::size_t> points = {stream.size() / 3, 2 * stream.size() / 3,
                                           stream.size()};
  std::size_t fed = 0;
  for (const std::size_t point : points) {
    while (fed < point) {
      session.apply(stream.updates()[fed]);
      ++fed;
    }
    // Pause/flush/recover/resume ≡ one-shot over the prefix ingested so far.
    expect_same_result(session.query(), reference_sparsify(prefix_stream(stream, point), 2, opt));
  }
  EXPECT_EQ(session.stats().queries, points.size());
}

TEST(ServeSession, MidStreamQueryDoesNotPerturbLaterQueries) {
  const GraphStream stream = churned_stream(22, 2, 550);
  SketchOptions opt;
  opt.seed = 551;
  IngestOptions io;
  io.sketch = opt;

  GraphSession interrupted(stream.num_vertices(), 2, io);
  GraphSession uninterrupted(stream.num_vertices(), 2, io);
  std::size_t i = 0;
  for (const StreamUpdate& u : stream.updates()) {
    interrupted.apply(u);
    uninterrupted.apply(u);
    if (++i == stream.size() / 2) (void)interrupted.query();
  }
  // Query at r, then continue ≡ never querying: recovery reads the live
  // bank in place and consumes none of its copies.
  expect_same_result(interrupted.query(), uninterrupted.query());
}

TEST(ServeSession, AdaptiveSizingReusesTheLiveBankOnAttemptZero) {
  const GraphStream stream = churned_stream(24, 2, 560);
  SketchOptions opt;
  opt.seed = 561;
  opt.auto_size.enabled = true;
  IngestOptions io;
  io.sketch = opt;

  GraphSession session(stream.num_vertices(), 2, io);
  session.ingest(stream);
  expect_same_result(session.query(), reference_sparsify(stream, 2, opt));
  const SessionStats stats = session.stats();
  EXPECT_GE(stats.bank_reuses, 1u);  // attempt 0 read the live bank
}

TEST(ServeSession, RepeatedQueriesLeaveTheLiveBankUntouched) {
  // query(), query() again with no updates in between, then more updates
  // and a third query: each must equal a fresh ingest() of the same prefix,
  // which it cannot if recovery wrote into the live bank.
  const GraphStream stream = churned_stream(40, 2, 580);
  IngestOptions io;
  io.sketch.seed = 581;
  io.recovery.threads = 2;

  GraphSession session(stream.num_vertices(), 2, io);
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) session.apply(stream.updates()[i]);
  const SparsifyResult want_half = ingest(prefix_stream(stream, half), 2, io);
  expect_same_result(session.query(), want_half);
  expect_same_result(session.query(), want_half);
  for (std::size_t i = half; i < stream.size(); ++i) session.apply(stream.updates()[i]);
  expect_same_result(session.query(), ingest(stream, 2, io));
  EXPECT_EQ(session.stats().bank_reuses, 3u);
  EXPECT_EQ(session.stats().bank_replays, 0u);
}

TEST(ServeSession, QueryForAnotherKReplaysTheRetainedStream) {
  const GraphStream stream = churned_stream(20, 2, 570);
  SketchOptions opt;
  opt.seed = 571;
  IngestOptions io;
  io.sketch = opt;

  GraphSession session(stream.num_vertices(), 2, io);
  session.ingest(stream);
  expect_same_result(session.query(1), reference_sparsify(stream, 1, opt));
  EXPECT_GE(session.stats().bank_replays, 1u);
  // The session k still answers from the live bank afterwards.
  expect_same_result(session.query(), reference_sparsify(stream, 2, opt));
}

TEST(ServeSession, LifecycleValidation) {
  IngestOptions io;
  GraphSession session(8, 2, io);
  session.insert(0, 1);
  EXPECT_THROW(session.insert(0, 1), std::logic_error);  // duplicate live edge
  EXPECT_THROW(session.erase(2, 3), std::logic_error);   // absent edge
  EXPECT_EQ(session.stats().updates, 1u);                // refused updates don't count
  session.close();
  EXPECT_TRUE(session.closed());
  session.close();  // idempotent
  EXPECT_THROW(session.insert(4, 5), std::logic_error);
  EXPECT_THROW((void)session.query(), std::logic_error);

  GraphStream mismatched(9);
  GraphSession other(8, 2, io);
  EXPECT_THROW(other.ingest(mismatched), std::logic_error);
}

TEST(ServeSession, PendingUpdatesTrackTheGutters) {
  IngestOptions io;
  io.gutter.policy.max_halves = 1 << 20;
  GraphSession session(8, 2, io);
  session.insert(0, 1);
  session.insert(1, 2);
  EXPECT_EQ(session.pending_updates(), 2u);
  session.flush();
  EXPECT_EQ(session.pending_updates(), 0u);
}

// ---------------------------------------------------------------------------
// deck::ingest, the one-call session: bit-identical to the pre-facade pipeline

TEST(ServeSession, IngestMatchesReference) {
  for (const std::uint64_t seed : {600u, 601u, 602u}) {
    const GraphStream stream = churned_stream(24, 2, seed);
    SketchOptions opt;
    opt.seed = seed + 7;
    expect_same_result(ingest(stream, 2, {.sketch = opt}), reference_sparsify(stream, 2, opt));
  }
}

TEST(ServeSession, LentPoolIngestMatchesReference) {
  const GraphStream stream = churned_stream(26, 3, 610);
  SketchOptions opt;
  opt.seed = 611;
  const SparsifyResult want = reference_sparsify(stream, 3, opt);
  for (const int threads : {1, 2, 3, 5}) {
    ThreadPool pool(threads);
    expect_same_result(ingest(stream, 3, {.sketch = opt, .gutter = {.pool = &pool}}), want);
  }
}

TEST(ServeSession, AdaptiveIngestMatchesReference) {
  const GraphStream stream = churned_stream(24, 2, 620);
  SketchOptions opt;
  opt.seed = 621;
  opt.auto_size.enabled = true;
  const SparsifyResult want = reference_sparsify(stream, 2, opt);
  expect_same_result(ingest(stream, 2, {.sketch = opt}), want);
  ThreadPool pool(2);
  expect_same_result(ingest(stream, 2, {.sketch = opt, .gutter = {.pool = &pool}}), want);
}

// ---------------------------------------------------------------------------
// Coordinated sessions over loopback transports

struct WorkerFleet {
  std::vector<std::unique_ptr<Transport>> ends;
  std::vector<Transport*> raw;
  std::vector<std::thread> threads;

  WorkerFleet(const GraphStream& stream, int workers) {
    for (int w = 0; w < workers; ++w) {
      auto [coordinator_end, worker_end] = loopback_pair();
      ends.push_back(std::move(coordinator_end));
      raw.push_back(ends.back().get());
      threads.emplace_back(
          [&stream, w, workers, t = std::shared_ptr<Transport>(std::move(worker_end))] {
            run_ingest_worker(*t, stream, static_cast<std::uint32_t>(w),
                              static_cast<std::uint32_t>(workers));
          });
    }
  }

  void join() {
    for (std::thread& th : threads) th.join();
  }
};

TEST(ServeSession, CoordinatedSessionServesRepeatedQueries) {
  const GraphStream stream = churned_stream(24, 2, 630);
  SketchOptions opt;
  opt.seed = 631;
  const SparsifyResult want = reference_sparsify(stream, 2, opt);

  WorkerFleet fleet(stream, 2);
  IngestOptions io;
  io.sketch = opt;
  io.workers = fleet.raw;
  io.coordinator.threads = 2;
  GraphSession session(stream.num_vertices(), 2, io);
  EXPECT_THROW(session.insert(0, 1), std::logic_error);  // workers own the stream
  expect_same_result(session.query(), want);
  expect_same_result(session.query(), want);  // workers serve repeated attempts
  EXPECT_EQ(session.stats().queries, 2u);
  session.close();
  fleet.join();
}

TEST(ServeSession, CoordinatedQueryMatchesReferenceForEveryFleetSize) {
  const GraphStream stream = churned_stream(24, 2, 640);
  SketchOptions opt;
  opt.seed = 641;
  const SparsifyResult want = reference_sparsify(stream, 2, opt);
  for (const int workers : {1, 2, 3}) {
    WorkerFleet fleet(stream, workers);
    GraphSession session(stream.num_vertices(), 2, {.sketch = opt, .workers = fleet.raw});
    expect_same_result(session.query(), want);
    session.close();
    fleet.join();
  }
}

// ---------------------------------------------------------------------------
// Serve protocol: single client over loopback

TEST(ServeProtocol, HelloUpdateQueryStatsBye) {
  const GraphStream stream = churned_stream(20, 2, 650);
  SketchOptions opt;
  opt.seed = 651;
  const SparsifyResult want = reference_sparsify(stream, 2, opt);

  IngestOptions io;
  io.sketch = opt;
  GraphSession session(stream.num_vertices(), 2, io);
  SessionServer server(session);

  auto [server_end, client_end] = loopback_pair();
  std::thread serving([&server, t = server_end.get()] { server.serve(*t); });

  ServeClient client(*client_end);
  client.hello();
  EXPECT_EQ(client.num_vertices(), stream.num_vertices());
  EXPECT_EQ(client.k(), 2);

  const std::span<const StreamUpdate> updates = stream.updates();
  // Mixed per-update and batched ingest.
  client.insert(updates[0].u, updates[0].v);
  EXPECT_EQ(client.update(updates.subspan(1)), static_cast<std::uint32_t>(updates.size() - 1));

  const ServeCertificate cert = client.query();
  EXPECT_EQ(cert.k, 2);
  EXPECT_EQ(cert.attempts, want.attempts);
  EXPECT_EQ(cert.copies_used, want.copies_used);
  std::vector<std::pair<VertexId, VertexId>> got = cert.edges;
  for (auto& [u, v] : got)
    if (u > v) std::swap(u, v);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, graph_pairs(want.certificate));

  const ServeStats stats = client.stats();
  EXPECT_EQ(stats.updates, stream.size());
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.pending_updates, 0u);  // query drained the gutters

  client.bye();
  serving.join();
  EXPECT_EQ(server.stats().clients, 1u);
  EXPECT_EQ(server.stats().errors, 0u);
}

// ---------------------------------------------------------------------------
// Serve protocol: malformed frames draw typed errors, connection survives

std::vector<std::uint8_t> raw_request(Transport& t, const std::vector<std::uint8_t>& frame) {
  t.send(frame);
  return net::recv_expected(t, "serve response");
}

std::pair<ServeErrorCode, std::string> decode_error(const std::vector<std::uint8_t>& reply) {
  net::WireReader r(std::span<const std::uint8_t>(reply.data(), reply.size()));
  EXPECT_EQ(static_cast<ServeMsg>(r.u32()), ServeMsg::kError);
  const auto code = static_cast<ServeErrorCode>(r.u32());
  const std::span<const std::uint8_t> text = r.rest();
  return {code, std::string(text.begin(), text.end())};
}

TEST(ServeProtocol, MalformedFramesDrawTypedErrorsAndTheConnectionSurvives) {
  GraphSession session(8, 2, {});
  SessionServer server(session);
  auto [server_end, client_end] = loopback_pair();
  std::thread serving([&server, t = server_end.get()] { server.serve(*t); });
  Transport& c = *client_end;

  {  // Truncated frame: no complete type word.
    const auto [code, what] = decode_error(raw_request(c, {0x01}));
    EXPECT_EQ(code, ServeErrorCode::kMalformedFrame);
  }
  {  // Unknown frame type.
    std::vector<std::uint8_t> frame;
    net::put_u32(frame, 999);
    const auto [code, what] = decode_error(raw_request(c, frame));
    EXPECT_EQ(code, ServeErrorCode::kUnknownType);
  }
  {  // Version mismatch.
    std::vector<std::uint8_t> frame;
    net::put_u32(frame, static_cast<std::uint32_t>(ServeMsg::kHello));
    net::put_u32(frame, kServeProtocolVersion + 1);
    const auto [code, what] = decode_error(raw_request(c, frame));
    EXPECT_EQ(code, ServeErrorCode::kBadVersion);
  }
  {  // Update frame whose body doesn't match its announced count.
    std::vector<std::uint8_t> frame;
    net::put_u32(frame, static_cast<std::uint32_t>(ServeMsg::kUpdate));
    net::put_u32(frame, 2);  // promises 2 updates, carries none
    const auto [code, what] = decode_error(raw_request(c, frame));
    EXPECT_EQ(code, ServeErrorCode::kMalformedFrame);
  }
  {  // Hello with trailing bytes.
    std::vector<std::uint8_t> frame;
    net::put_u32(frame, static_cast<std::uint32_t>(ServeMsg::kHello));
    net::put_u32(frame, kServeProtocolVersion);
    frame.push_back(0xee);
    const auto [code, what] = decode_error(raw_request(c, frame));
    EXPECT_EQ(code, ServeErrorCode::kMalformedFrame);
  }

  // The session survived all of that: a well-formed conversation succeeds
  // on the same connection, and typed client-side errors keep working.
  ServeClient client(c);
  client.hello();
  client.insert(0, 1);
  try {
    client.erase(5, 6);  // absent edge — stream validation refuses it
    FAIL() << "erase of an absent edge must draw kBadUpdate";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kBadUpdate);
  }
  try {
    (void)client.query(1000);  // k beyond any n=8 certificate
    FAIL() << "out-of-range k must draw kBadQuery";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kBadQuery);
  }
  EXPECT_EQ(session.stats().updates, 1u);
  client.bye();
  serving.join();
  EXPECT_GE(server.stats().errors, 5u);
}

TEST(ServeProtocol, ClientDisconnectWithoutByeEndsTheLoopQuietly) {
  GraphSession session(8, 2, {});
  SessionServer server(session);
  auto [server_end, client_end] = loopback_pair();
  std::thread serving([&server, t = server_end.get()] { server.serve(*t); });
  {
    ServeClient client(*client_end);
    client.hello();
    client.insert(0, 1);
  }
  client_end->close();
  serving.join();  // orderly close without Bye — no exception
  EXPECT_EQ(session.stats().updates, 1u);
}

TEST(ServeProtocol, ForgedCertificateEdgeCountIsAMalformedFrame) {
  // A fake server answers Query with a Certificate whose edge count
  // promises far more edges than the frame carries: the client must refuse
  // it as malformed before sizing anything by that count.
  auto [server_end, client_end] = loopback_pair();
  std::thread fake([t = server_end.get()] {
    (void)t->recv();  // Hello
    std::vector<std::uint8_t> hello_ok;
    net::put_u32(hello_ok, static_cast<std::uint32_t>(ServeMsg::kHelloOk));
    net::put_u32(hello_ok, kServeProtocolVersion);
    net::put_u32(hello_ok, 8);  // n
    net::put_u32(hello_ok, 2);  // k
    t->send(hello_ok);
    (void)t->recv();  // Query
    std::vector<std::uint8_t> cert;
    net::put_u32(cert, static_cast<std::uint32_t>(ServeMsg::kCertificate));
    for (int field = 0; field < 5; ++field) net::put_u32(cert, 1);  // k, attempts, ...
    net::put_u32(cert, 0xffffffffu);  // edge count; no edges follow
    t->send(cert);
  });
  ServeClient client(*client_end);
  client.hello();
  try {
    (void)client.query();
    ADD_FAILURE() << "a forged certificate edge count must draw kMalformedFrame";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kMalformedFrame);
  }
  fake.join();
}

TEST(ServeProtocol, ServerRefusesCoordinatedSessions) {
  const GraphStream stream = churned_stream(12, 2, 660);
  WorkerFleet fleet(stream, 1);
  IngestOptions io;
  io.workers = fleet.raw;
  GraphSession session(stream.num_vertices(), 2, io);
  EXPECT_THROW(SessionServer{session}, std::logic_error);
  session.close();
  fleet.join();
}

// ---------------------------------------------------------------------------
// Observability: the serving layer reports through the obs substrate

class ServeObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::global().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
};

TEST_F(ServeObsTest, SessionAndServerReportMetrics) {
  const GraphStream stream = churned_stream(16, 2, 690);
  IngestOptions io;
  io.sketch.seed = 691;
  io.gutter.policy.max_halves = 8;
  GraphSession session(stream.num_vertices(), 2, io);
  SessionServer server(session);

  auto [server_end, client_end] = loopback_pair();
  std::thread serving([&server, t = server_end.get()] { server.serve(*t); });
  ServeClient client(*client_end);
  client.hello();
  client.update(std::span<const StreamUpdate>(stream.updates()));
  (void)client.query();
  client.bye();
  serving.join();

  const obs::Snapshot snap = obs::Registry::global().scrape();
  EXPECT_EQ(snap.counter("serve.session.updates"), stream.size());
  EXPECT_EQ(snap.counter("serve.session.queries"), 1u);
  EXPECT_GE(snap.counter("serve.session.bank_reuses"), 1u);
  EXPECT_GE(snap.counter("serve.gutter.flushes"), 1u);
  EXPECT_EQ(snap.counter("serve.gutter.flushed_halves"), 2 * stream.size());
  EXPECT_EQ(snap.counter("serve.server.clients"), 1u);
  EXPECT_GE(snap.counter("serve.server.frames"), 3u);
  EXPECT_EQ(snap.counter("serve.server.updates"), stream.size());
  EXPECT_EQ(snap.counter("serve.server.queries"), 1u);
  const auto* q = snap.histogram("serve.session.query_ns");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->count, 1u);
}

// ---------------------------------------------------------------------------
// Concurrent client mixes

/// Splits a graph's edges round-robin into per-client insert-only update
/// batches — disjoint edge sets, so interleaved ingest never trips the
/// duplicate-insert validation.
std::vector<std::vector<StreamUpdate>> client_slices(const Graph& g, int clients) {
  std::vector<std::vector<StreamUpdate>> slices(static_cast<std::size_t>(clients));
  int i = 0;
  for (const Edge& e : g.edges())
    slices[static_cast<std::size_t>(i++ % clients)].push_back({e.u, e.v, /*insert=*/true});
  return slices;
}

void run_concurrent_mix(const std::vector<Transport*>& server_ends,
                        const std::vector<Transport*>& client_ends, SessionServer& server,
                        const Graph& g, const SketchOptions& opt) {
  const int clients = static_cast<int>(client_ends.size());
  const std::vector<std::vector<StreamUpdate>> slices = client_slices(g, clients);

  std::thread serving([&server, &server_ends] { server.serve_all(server_ends); });

  // Every client ingests its slice concurrently (with periodic stats
  // probes mixed in); once all slices are in, client 0 queries.
  std::latch ingested(clients);
  std::vector<std::thread> client_threads;
  std::vector<std::pair<VertexId, VertexId>> served_edges;
  for (int i = 0; i < clients; ++i) {
    client_threads.emplace_back([&, i] {
      ServeClient client(*client_ends[static_cast<std::size_t>(i)]);
      client.hello();
      const std::vector<StreamUpdate>& slice = slices[static_cast<std::size_t>(i)];
      const std::size_t half = slice.size() / 2;
      client.update(std::span<const StreamUpdate>(slice.data(), half));
      (void)client.stats();
      client.update(std::span<const StreamUpdate>(slice.data() + half, slice.size() - half));
      ingested.arrive_and_wait();
      if (i == 0) {
        const ServeCertificate cert = client.query();
        served_edges = cert.edges;
        const ServeStats stats = client.stats();
        EXPECT_EQ(stats.updates, static_cast<std::uint64_t>(g.num_edges()));
        EXPECT_EQ(stats.queries, 1u);
      }
      client.bye();
    });
  }
  for (std::thread& th : client_threads) th.join();
  serving.join();

  // Linearity: whatever order the server interleaved the clients' inserts,
  // the bank — and so the certificate — matches a one-shot over the edges
  // in any serial order.
  GraphStream all(g.num_vertices());
  for (const Edge& e : g.edges()) all.insert(e.u, e.v);
  const SparsifyResult want = reference_sparsify(all, 2, opt);
  for (auto& [u, v] : served_edges)
    if (u > v) std::swap(u, v);
  std::sort(served_edges.begin(), served_edges.end());
  EXPECT_EQ(served_edges, graph_pairs(want.certificate));
  EXPECT_EQ(server.stats().clients, static_cast<std::uint64_t>(clients));
  EXPECT_EQ(server.stats().errors, 0u);
}

TEST(ServeProtocol, ConcurrentClientsOverLoopback) {
  Rng rng(670);
  const Graph g = random_kec(28, 2, 40, rng);
  SketchOptions opt;
  opt.seed = 671;
  IngestOptions io;
  io.sketch = opt;
  GraphSession session(g.num_vertices(), 2, io);
  SessionServer server(session);

  const int clients = 3;
  std::vector<std::unique_ptr<Transport>> owned;
  std::vector<Transport*> server_ends;
  std::vector<Transport*> client_ends;
  for (int i = 0; i < clients; ++i) {
    auto [s, c] = loopback_pair();
    server_ends.push_back(s.get());
    client_ends.push_back(c.get());
    owned.push_back(std::move(s));
    owned.push_back(std::move(c));
  }
  run_concurrent_mix(server_ends, client_ends, server, g, opt);
}

TEST(ServeProtocol, ConcurrentClientsOverTcp) {
  Rng rng(680);
  const Graph g = random_kec(24, 2, 32, rng);
  SketchOptions opt;
  opt.seed = 681;
  IngestOptions io;
  io.sketch = opt;
  GraphSession session(g.num_vertices(), 2, io);
  SessionServer server(session);

  const int clients = 2;
  TcpListener listener;
  std::vector<std::unique_ptr<Transport>> owned;
  std::vector<Transport*> server_ends;
  std::vector<Transport*> client_ends;
  for (int i = 0; i < clients; ++i) {
    std::unique_ptr<Transport> c;
    std::thread connector([&c, &listener] { c = tcp_connect("127.0.0.1", listener.port()); });
    owned.push_back(listener.accept());
    server_ends.push_back(owned.back().get());
    connector.join();
    client_ends.push_back(c.get());
    owned.push_back(std::move(c));
  }
  run_concurrent_mix(server_ends, client_ends, server, g, opt);
}

}  // namespace
}  // namespace deck
