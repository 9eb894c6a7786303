#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {
namespace {

// The obs switches, clock, and sinks are process-wide; every test starts
// from a clean enabled state and restores the defaults on the way out so
// ordering between tests (and between this suite and any future one in the
// same binary) never matters.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_tracing(true);
    obs::Registry::global().reset();
    obs::TraceSink::global().clear();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_tracing(false);
    obs::set_clock(nullptr);
    obs::set_trace_id(0);
    obs::set_trace_node(0);
    obs::set_base_context(obs::TraceContext{});
    obs::Registry::global().reset();
    obs::TraceSink::global().clear();
  }
};

std::atomic<std::uint64_t> g_fake_now{0};
std::uint64_t fake_clock() { return g_fake_now.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Metrics: striped write path, merge-on-scrape, registry semantics.

TEST_F(ObsTest, CounterMergesStripesAcrossThreads) {
  obs::Counter& c = obs::Registry::global().counter("test.obs.counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, CounterHammeredFromSharedThreadPool) {
  // Recovery and drain fan-out threads hit metric hooks concurrently; the striped
  // cells must merge to an exact total (and stay TSan-clean).
  obs::Counter& c = obs::Registry::global().counter("test.obs.pool_counter");
  ThreadPool pool(4);
  for (int j = 0; j < 64; ++j)
    pool.submit([&c] {
      for (int i = 0; i < 1000; ++i) c.add(3);
    });
  pool.wait();
  EXPECT_EQ(c.value(), 64u * 1000u * 3u);
}

TEST_F(ObsTest, HistogramBucketsSumAndCountAcrossThreads) {
  obs::Histogram& h =
      obs::Registry::global().histogram("test.obs.hist", std::vector<std::uint64_t>{10, 100});
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) {
        h.observe(5);     // <= 10
        h.observe(50);    // <= 100
        h.observe(5000);  // overflow
      }
    });
  for (std::thread& t : threads) t.join();
  const obs::Histogram::Snap s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(s.counts[0], 4000u);
  EXPECT_EQ(s.counts[1], 4000u);
  EXPECT_EQ(s.counts[2], 4000u);
  EXPECT_EQ(s.count, 12000u);
  EXPECT_EQ(s.sum, 4000u * (5 + 50 + 5000));
}

TEST_F(ObsTest, BoundaryValuesAreInclusiveUpperBounds) {
  obs::Histogram& h =
      obs::Registry::global().histogram("test.obs.bounds", std::vector<std::uint64_t>{10});
  h.observe(10);  // exactly the bound: first bucket
  h.observe(11);  // just above: overflow
  const obs::Histogram::Snap s = h.snapshot();
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
}

TEST_F(ObsTest, HandlesAreInternedAndSurviveReset) {
  obs::Counter& a = obs::Registry::global().counter("test.obs.interned");
  obs::Counter& b = obs::Registry::global().counter("test.obs.interned");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
  obs::Registry::global().reset();
  EXPECT_EQ(a.value(), 0u);  // zeroed, not invalidated
  a.add(2);
  EXPECT_EQ(obs::Registry::global().counter("test.obs.interned").value(), 2u);
}

TEST_F(ObsTest, NamesAreUniqueAcrossMetricKinds) {
  obs::Registry::global().counter("test.obs.kinded");
  EXPECT_THROW(obs::Registry::global().gauge("test.obs.kinded"), std::logic_error);
  EXPECT_THROW(obs::Registry::global().histogram("test.obs.kinded"), std::logic_error);
}

TEST_F(ObsTest, DisabledHooksRecordNothing) {
  obs::Counter& c = obs::Registry::global().counter("test.obs.disabled");
  obs::Gauge& g = obs::Registry::global().gauge("test.obs.disabled_gauge");
  obs::Histogram& h = obs::Registry::global().histogram("test.obs.disabled_hist");
  obs::set_enabled(false);
  c.add(5);
  g.set(5);
  h.observe(5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(ObsTest, SnapshotLookupsAndTextExposition) {
  obs::Registry::global().counter("test.obs.snap_counter").add(11);
  obs::Registry::global().gauge("test.obs.snap_gauge").set(-4);
  obs::Registry::global()
      .histogram("test.obs.snap_hist", std::vector<std::uint64_t>{10})
      .observe(3);
  const obs::Snapshot snap = obs::Registry::global().scrape();
  EXPECT_EQ(snap.counter("test.obs.snap_counter"), 11u);
  EXPECT_EQ(snap.gauge("test.obs.snap_gauge"), -4);
  ASSERT_NE(snap.histogram("test.obs.snap_hist"), nullptr);
  EXPECT_EQ(snap.histogram("test.obs.snap_hist")->count, 1u);
  EXPECT_EQ(snap.counter("test.obs.never_registered"), 0u);
  EXPECT_EQ(snap.histogram("test.obs.never_registered"), nullptr);
  const std::string text = snap.text();
  EXPECT_NE(text.find("test.obs.snap_counter 11\n"), std::string::npos);
  EXPECT_NE(text.find("test.obs.snap_gauge -4\n"), std::string::npos);
  EXPECT_NE(text.find("test.obs.snap_hist_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("test.obs.snap_hist_le_10 1\n"), std::string::npos);
}

TEST_F(ObsTest, SnapshotJsonCarriesEveryKind) {
  obs::Registry::global().counter("test.obs.json_counter").add(5);
  obs::Registry::global().gauge("test.obs.json_gauge").set(9);
  obs::Registry::global()
      .histogram("test.obs.json_hist", std::vector<std::uint64_t>{10})
      .observe(4);
  const std::string json = obs::Registry::global().scrape().to_json().dump();
  EXPECT_NE(json.find("\"test.obs.json_counter\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json_gauge\":9"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":4"), std::string::npos);
}

TEST_F(ObsTest, ExponentialBoundsAscendEvenUnderRounding) {
  const std::vector<std::uint64_t> b = obs::exponential_bounds(1, 1.1, 10);
  ASSERT_EQ(b.size(), 10u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]) << i;
  // Default latency ladder: 1µs doubling, 25 bounds.
  const std::vector<std::uint64_t>& lat = obs::latency_bounds_ns();
  ASSERT_EQ(lat.size(), 25u);
  EXPECT_EQ(lat.front(), 1000u);
  EXPECT_EQ(lat[1], 2000u);
  EXPECT_THROW(obs::exponential_bounds(0, 2.0, 3), std::logic_error);
}

TEST_F(ObsTest, RecoveryAttemptsTickOncePerQueryWithoutAdaptiveSizing) {
  // recovery.attempts is a counter like its recovery.* siblings: one tick
  // per ingest→recover attempt, so a fixed-sizing session ticks once per
  // query. The latest attempt's sizing stays in the two gauges.
  Rng rng(83);
  const Graph g = random_kec(24, 2, 24, rng);
  GraphSession session(g.num_vertices(), 2);
  std::uint64_t queries = 0;
  for (const Edge& e : g.edges()) {
    session.insert(e.u, e.v);
    if (session.stats().updates % 20 == 0) {
      (void)session.query();
      ++queries;
    }
  }
  (void)session.query();
  ++queries;
  const obs::Snapshot snap = obs::Registry::global().scrape();
  EXPECT_EQ(snap.counter("serve.session.queries"), queries);
  EXPECT_EQ(snap.counter("recovery.attempts"), queries);
  EXPECT_EQ(snap.gauge("recovery.columns"), SketchOptions{}.columns);
  EXPECT_EQ(snap.gauge("recovery.rounds_slack"), SketchOptions{}.rounds_slack);
}

// ---------------------------------------------------------------------------
// Tracing: span nesting, the injectable clock, and cross-thread parents.

TEST_F(ObsTest, SpansNestAndStampTheFakeClock) {
  obs::set_clock(&fake_clock);
  obs::set_trace_id(0xabc);
  g_fake_now = 1000;
  {
    obs::Span outer("outer");
    g_fake_now = 2000;
    {
      obs::Span inner("inner");
      inner.arg("round", 7);
      g_fake_now = 2500;
    }
    g_fake_now = 4000;
  }
  std::vector<obs::TraceEvent> evs = obs::TraceSink::global().drain();
  ASSERT_EQ(evs.size(), 2u);  // inner closes (and records) first
  EXPECT_EQ(evs[0].name, "inner");
  EXPECT_EQ(evs[0].ts_ns, 2000u);
  EXPECT_EQ(evs[0].dur_ns, 500u);
  EXPECT_EQ(evs[0].parent_id, evs[1].span_id);
  EXPECT_EQ(evs[0].trace_id, 0xabcu);
  ASSERT_EQ(evs[0].args.size(), 1u);
  EXPECT_EQ(evs[0].args[0].first, "round");
  EXPECT_EQ(evs[0].args[0].second, 7u);
  EXPECT_EQ(evs[1].name, "outer");
  EXPECT_EQ(evs[1].ts_ns, 1000u);
  EXPECT_EQ(evs[1].dur_ns, 3000u);
  EXPECT_EQ(evs[1].parent_id, 0u);
}

TEST_F(ObsTest, BaseContextParentsRootSpans) {
  // Network::begin_phase points the base context at the open phase; every
  // root span an engine opens afterwards must hang under it.
  const obs::TraceContext phase{0x77, 0x1234};
  obs::set_base_context(phase);
  { obs::Span s("engine.step"); }
  obs::set_base_context(obs::TraceContext{});
  std::vector<obs::TraceEvent> evs = obs::TraceSink::global().drain();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].parent_id, 0x1234u);
  EXPECT_EQ(evs[0].trace_id, 0x77u);  // inherited from the parent context
}

TEST_F(ObsTest, ExplicitParentCrossesThreads) {
  obs::set_trace_id(0x9);
  obs::TraceContext parent_ctx;
  {
    obs::Span parent("parent");
    parent_ctx = parent.context();
    std::thread worker([&parent_ctx] {
      obs::Span child("child", parent_ctx);
      EXPECT_TRUE(child.live());
    });
    worker.join();
  }
  std::vector<obs::TraceEvent> evs = obs::TraceSink::global().drain();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].name, "child");
  EXPECT_EQ(evs[0].parent_id, parent_ctx.span_id);
  EXPECT_NE(evs[0].tid, evs[1].tid);  // each thread gets its own track
}

TEST_F(ObsTest, TracingOffMakesSpansInert) {
  obs::set_tracing(false);
  {
    obs::Span s("inert");
    s.arg("x", 1);
    EXPECT_FALSE(s.live());
    EXPECT_EQ(s.context(), obs::TraceContext{});
  }
  EXPECT_EQ(obs::TraceSink::global().size(), 0u);
}

TEST_F(ObsTest, SpanIdsEmbedTheNodeId) {
  obs::set_trace_node(3);
  EXPECT_EQ(obs::trace_node(), 3u);
  const std::uint64_t id = obs::next_span_id();
  EXPECT_EQ(id >> 48, 3u);
  { obs::Span s("noded"); }
  std::vector<obs::TraceEvent> evs = obs::TraceSink::global().drain();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].pid, 3u);
  EXPECT_EQ(evs[0].span_id >> 48, 3u);
}

// ---------------------------------------------------------------------------
// Wire codec: round trip (including over a Transport), malformed buffers.

std::vector<obs::TraceEvent> sample_events() {
  obs::TraceEvent a;
  a.name = "alpha";
  a.ts_ns = 10;
  a.dur_ns = 5;
  a.pid = 2;
  a.tid = 1;
  a.trace_id = 0xfeed;
  a.span_id = (2ull << 48) | 7;
  a.parent_id = 42;
  a.args = {{"rounds", 9}, {"messages", 120}};
  obs::TraceEvent b;
  b.name = "beta";
  b.ts_ns = 20;
  b.dur_ns = 1;
  b.trace_id = 0xfeed;
  b.span_id = (2ull << 48) | 8;
  return {a, b};
}

void expect_events_equal(const std::vector<obs::TraceEvent>& got,
                         const std::vector<obs::TraceEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].ts_ns, want[i].ts_ns);
    EXPECT_EQ(got[i].dur_ns, want[i].dur_ns);
    EXPECT_EQ(got[i].pid, want[i].pid);
    EXPECT_EQ(got[i].tid, want[i].tid);
    EXPECT_EQ(got[i].trace_id, want[i].trace_id);
    EXPECT_EQ(got[i].span_id, want[i].span_id);
    EXPECT_EQ(got[i].parent_id, want[i].parent_id);
    EXPECT_EQ(got[i].args, want[i].args);
  }
}

TEST_F(ObsTest, EncodeDecodeRoundTrip) {
  const std::vector<obs::TraceEvent> events = sample_events();
  std::vector<std::uint8_t> bytes;
  obs::encode_trace_events(bytes, events);
  expect_events_equal(obs::decode_trace_events(bytes), events);
}

TEST_F(ObsTest, EmptyBatchRoundTrips) {
  std::vector<std::uint8_t> bytes;
  obs::encode_trace_events(bytes, {});
  EXPECT_TRUE(obs::decode_trace_events(bytes).empty());
}

TEST_F(ObsTest, ContextSurvivesALoopbackTransportHop) {
  // The distributed engine ships encoded events as a kTraceData frame; the
  // codec must survive the Transport framing byte for byte.
  const std::vector<obs::TraceEvent> events = sample_events();
  std::vector<std::uint8_t> bytes;
  obs::encode_trace_events(bytes, events);
  auto [a, b] = loopback_pair();
  a->send(bytes);
  const auto frame = b->recv();
  ASSERT_TRUE(frame.has_value());
  expect_events_equal(obs::decode_trace_events(*frame), events);
}

TEST_F(ObsTest, MalformedBuffersAreTypedErrors) {
  std::vector<std::uint8_t> bytes;
  obs::encode_trace_events(bytes, sample_events());
  // Truncation at every prefix length must throw, never read off the end.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    if (len == 0) continue;  // empty buffer is simply "no header"
    EXPECT_THROW(obs::decode_trace_events(cut), std::runtime_error) << len;
  }
  // Trailing garbage after a well-formed payload is rejected too.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(obs::decode_trace_events(padded), std::runtime_error);
  // A forged event count cannot force a giant allocation.
  std::vector<std::uint8_t> forged(8, 0xff);
  EXPECT_THROW(obs::decode_trace_events(forged), std::runtime_error);
}

TEST_F(ObsTest, ChromeTraceJsonShape) {
  obs::TraceEvent ev;
  ev.name = "he said \"hi\"\\";
  ev.ts_ns = 1500;
  ev.dur_ns = 1000;
  ev.pid = 1;
  ev.span_id = 0xab;
  const std::string json = obs::chrome_trace_json({&ev, 1});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("he said \\\"hi\\\"\\\\"), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);            // µs with 3 decimals
  EXPECT_NE(json.find("\"span\":\"ab\""), std::string::npos);         // ids as hex strings
}

TEST_F(ObsTest, SinkDrainRemovesEverything) {
  { obs::Span s("one"); }
  { obs::Span s("two"); }
  EXPECT_EQ(obs::TraceSink::global().size(), 2u);
  EXPECT_EQ(obs::TraceSink::global().drain().size(), 2u);
  EXPECT_EQ(obs::TraceSink::global().size(), 0u);
}

}  // namespace
}  // namespace deck
