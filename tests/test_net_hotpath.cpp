#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/delta_codec.hpp"
#include "congest/distributed_engine.hpp"
#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "congest/programs.hpp"
#include "graph/generators.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/rng.hpp"

namespace deck {
namespace {

// The net engine's round path, piece by piece: the DeltaCodec round-frame
// format (roundtrips, fallback, every malformed-byte rejection), the
// frame-level validation both protocol ends apply to round frames (stale
// round stamps, malformed delta bodies, version skew), and the
// observability the round path emits (delta/full frame counters, wire and
// fixed-format byte totals, send/recv wait histograms).

// Control byte layout mirrored from the codec: bits 0-1 kind, bits 2-5
// explicit-field presence, bits 6-7 reserved.
constexpr std::uint8_t kCtrlExplicit = 0;
constexpr std::uint8_t kCtrlRepeatSlot = 1;
constexpr std::uint8_t kCtrlRepeatPrev = 2;
constexpr std::uint8_t kCtrlPresentTag = 1u << 2;

Graph weighted_graph(int n, int k, std::uint64_t seed) {
  Rng rng(seed);
  return with_weights(random_kec(n, k, n, rng), WeightModel::kUniform, rng);
}

std::vector<WirePacket> roundtrip(DeltaCodec& tx, DeltaCodec& rx,
                                  const std::vector<WirePacket>& packets, bool expect_delta) {
  std::vector<std::uint8_t> body;
  const bool delta = tx.encode(body, packets);
  EXPECT_EQ(delta, expect_delta);
  net::WireReader r(body);
  std::vector<WirePacket> back =
      rx.decode(r, static_cast<std::uint32_t>(packets.size()), delta);
  EXPECT_EQ(r.remaining(), 0u);
  return back;
}

std::vector<WirePacket> sorted_by_slot(std::vector<WirePacket> packets) {
  std::sort(packets.begin(), packets.end(), [](const WirePacket& x, const WirePacket& y) {
    return 2 * x.edge + x.dir < 2 * y.edge + y.dir;
  });
  return packets;
}

TEST(DeltaCodec, ExplicitPayloadsRoundTrip) {
  DeltaCodec tx(8), rx(8);
  const std::vector<WirePacket> packets = {
      {3, 1, Packet{7, 100, 0, 5}},
      {0, 0, Packet{1, 2, 3, 0}},
      {5, 0, Packet{0, 0, 0, 0}},
  };
  // Delta bodies are slot-sorted; routing order in, slot order out.
  EXPECT_EQ(roundtrip(tx, rx, packets, /*expect_delta=*/true), sorted_by_slot(packets));
}

TEST(DeltaCodec, FrontierStylePayloadsCompressFarBelowFixed) {
  // The BFS flood shape: every packet is Packet{0,0,0,tag} — one varint
  // slot gap + one control byte each, ~18x under the 36-byte fixed format.
  DeltaCodec tx(64), rx(64);
  std::vector<WirePacket> packets;
  for (EdgeId e = 0; e < 20; ++e) packets.push_back({e, 0, Packet{0, 0, 0, 1}});
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(tx.encode(body, packets));
  EXPECT_LE(body.size(), packets.size() * 4);
  net::WireReader r(body);
  EXPECT_EQ(rx.decode(r, static_cast<std::uint32_t>(packets.size()), true), packets);
}

TEST(DeltaCodec, DenseNovelPayloadsStillUndercutFixed) {
  // The worst explicit packet — three maximal u64s (10 varint bytes each),
  // a tag byte, a control byte, and a slot byte — costs 33 bytes, still
  // under the 36-byte fixed format. The fallback only fires when slot-gap
  // varints outgrow that margin (graphs with >2^27 directed edges) or on
  // empty frames, so small-graph round frames are delta whenever non-empty.
  DeltaCodec tx(4), rx(4);
  const std::uint64_t big = ~std::uint64_t{0};
  const std::vector<WirePacket> packets = {{1, 0, Packet{big, big, big, 200}}};
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(tx.encode(body, packets));
  EXPECT_EQ(body.size(), 33u);
  net::WireReader r(body);
  EXPECT_EQ(rx.decode(r, 1, true), packets);
}

TEST(DeltaCodec, RepeatMarkersCompressRepeatedPayloads) {
  DeltaCodec tx(16), rx(16);
  const Packet payload{40, 50, 60, 3};
  // Frame 1 ships slot 2·4 explicitly.
  EXPECT_EQ(roundtrip(tx, rx, {{4, 0, payload}}, true), (std::vector<WirePacket>{{4, 0, payload}}));

  // Frame 2: slot 2·4 repeats its own history (repeat-slot) and slot 2·9
  // repeats the frame's previous packet (repeat-prev) — two bytes each.
  const std::vector<WirePacket> frame2 = {{4, 0, payload}, {9, 0, payload}};
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(tx.encode(body, frame2));
  EXPECT_LE(body.size(), 4u);
  net::WireReader r(body);
  EXPECT_EQ(rx.decode(r, 2, true), frame2);
}

TEST(DeltaCodec, CacheAdvancesIdenticallyAcrossFormats) {
  // A fixed-format frame must advance the per-slot cache exactly like a
  // delta frame, so a later delta frame may reference it with a
  // repeat-slot marker (the formats interleave freely on one link).
  DeltaCodec rx(4);
  const std::vector<WirePacket> novel = {{1, 1, Packet{77, 88, 99, 9}}};
  std::vector<std::uint8_t> fixed;
  encode_packet_fixed(fixed, novel[0].edge, novel[0].dir, novel[0].msg);
  {
    net::WireReader r(fixed);
    ASSERT_EQ(rx.decode(r, 1, /*delta=*/false), novel);
  }
  std::vector<std::uint8_t> repeat;  // slot 3 again, payload by reference
  net::put_varint(repeat, 3);
  repeat.push_back(kCtrlRepeatSlot);
  net::WireReader r(repeat);
  EXPECT_EQ(rx.decode(r, 1, /*delta=*/true), novel);
}

TEST(DeltaCodec, EmptyFramesAreFixed) {
  DeltaCodec tx(4);
  std::vector<std::uint8_t> body;
  EXPECT_FALSE(tx.encode(body, {}));
  EXPECT_TRUE(body.empty());
}

TEST(DeltaCodec, ResetForgetsTheCache) {
  // Executions are independent: after reset(), a repeat-slot reference to
  // the previous execution's traffic must be rejected as stale.
  DeltaCodec rx(4);
  std::vector<std::uint8_t> body;
  net::put_varint(body, 2);
  body.push_back(kCtrlExplicit | kCtrlPresentTag);
  body.push_back(5);
  {
    net::WireReader r(body);
    ASSERT_EQ(rx.decode(r, 1, true).size(), 1u);
  }
  rx.reset(4);
  std::vector<std::uint8_t> stale;
  net::put_varint(stale, 2);
  stale.push_back(kCtrlRepeatSlot);
  net::WireReader r(stale);
  EXPECT_THROW((void)rx.decode(r, 1, true), NetError);
}

std::string decode_error(DeltaCodec& rx, const std::vector<std::uint8_t>& body,
                         std::uint32_t count, bool delta = true) {
  net::WireReader r(body);
  try {
    (void)rx.decode(r, count, delta);
  } catch (const NetError& e) {
    return e.what();
  }
  return {};
}

TEST(DeltaCodecErrors, EveryMalformedDeltaByteIsATypedError) {
  DeltaCodec rx(4);  // slots 0..7

  {
    // Zero slot gap after the first packet: two payloads for one mailbox.
    std::vector<std::uint8_t> b;
    net::put_varint(b, 0);
    b.push_back(kCtrlExplicit);
    net::put_varint(b, 0);
    b.push_back(kCtrlExplicit);
    EXPECT_NE(decode_error(rx, b, 2).find("overlapping delta payload"), std::string::npos);
  }
  {
    // Slot id past the last directed edge.
    std::vector<std::uint8_t> b;
    net::put_varint(b, 8);
    b.push_back(kCtrlExplicit);
    EXPECT_NE(decode_error(rx, b, 1).find("outside the graph"), std::string::npos);
  }
  {
    // Reserved control bits set.
    std::vector<std::uint8_t> b;
    net::put_varint(b, 0);
    b.push_back(0xc0);
    EXPECT_NE(decode_error(rx, b, 1).find("reserved control bits"), std::string::npos);
  }
  {
    // Repeat-slot marker for a mailbox this link never shipped.
    std::vector<std::uint8_t> b;
    net::put_varint(b, 1);
    b.push_back(kCtrlRepeatSlot);
    EXPECT_NE(decode_error(rx, b, 1).find("never shipped"), std::string::npos);
  }
  {
    // Repeat-prev as the first packet of a frame.
    std::vector<std::uint8_t> b;
    net::put_varint(b, 0);
    b.push_back(kCtrlRepeatPrev);
    EXPECT_NE(decode_error(rx, b, 1).find("no previous message"), std::string::npos);
  }
  {
    // Kind 3 does not exist.
    std::vector<std::uint8_t> b;
    net::put_varint(b, 0);
    b.push_back(3);
    EXPECT_NE(decode_error(rx, b, 1).find("unknown packet encoding"), std::string::npos);
  }
  {
    // More packets than directed-edge mailboxes.
    EXPECT_NE(decode_error(rx, {}, 9).find("more packets than directed edges"),
              std::string::npos);
  }
}

TEST(DeltaCodecErrors, EveryTruncationIsATypedError) {
  DeltaCodec tx(8);
  std::vector<std::uint8_t> body;
  const std::vector<WirePacket> packets = {{0, 0, Packet{1, 2, 3, 4}}, {3, 1, Packet{9, 0, 0, 1}}};
  ASSERT_TRUE(tx.encode(body, packets));
  for (std::size_t len = 0; len < body.size(); ++len) {
    DeltaCodec rx(8);
    const std::vector<std::uint8_t> prefix(body.begin(),
                                           body.begin() + static_cast<std::ptrdiff_t>(len));
    net::WireReader r(prefix);
    EXPECT_THROW((void)rx.decode(r, 2, true), NetError) << "prefix length " << len;
  }
}

TEST(DeltaCodecErrors, MalformedFixedPacketsAreTypedErrors) {
  DeltaCodec rx(4);
  {
    std::vector<std::uint8_t> b;  // direction 2 does not exist
    net::put_u32(b, 0);
    net::put_u32(b, 2);
    net::put_u32(b, 0);
    net::put_u64(b, 0);
    net::put_u64(b, 0);
    net::put_u64(b, 0);
    EXPECT_NE(decode_error(rx, b, 1, /*delta=*/false).find("direction must be 0 or 1"),
              std::string::npos);
  }
  {
    std::vector<std::uint8_t> b;  // edge 99 of a 4-edge graph
    net::put_u32(b, 99);
    net::put_u32(b, 0);
    net::put_u32(b, 0);
    net::put_u64(b, 0);
    net::put_u64(b, 0);
    net::put_u64(b, 0);
    EXPECT_NE(decode_error(rx, b, 1, /*delta=*/false).find("outside the graph"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Coordinator-side round-frame validation, driven by a scripted impostor
// worker: a malformed RoundDone must kill that worker with the named typed
// error, which (with nobody left to adopt the range) surfaces to the
// caller.

std::uint32_t round_done_head(std::uint32_t flags, std::uint32_t round) {
  return static_cast<std::uint32_t>(CongestMsg::kRoundDone) | (flags << 8) | (round << 16);
}

std::uint32_t round_head(std::uint32_t flags, std::uint32_t round) {
  return static_cast<std::uint32_t>(CongestMsg::kRound) | (flags << 8) | (round << 16);
}

/// Runs a 1-worker BFS phase against an impostor worker that answers the
/// first barrier with `round_done`, and returns the coordinator's typed
/// error message.
std::string coordinator_rejects(const std::vector<std::uint8_t>& round_done) {
  auto [coord, work] = loopback_pair();
  std::thread t([w = std::shared_ptr<Transport>(std::move(work)), &round_done] {
    std::vector<std::uint8_t> hello;
    net::put_u32(hello, static_cast<std::uint32_t>(CongestMsg::kHello));
    net::put_u32(hello, kCongestProtoVersion);
    w->send(hello);
    (void)w->recv();  // LoadGraph
    (void)w->recv();  // Start
    w->send(round_done);
    while (w->recv().has_value()) {  // drain until the coordinator closes us
    }
    w->close();
  });
  std::string what;
  {
    const std::shared_ptr<DistributedEngineHub> hub = make_distributed_hub({coord.get()});
    try {
      const Graph g = weighted_graph(8, 2, 5001);
      Network net(g, hub);
      (void)distributed_bfs(net, 0);
    } catch (const NetError& e) {
      what = e.what();
    }
    hub->shutdown();
  }
  coord->close();
  t.join();
  return what;
}

TEST(CoordinatorProtocol, StaleRoundDoneIsATypedError) {
  std::vector<std::uint8_t> f;
  net::put_u32(f, round_done_head(0, 7));  // barrier is at round 1
  net::put_u64(f, 1);
  net::put_u32(f, 0);
  EXPECT_NE(coordinator_rejects(f).find("stale RoundDone"), std::string::npos);
}

TEST(CoordinatorProtocol, OverlappingDeltaRoundDoneIsATypedError) {
  std::vector<std::uint8_t> f;
  net::put_u32(f, round_done_head(1, 1));
  net::put_u64(f, 1);
  net::put_u32(f, 2);       // two packets...
  net::put_varint(f, 0);    // ...first at slot 0
  f.push_back(kCtrlExplicit);
  net::put_varint(f, 0);    // ...second at a zero gap: same mailbox twice
  f.push_back(kCtrlExplicit);
  EXPECT_NE(coordinator_rejects(f).find("overlapping delta payload"), std::string::npos);
}

TEST(CoordinatorProtocol, TruncatedDeltaRoundDoneIsATypedError) {
  std::vector<std::uint8_t> f;
  net::put_u32(f, round_done_head(1, 1));
  net::put_u64(f, 1);
  net::put_u32(f, 2);     // claims two packets, carries half of one
  net::put_varint(f, 0);
  EXPECT_NE(coordinator_rejects(f).find("malformed protocol message"), std::string::npos);
}

TEST(CoordinatorProtocol, OversizedRoundDoneIsATypedError) {
  std::vector<std::uint8_t> f;
  net::put_u32(f, round_done_head(1, 1));
  net::put_u64(f, 1);
  net::put_u32(f, 1u << 20);  // more packets than directed edges
  EXPECT_NE(coordinator_rejects(f).find("more packets than directed edges"),
            std::string::npos);
}

TEST(CoordinatorProtocol, V3WorkerIsRejectedWithAVersionSkewError) {
  // Cross-version: a worker speaking an older protocol (v3, or v4 with its
  // exec-flags Start) must be turned away at the handshake with an error
  // naming both versions.
  for (const std::uint32_t version : {3u, 4u}) {
    auto [coord, work] = loopback_pair();
    std::thread t([w = std::shared_ptr<Transport>(std::move(work)), version] {
      std::vector<std::uint8_t> hello;
      net::put_u32(hello, static_cast<std::uint32_t>(CongestMsg::kHello));
      net::put_u32(hello, version);
      w->send(hello);
      while (w->recv().has_value()) {
      }
      w->close();
    });
    std::string what;
    try {
      (void)make_distributed_hub({coord.get()}, DistributedHubOptions{});
    } catch (const NetError& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("speaks protocol version " + std::to_string(version) +
                        ", coordinator speaks 5"),
              std::string::npos)
        << what;
    coord->close();
    t.join();
  }
}

// ---------------------------------------------------------------------------
// Worker-side round-frame validation: the mirror checks, driven by a
// scripted impostor coordinator.

std::vector<std::uint8_t> square_graph_frame() {
  std::vector<std::uint8_t> f;
  net::put_u32(f, static_cast<std::uint32_t>(CongestMsg::kLoadGraph));
  net::put_u32(f, 1);  // graph id
  net::put_u32(f, 4);  // n
  net::put_u32(f, 4);  // m
  for (const auto& [u, v] : std::initializer_list<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 1}, {1, 2}, {2, 3}, {3, 0}}) {
    net::put_u32(f, u);
    net::put_u32(f, v);
    net::put_u64(f, 1);
  }
  net::put_u32(f, 0);  // lo
  net::put_u32(f, 4);  // hi
  return f;
}

std::vector<std::uint8_t> start_bfs_frame() {
  BfsProgram bfs(4, 0);
  std::vector<std::uint8_t> f;
  net::put_u32(f, static_cast<std::uint32_t>(CongestMsg::kStart));
  net::put_u32(f, 1);  // graph id
  net::put_u32(f, bfs.program_id());
  net::put_u32(f, 1);  // trace node id
  net::put_u32(f, 0);  // tracing off
  net::put_u64(f, 0);  // trace id
  net::put_u64(f, 0);  // parent span
  bfs.encode_spec(f);
  return f;
}

/// Feeds `frames` to a fresh worker (after its Hello) and returns the typed
/// error the worker died with. The worker answers the Start by running
/// round 1 and posting its RoundDone, then reads the next queued frame.
std::string worker_rejects(const std::vector<std::vector<std::uint8_t>>& frames) {
  auto [coord, work] = loopback_pair();
  std::string what;
  std::thread t([&what, &work] {
    try {
      run_congest_worker(*work);
    } catch (const NetError& e) {
      what = e.what();
    }
  });
  (void)coord->recv();  // Hello
  for (const auto& f : frames) coord->send(f);
  t.join();
  coord->close();
  return what;
}

TEST(WorkerProtocol, StaleRoundFrameIsATypedError) {
  std::vector<std::uint8_t> round;
  net::put_u32(round, round_head(0, 5));  // worker is at round 1
  net::put_u32(round, 0);
  EXPECT_NE(worker_rejects({square_graph_frame(), start_bfs_frame(), round})
                .find("stale Round frame"),
            std::string::npos);
}

TEST(WorkerProtocol, MalformedDeltaRoundBodiesAreTypedErrors) {
  {
    std::vector<std::uint8_t> round;  // overlapping: zero gap between packets
    net::put_u32(round, round_head(1, 1));
    net::put_u32(round, 2);
    net::put_varint(round, 0);
    round.push_back(kCtrlExplicit);
    net::put_varint(round, 0);
    round.push_back(kCtrlExplicit);
    EXPECT_NE(worker_rejects({square_graph_frame(), start_bfs_frame(), round})
                  .find("overlapping delta payload"),
              std::string::npos);
  }
  {
    std::vector<std::uint8_t> round;  // truncated: claims a packet, body empty
    net::put_u32(round, round_head(1, 1));
    net::put_u32(round, 1);
    EXPECT_NE(worker_rejects({square_graph_frame(), start_bfs_frame(), round})
                  .find("malformed protocol message"),
              std::string::npos);
  }
  {
    std::vector<std::uint8_t> round;  // stale repeat-slot reference
    net::put_u32(round, round_head(1, 1));
    net::put_u32(round, 1);
    net::put_varint(round, 0);
    round.push_back(kCtrlRepeatSlot);
    EXPECT_NE(worker_rejects({square_graph_frame(), start_bfs_frame(), round})
                  .find("never shipped"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Round-path observability: the counters and histograms that attribute
// round wire cost and comm waits.

TEST(NetHotPathObs, DeltaFramesAndCommWaitsAreCounted) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const Graph g = weighted_graph(24, 2, 5002);
  {
    CongestWorkerFleet fleet(2, FleetOptions{});
    Network net(g, fleet.hub());
    (void)distributed_bfs(net, 0);
  }
  const obs::Snapshot snap = obs::Registry::global().scrape();
  EXPECT_GE(snap.counter("congest.net.delta_frames"), 1u);
  const obs::Histogram::Snap* wire = snap.histogram("congest.net.round_wire_bytes");
  ASSERT_NE(wire, nullptr);
  EXPECT_GE(wire->count, 1u);
  // BFS flood payloads compress, so the fixed format would cost more.
  EXPECT_GT(snap.counter("congest.net.round_fixed_bytes"), wire->sum);
  const obs::Histogram::Snap* send_wait = snap.histogram("congest.net.send_thread_wait_ns");
  ASSERT_NE(send_wait, nullptr);
  EXPECT_GE(send_wait->count, 1u);
  const obs::Histogram::Snap* recv_wait = snap.histogram("congest.net.recv_thread_wait_ns");
  ASSERT_NE(recv_wait, nullptr);
  EXPECT_GE(recv_wait->count, 1u);
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

}  // namespace
}  // namespace deck
