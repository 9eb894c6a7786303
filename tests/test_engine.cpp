#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/distributed_engine.hpp"
#include "congest/engine.hpp"
#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "congest/programs.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "ecss/distributed_3ecss.hpp"
#include "ecss/distributed_kecss.hpp"
#include "graph/generators.hpp"
#include "mst/distributed_mst.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "tap/distributed_tap.hpp"
#include "tap/tap_instance.hpp"

namespace deck {
namespace {

// The engine-identity property: both backends — sequential, and
// Transport-backed for any worker count — produce bit-identical algorithm
// outputs and identical round/message counters, phase by phase.

struct RunRecord {
  std::vector<EdgeId> edges;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> phase_costs;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

RunRecord record(Network& net, std::vector<EdgeId> edges) {
  RunRecord r;
  r.edges = std::move(edges);
  r.rounds = net.rounds();
  r.messages = net.messages();
  for (const auto& p : net.phases()) r.phase_costs.emplace_back(p.rounds, p.messages);
  return r;
}

template <typename Algo>
void expect_engine_identity(const Graph& g, Algo&& algo, const char* what) {
  RunRecord base;
  {
    Network net(g);  // default = sequential
    base = record(net, algo(net));
    EXPECT_EQ(net.hub()->name(), "seq");
  }
  for (int workers : {1, 2, 4}) {
    CongestWorkerFleet fleet(workers);
    Network net(g, fleet.hub());
    const RunRecord got = record(net, algo(net));
    EXPECT_EQ(got, base) << what << ": net engine with " << workers << " workers diverged";
  }
}

Graph weighted_graph(int n, int k, std::uint64_t seed) {
  Rng rng(seed);
  return with_weights(random_kec(n, k, n, rng), WeightModel::kUniform, rng);
}

TEST(EngineIdentity, Ecss2PipelineBitIdenticalAcrossBackends) {
  const Graph g = weighted_graph(48, 2, 9001);
  expect_engine_identity(
      g,
      [](Network& net) {
        const Ecss2Result r = distributed_2ecss(net, TapOptions{});
        return r.edges;
      },
      "2-ecss");
}

TEST(EngineIdentity, KecssPipelineBitIdenticalAcrossBackends) {
  const Graph g = weighted_graph(28, 3, 9002);
  expect_engine_identity(
      g,
      [](Network& net) {
        KecssOptions opt;
        opt.seed = 7;
        const KecssResult r = distributed_kecss(net, 3, opt);
        return r.edges;
      },
      "k-ecss");
}

TEST(EngineIdentity, Unweighted3EcssBitIdenticalAcrossBackends) {
  Rng rng(9003);
  const Graph g = random_kec(32, 3, 32, rng);
  expect_engine_identity(
      g,
      [](Network& net) {
        Ecss3Options opt;
        opt.seed = 5;
        const Ecss3Result r = distributed_3ecss_unweighted(net, opt);
        return r.edges;
      },
      "3-ecss");
}

TEST(EngineIdentity, MstBitIdenticalAcrossBackends) {
  const Graph g = weighted_graph(56, 2, 9004);
  expect_engine_identity(
      g,
      [](Network& net) {
        const RootedTree bfs = distributed_bfs(net, 0);
        MstResult mst = distributed_mst(net, bfs);
        return mst.mst_edges;
      },
      "mst");
}

TEST(EngineIdentity, TapBitIdenticalAcrossBackends) {
  Rng rng(9005);
  TapInstance inst = random_tap_instance(36, 24, 1, rng);
  expect_engine_identity(
      inst.g,
      [&inst](Network& net) {
        const TapResult r = distributed_tap_standalone(net, inst, TapOptions{});
        return r.augmentation;
      },
      "tap");
}

TEST(EngineIdentity, PrimitivesBitIdenticalAcrossBackends) {
  // Primitive-level identity on one graph: BFS + every forest flow, with
  // counters compared per phase.
  const Graph g = weighted_graph(40, 2, 9006);
  expect_engine_identity(
      g,
      [](Network& net) {
        const int n = net.n();
        net.begin_phase("bfs");
        const RootedTree t = distributed_bfs(net, 0);
        const CommForest f = CommForest::from_tree(t);

        net.begin_phase("convergecast");
        std::vector<std::uint64_t> ones(static_cast<std::size_t>(n), 1);
        const auto sums = convergecast(net, f, ones, CombineOp::kSum);

        net.begin_phase("broadcast");
        std::vector<std::uint64_t> val(static_cast<std::size_t>(n), 0);
        val[0] = sums[0];
        broadcast(net, f, val);

        net.begin_phase("upcast");
        std::vector<std::vector<KeyedItem>> items(static_cast<std::size_t>(n));
        for (VertexId v = 0; v < n; ++v)
          items[static_cast<std::size_t>(v)].push_back(
              KeyedItem{static_cast<std::uint64_t>(v % 5), static_cast<std::uint64_t>(200 - v),
                        static_cast<std::uint64_t>(v)});
        auto fin = keyed_min_upcast(net, f, std::move(items));

        net.begin_phase("pipelined_broadcast");
        std::vector<std::vector<KeyedItem>> root_items(static_cast<std::size_t>(n));
        root_items[0] = fin[0];
        pipelined_broadcast(net, f, std::move(root_items));

        net.begin_phase("path_downcast");
        std::vector<KeyedItem> own(static_cast<std::size_t>(n));
        for (VertexId v = 0; v < n; ++v)
          own[static_cast<std::size_t>(v)] =
              KeyedItem{static_cast<std::uint64_t>(v), 0, 0};
        auto paths = path_downcast(net, f, own);

        net.begin_phase("edge_exchange");
        std::vector<EdgeId> ex;
        std::vector<std::vector<std::uint64_t>> fu, fv;
        for (EdgeId e = 0; e < net.graph().num_edges(); e += 3) {
          ex.push_back(e);
          fu.push_back({static_cast<std::uint64_t>(e), 1});
          fv.push_back({static_cast<std::uint64_t>(e) + 7});
        }
        const ExchangeResult xr = edge_exchange(net, ex, fu, fv);

        // Fold every output into an edge list so RunRecord comparison sees
        // all of it.
        std::vector<EdgeId> digest;
        for (VertexId v = 0; v < n; ++v) {
          digest.push_back(t.parent_edge(v));
          digest.push_back(static_cast<EdgeId>(sums[static_cast<std::size_t>(v)] & 0xffff));
          for (const auto& it : paths[static_cast<std::size_t>(v)])
            digest.push_back(static_cast<EdgeId>(it.key));
        }
        for (const auto& ws : xr.at_u)
          for (auto w : ws) digest.push_back(static_cast<EdgeId>(w & 0xffff));
        return digest;
      },
      "primitives");
}

TEST(EngineIdentity, NetHotPathConfigMatrixBitIdentical) {
  // The workers matrix on a second 2-ECSS graph: every net engine config
  // must reproduce the sequential run bit for bit, counters included.
  expect_engine_identity(
      weighted_graph(32, 2, 9010),
      [](Network& net) {
        const Ecss2Result r = distributed_2ecss(net, TapOptions{});
        return r.edges;
      },
      "2-ecss");
}

// ---------------------------------------------------------------------------
// Outbox contract: every misuse of Outbox::send is a std::logic_error — never
// an out-of-bounds access.

enum class Misuse { kTwiceOnOneEdge, kNonIncidentEdge, kEdgeMinusOne, kEdgePastEnd };

/// Every vertex of a cycle steps in round 1 and commits `misuse`.
class MisusingProgram final : public VertexProgram {
 public:
  explicit MisusingProgram(Misuse misuse) : misuse_(misuse) {}

  std::uint32_t program_id() const override { return 0xffff0001u; }
  void setup(const Graph& g) override { g_ = &g; }
  bool starts_active(VertexId) const override { return true; }

  void step(VertexId v, int, std::span<const Delivery>, Outbox& out) override {
    const int n = g_->num_vertices();
    const VertexId next = (v + 1) % n;  // edge v is {v, v + 1}
    switch (misuse_) {
      case Misuse::kTwiceOnOneEdge:
        out.send(next, v, Packet{});
        out.send(next, v, Packet{});
        break;
      case Misuse::kNonIncidentEdge:  // edge {v + 2, v + 3} misses v
        out.send((v + 3) % n, (v + 2) % n, Packet{});
        break;
      case Misuse::kEdgeMinusOne:
        out.send(next, -1, Packet{});
        break;
      case Misuse::kEdgePastEnd:
        out.send(next, g_->num_edges(), Packet{});
        break;
    }
  }

  void encode_spec(std::vector<std::uint8_t>&) const override {}
  void encode_outputs(VertexId, VertexId, std::vector<std::uint8_t>&) const override {}
  void decode_outputs(VertexId, VertexId, std::span<const std::uint8_t>) override {}

 private:
  Misuse misuse_;
  const Graph* g_ = nullptr;
};

Graph cycle_graph(int n) {
  Graph g(n);
  for (VertexId v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return g;
}

TEST(EngineContract, OutboxMisuseThrowsOnSeq) {
  const Graph g = cycle_graph(12);
  const std::pair<Misuse, const char*> misuses[] = {
      {Misuse::kTwiceOnOneEdge, "twice on one directed edge"},
      {Misuse::kNonIncidentEdge, "non-incident edge"},
      {Misuse::kEdgeMinusOne, "edge id -1"},
      {Misuse::kEdgePastEnd, "edge id m"},
  };
  for (const auto& [misuse, what] : misuses) {
    Network net(g);
    MisusingProgram prog(misuse);
    EXPECT_THROW((void)net.engine().execute(prog), std::logic_error) << what;
  }
}

// ---------------------------------------------------------------------------
// Runner reuse: a Network keeps one runner for all its executions, so a step
// that throws mid-round must not leak wake flags or mailbox contents into the
// next execution.

/// Round 1: every vertex sends over all its edges, leaving live mailboxes.
/// Round 2: every vertex stays awake and then throws, so the round stops
/// after its first vertex — vertex 0, whose flag the next execution's BFS
/// root must still be able to raise.
class ThrowingProgram final : public VertexProgram {
 public:
  std::uint32_t program_id() const override { return 0xffff0002u; }
  void setup(const Graph& g) override { g_ = &g; }
  bool starts_active(VertexId) const override { return true; }

  void step(VertexId v, int round, std::span<const Delivery>, Outbox& out) override {
    if (round == 1) {
      for (const Adj& a : g_->neighbors(v)) out.send(a.to, a.edge, Packet{1, 2, 3, 4});
      return;
    }
    out.stay_awake();
    throw std::runtime_error("step failed");
  }

  void encode_spec(std::vector<std::uint8_t>&) const override {}
  void encode_outputs(VertexId, VertexId, std::vector<std::uint8_t>&) const override {}
  void decode_outputs(VertexId, VertexId, std::span<const std::uint8_t>) override {}

 private:
  const Graph* g_ = nullptr;
};

TEST(EngineReuse, ThrowingExecutionLeavesNoTraceOnTheNextOne) {
  const Graph g = weighted_graph(64, 2, 9012);
  const auto algo = [](Network& net) { return distributed_2ecss(net, TapOptions{}).edges; };
  Network fresh(g);
  const RunRecord base = record(fresh, algo(fresh));

  Network reused(g);
  ThrowingProgram bad;
  EXPECT_THROW((void)reused.engine().execute(bad), std::runtime_error);
  const std::uint64_t rounds_before = reused.rounds();
  const std::uint64_t messages_before = reused.messages();
  RunRecord got = record(reused, algo(reused));
  got.rounds -= rounds_before;
  got.messages -= messages_before;
  EXPECT_EQ(got, base) << "execution after a throwing one diverged";
}

/// Counts which engines executed, and how often, around an inner hub.
class CountingHub final : public EngineHub {
 public:
  explicit CountingHub(std::shared_ptr<EngineHub> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<Engine> engine_for(const Graph& g) override {
    return std::make_unique<CountingEngine>(inner_->engine_for(g), *this);
  }

  std::uint64_t engines_executed = 0;
  std::uint64_t executions = 0;

 private:
  class CountingEngine final : public Engine {
   public:
    CountingEngine(std::unique_ptr<Engine> inner, CountingHub& hub)
        : inner_(std::move(inner)), hub_(&hub) {}
    std::string name() const override { return inner_->name(); }
    ExecStats execute(VertexProgram& prog) override {
      if (!executed_) hub_->engines_executed += 1;
      executed_ = true;
      hub_->executions += 1;
      return inner_->execute(prog);
    }

   private:
    std::unique_ptr<Engine> inner_;
    CountingHub* hub_;
    bool executed_ = false;
  };

  std::shared_ptr<EngineHub> inner_;
};

TEST(EngineReuse, OneRunnerBuildPerNetworkThatExecuted) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const Graph g = weighted_graph(48, 2, 9013);
  const auto hub = std::make_shared<CountingHub>(EngineHub::sequential());
  {
    Network net(g, hub);
    (void)distributed_2ecss(net, TapOptions{});
  }
  obs::set_enabled(false);
  const std::uint64_t builds = obs::Registry::global().counter("congest.runner_builds").value();
  const std::uint64_t executions = obs::Registry::global().counter("congest.executions").value();
  obs::Registry::global().reset();
  EXPECT_EQ(builds, hub->engines_executed);
  EXPECT_EQ(executions, hub->executions);
  EXPECT_GT(builds, 0u);
  EXPECT_LT(10 * builds, executions) << "runners are rebuilt instead of reused";
}

// ---------------------------------------------------------------------------
// Golden counters. seq and net both step through the same BspRunner, so the
// identity suites above cannot see a bug the two share; these pin the exact
// outputs and counters of the reference runs instead.

std::uint64_t edge_digest(const std::vector<EdgeId>& edges) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a over the edge ids, in order
  for (const EdgeId e : edges) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(e));
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  std::uint64_t rounds, messages;
  Weight weight;
  std::size_t edges;
  std::uint64_t digest;
};

void expect_golden(const Network& net, const std::vector<EdgeId>& edges, Weight weight,
                   const Golden& want, const std::string& what) {
  EXPECT_EQ(net.rounds(), want.rounds) << what;
  EXPECT_EQ(net.messages(), want.messages) << what;
  EXPECT_EQ(weight, want.weight) << what;
  EXPECT_EQ(edges.size(), want.edges) << what;
  EXPECT_EQ(edge_digest(edges), want.digest) << what;
}

TEST(EngineGolden, Ecss2CountersMatchTheReference) {
  const std::pair<int, Golden> cases[] = {
      {64, {1141, 22245, 2193, 88, 0xb972fc191ca27f81ull}},
      {256, {2167, 152378, 32946, 331, 0xe13ea1236a6396a7ull}},
  };
  for (const auto& [n, want] : cases) {
    const Graph g = weighted_graph(n, 2, 9100 + static_cast<std::uint64_t>(n));
    Network net(g);
    const Ecss2Result r = distributed_2ecss(net, TapOptions{});
    expect_golden(net, r.edges, r.weight, want, "2-ecss n=" + std::to_string(n));
  }
}

TEST(EngineGolden, KecssCountersMatchTheReference) {
  const Graph g = weighted_graph(48, 3, 9300);
  Network net(g);
  const KecssResult r = distributed_kecss(net, 3, KecssOptions{});
  expect_golden(net, r.edges, r.weight, {7567, 87855, 1376, 84, 0x39370132e49c7710ull},
                "3-ecss n=48");
}

// ---------------------------------------------------------------------------
// Distributed-engine protocol details and fault paths.

TEST(DistributedEngine, SubNetworksInheritTheHubAcrossLayers) {
  // k-ECSS builds internal sub-Networks (connector levels); with a worker
  // fleet those must execute on the same fleet — this runs end-to-end and
  // agrees with the sequential run.
  const Graph g = weighted_graph(20, 2, 9007);
  KecssOptions opt;
  opt.seed = 3;
  Network seq(g);
  const KecssResult base = distributed_kecss(seq, 2, opt);
  CongestWorkerFleet fleet(2);
  {
    Network net(g, fleet.hub());
    const KecssResult got = distributed_kecss(net, 2, opt);
    EXPECT_EQ(got.edges, base.edges);
    EXPECT_EQ(net.rounds(), seq.rounds());
    EXPECT_EQ(net.messages(), seq.messages());
  }
}

TEST(DistributedEngine, WorkerRejectsGarbageCoordinator) {
  {  // first message is not a recognized type
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> junk;
    net::put_u32(junk, 0xdeadbeef);
    c->send(junk);
    std::thread drain([&c] { (void)c->recv(); });  // swallow the Hello
    EXPECT_THROW(run_congest_worker(*w), NetError);
    c->close();
    drain.join();
  }
  {  // Start for a graph that was never loaded
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> start;
    net::put_u32(start, static_cast<std::uint32_t>(CongestMsg::kStart));
    net::put_u32(start, 42);  // unknown graph id
    net::put_u32(start, 1);
    c->send(start);
    std::thread drain([&c] { (void)c->recv(); });
    EXPECT_THROW(run_congest_worker(*w), NetError);
    c->close();
    drain.join();
  }
  {  // truncated LoadGraph
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> load;
    net::put_u32(load, static_cast<std::uint32_t>(CongestMsg::kLoadGraph));
    net::put_u32(load, 1);
    net::put_u32(load, 8);        // n
    net::put_u32(load, 1000000);  // m far beyond the frame
    c->send(load);
    std::thread drain([&c] { (void)c->recv(); });
    EXPECT_THROW(run_congest_worker(*w), NetError);
    c->close();
    drain.join();
  }
}

TEST(DistributedEngine, CoordinatorRejectsBadHello) {
  {  // wrong opener
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> junk;
    net::put_u32(junk, static_cast<std::uint32_t>(CongestMsg::kRoundDone));
    w->send(junk);
    std::vector<Transport*> raw{c.get()};
    EXPECT_THROW(make_distributed_hub(raw), NetError);
  }
  {  // protocol version mismatch
    auto [c, w] = loopback_pair();
    std::vector<std::uint8_t> hello;
    net::put_u32(hello, static_cast<std::uint32_t>(CongestMsg::kHello));
    net::put_u32(hello, kCongestProtoVersion + 9);
    w->send(hello);
    std::vector<Transport*> raw{c.get()};
    EXPECT_THROW(make_distributed_hub(raw), NetError);
  }
  {  // worker dies before Hello
    auto [c, w] = loopback_pair();
    w->close();
    std::vector<Transport*> raw{c.get()};
    EXPECT_THROW(make_distributed_hub(raw), NetError);
  }
}

TEST(DistributedEngine, ProgramInvariantFailureOnAFleetIsATypedError) {
  // A DECK_CHECK tripping inside a fleet worker (here: BFS on a
  // disconnected graph) must surface as a catchable NetError on the
  // coordinator, not std::terminate the host process.
  Graph g(4);
  g.add_edge(0, 1);  // vertices 2 and 3 unreachable
  CongestWorkerFleet fleet(2);
  {
    Network net(g, fleet.hub());
    EXPECT_THROW((void)distributed_bfs(net, 0), NetError);
  }
}

TEST(DistributedEngine, MalformedProgramSpecIsATypedError) {
  // A Start whose spec names an out-of-range edge id (or forest parent)
  // must raise NetError on the worker, never index the graph out of
  // bounds.
  auto [c, w] = loopback_pair();
  std::thread worker([t = std::shared_ptr<Transport>(std::move(w))] {
    EXPECT_THROW(run_congest_worker(*t), NetError);
  });
  std::vector<std::uint8_t> load;
  net::put_u32(load, static_cast<std::uint32_t>(CongestMsg::kLoadGraph));
  net::put_u32(load, 1);  // graph id
  net::put_u32(load, 2);  // n
  net::put_u32(load, 1);  // m
  net::put_u32(load, 0);  // edge 0: (0, 1, w=1)
  net::put_u32(load, 1);
  net::put_u64(load, 1);
  net::put_u32(load, 0);  // owned range [0, 2)
  net::put_u32(load, 2);
  c->send(load);
  std::vector<std::uint8_t> start;
  net::put_u32(start, static_cast<std::uint32_t>(CongestMsg::kStart));
  net::put_u32(start, 1);  // graph id
  net::put_u32(start, static_cast<std::uint32_t>(ProgramId::kEdgeExchange));
  net::put_u32(start, 1);  // node id
  net::put_u32(start, 0);  // trace flags: off
  net::put_u64(start, 0);  // trace id
  net::put_u64(start, 0);  // parent span
  net::put_u32(start, 2);   // n
  net::put_u32(start, 1);   // one edge
  net::put_u32(start, 99);  // ...whose id does not exist
  net::put_u32(start, 1);   // from_u: one word
  net::put_u64(start, 7);
  net::put_u32(start, 0);  // from_v: empty
  c->send(start);
  worker.join();
  c->close();
}

TEST(DistributedEngine, WorkerDeathMidPhaseIsATypedError) {
  auto [c, w] = loopback_pair();
  // A fake worker that completes the handshake, accepts the graph and the
  // program, then dies mid-phase.
  std::thread impostor([t = std::shared_ptr<Transport>(std::move(w))] {
    std::vector<std::uint8_t> hello;
    net::put_u32(hello, static_cast<std::uint32_t>(CongestMsg::kHello));
    net::put_u32(hello, kCongestProtoVersion);
    t->send(hello);
    (void)t->recv();  // LoadGraph
    (void)t->recv();  // Start
    t->close();       // die without a RoundDone
  });
  std::vector<Transport*> raw{c.get()};
  auto hub = make_distributed_hub(raw);
  const Graph g = weighted_graph(12, 2, 9008);
  Network net(g, hub);
  EXPECT_THROW((void)distributed_bfs(net, 0), NetError);
  impostor.join();
}

TEST(DistributedEngine, RunsOverRealTcpSockets) {
  const Graph g = weighted_graph(24, 2, 9009);
  Network seq(g);
  const Ecss2Result base = distributed_2ecss(seq, TapOptions{});

  TcpListener listener;
  const int workers = 2;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([port = listener.port()] {
      const std::unique_ptr<Transport> t = tcp_connect("127.0.0.1", port);
      run_congest_worker(*t);
    });
  }
  std::vector<std::unique_ptr<Transport>> accepted;
  std::vector<Transport*> raw;
  for (int w = 0; w < workers; ++w) {
    accepted.push_back(listener.accept());
    raw.push_back(accepted.back().get());
  }
  {
    auto hub = make_distributed_hub(raw);
    {
      Network net(g, hub);
      const Ecss2Result got = distributed_2ecss(net, TapOptions{});
      EXPECT_EQ(got.edges, base.edges);
      EXPECT_EQ(net.rounds(), seq.rounds());
      EXPECT_EQ(net.messages(), seq.messages());
    }
    hub->shutdown();
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace deck
