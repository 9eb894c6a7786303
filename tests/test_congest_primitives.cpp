#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "congest/distributed_engine.hpp"
#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "congest/programs.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace deck {
namespace {

TEST(Network, ChargesAccumulateAndPhaseTrack) {
  Graph g = torus(3, 3);
  Network net(g);
  net.begin_phase("a");
  net.charge(5, 10);
  net.begin_phase("b");
  net.charge(2, 3);
  EXPECT_EQ(net.rounds(), 7u);
  EXPECT_EQ(net.messages(), 13u);
  ASSERT_EQ(net.phases().size(), 2u);
  EXPECT_EQ(net.phases()[0].rounds, 5u);
  EXPECT_EQ(net.phases()[1].messages, 3u);
  net.reset_counters();
  EXPECT_EQ(net.rounds(), 0u);
}

TEST(DistributedBfs, DepthsMatchSequentialAndRoundsMatchEccentricity) {
  Graph g = torus(4, 6);
  Network net(g);
  RootedTree t = distributed_bfs(net, 0);
  const auto dist = bfs_distances(g, 0);
  int ecc = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(t.depth(v), dist[static_cast<std::size_t>(v)]);
    ecc = std::max(ecc, dist[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(net.rounds(), static_cast<std::uint64_t>(ecc) + 1);
}

TEST(Convergecast, SumsSubtrees) {
  Graph g = hypercube(3);
  Network net(g);
  RootedTree t = distributed_bfs(net, 0);
  const CommForest f = CommForest::from_tree(t);
  std::vector<std::uint64_t> ones(8, 1);
  const auto acc = convergecast(net, f, ones, CombineOp::kSum);
  EXPECT_EQ(acc[0], 8u);  // root sees everything
}

TEST(Broadcast, DeliversRootValue) {
  Graph g = hypercube(3);
  Network net(g);
  RootedTree t = distributed_bfs(net, 0);
  const CommForest f = CommForest::from_tree(t);
  std::vector<std::uint64_t> val(8, 0);
  val[0] = 42;
  const auto got = broadcast(net, f, val);
  for (auto v : got) EXPECT_EQ(v, 42u);
}

TEST(KeyedMinUpcast, RootLearnsMinPerKey) {
  Graph g = torus(4, 4);
  Network net(g);
  RootedTree t = distributed_bfs(net, 0);
  const CommForest f = CommForest::from_tree(t);
  std::vector<std::vector<KeyedItem>> items(16);
  // Every vertex contributes to key (v % 3) with prio v.
  for (VertexId v = 0; v < 16; ++v)
    items[static_cast<std::size_t>(v)].push_back(
        KeyedItem{static_cast<std::uint64_t>(v % 3), static_cast<std::uint64_t>(100 - v),
                  static_cast<std::uint64_t>(v)});
  const auto fin = keyed_min_upcast(net, f, items);
  std::map<std::uint64_t, std::uint64_t> at_root;
  for (const auto& it : fin[0]) at_root[it.key] = it.payload;
  ASSERT_EQ(at_root.size(), 3u);
  // Min prio = 100 - v maximizes v per residue class: v = 15 (key 0),
  // v = 13 (key 1), v = 14 (key 2).
  EXPECT_EQ(at_root[0], 15u);
  EXPECT_EQ(at_root[1], 13u);
  EXPECT_EQ(at_root[2], 14u);
  // Non-roots hold nothing.
  for (VertexId v = 1; v < 16; ++v) EXPECT_TRUE(fin[static_cast<std::size_t>(v)].empty());
}

TEST(KeyedMinUpcast, RoundsScaleWithDepthPlusKeys) {
  Graph g = circulant(64, 1);  // cycle: BFS depth ~32
  Network net(g);
  RootedTree t = distributed_bfs(net, 0);
  const CommForest f = CommForest::from_tree(t);
  net.reset_counters();
  std::vector<std::vector<KeyedItem>> items(64);
  const int keys = 20;
  for (VertexId v = 0; v < 64; ++v)
    for (int k = 0; k < keys; ++k)
      items[static_cast<std::size_t>(v)].push_back(
          KeyedItem{static_cast<std::uint64_t>(k), static_cast<std::uint64_t>(v), 0});
  keyed_min_upcast(net, f, items);
  // Pipelining: ~height + keys rounds (plus EOS), not height * keys.
  EXPECT_LE(net.rounds(), static_cast<std::uint64_t>(t.height() + keys + 4));
  EXPECT_GE(net.rounds(), static_cast<std::uint64_t>(t.height()));
}

TEST(AncestorMinMerge, DeepestEndpointFinalizesSubtreeMin) {
  // Path 0-1-2-3-4 rooted at 0.
  Graph g(5);
  for (int i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  Network net(g);
  RootedTree t = distributed_bfs(net, 0);
  const CommForest f = CommForest::from_tree(t);
  std::vector<std::vector<KeyedItem>> items(5);
  // Vertex 4 contributes to all its ancestor edges (keys 0..2 = depths of
  // upper endpoints 0..2); vertex 2 contributes to keys 0..1 with better prio.
  for (int d = 0; d <= 2; ++d)
    items[4].push_back(KeyedItem{static_cast<std::uint64_t>(d), 50, 4});
  for (int d = 0; d <= 1; ++d)
    items[2].push_back(KeyedItem{static_cast<std::uint64_t>(d), 10, 2});
  const auto fin = ancestor_min_merge(net, f, items);
  // Edge (1,0): key 0 finalizes at vertex 1 — min prio 10 from vertex 2.
  ASSERT_TRUE(fin[1].has_value());
  EXPECT_EQ(fin[1]->prio, 10u);
  // Edge (3,2): key 2 finalizes at vertex 3 — only vertex 4 contributes.
  ASSERT_TRUE(fin[3].has_value());
  EXPECT_EQ(fin[3]->prio, 50u);
  // Edge (4,3): nobody contributes to key 3.
  EXPECT_FALSE(fin[4].has_value());
}

TEST(PathDowncast, EveryVertexLearnsProperAncestors) {
  Graph g(6);
  for (int i = 0; i + 1 < 6; ++i) g.add_edge(i, i + 1);
  Network net(g);
  RootedTree t = distributed_bfs(net, 0);
  const CommForest f = CommForest::from_tree(t);
  std::vector<KeyedItem> own(6);
  for (VertexId v = 1; v < 6; ++v)
    own[static_cast<std::size_t>(v)] = KeyedItem{static_cast<std::uint64_t>(v) * 10, 0, 0};
  const auto got = path_downcast(net, f, own);
  EXPECT_TRUE(got[0].empty());
  EXPECT_TRUE(got[1].empty());  // parent is the root
  ASSERT_EQ(got[5].size(), 4u);
  EXPECT_EQ(got[5][0].key, 40u);  // parent's item first
  EXPECT_EQ(got[5][3].key, 10u);
}

TEST(PipelinedBroadcast, AllVerticesGetList) {
  // Every vertex checks each arrival against the root's list and the
  // wrapper checks that every vertex counted the whole list, so a returned
  // list equal to the root's means every vertex received exactly it.
  const Graph g = hypercube(4);
  std::vector<KeyedItem> list;
  for (int i = 0; i < 7; ++i)
    list.push_back(KeyedItem{static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(20 - i),
                             static_cast<std::uint64_t>(i * i)});
  const auto run = [&](Network& net) {
    const RootedTree t = distributed_bfs(net, 0);
    const CommForest f = CommForest::from_tree(t);
    std::vector<std::vector<KeyedItem>> root_items(16);
    root_items[0] = list;
    net.reset_counters();
    EXPECT_EQ(pipelined_broadcast(net, f, std::move(root_items)), list);
    EXPECT_EQ(net.rounds(), static_cast<std::uint64_t>(t.height() + 7));
  };
  Network seq(g);
  run(seq);
  CongestWorkerFleet fleet(2);
  Network fleet_net(g, fleet.hub());
  run(fleet_net);
}

// A spec arrives over the wire on the net backend, so every defect in one
// must fail decode_congest_program + setup with NetError, never with a
// logic_error or by indexing out of range.
TEST(ProgramSpec, MalformedSpecsFailWithNetError) {
  const Graph g = hypercube(3);
  Network net(g);
  const ForestData forest =
      ForestData::from_comm_forest(CommForest::from_tree(distributed_bfs(net, 0)));
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  using Bytes = std::vector<std::uint8_t>;
  const auto words = [](Bytes& out, std::uint32_t count) {
    net::put_u32(out, count);
    for (std::uint32_t i = 0; i < count; ++i) net::put_u64(out, i);
  };
  const auto items = [](Bytes& out, std::uint32_t count) {
    net::put_u32(out, count);
    for (std::uint32_t i = 0; i < count; ++i)
      for (int w = 0; w < 3; ++w) net::put_u64(out, i);
  };
  const auto bfs = [](std::uint32_t nn, std::uint32_t root) {
    Bytes b;
    net::put_u32(b, nn);
    net::put_u32(b, root);
    return b;
  };
  const auto convergecast = [&](const ForestData& f, std::uint32_t op, std::uint32_t len) {
    Bytes b;
    f.encode(b);
    net::put_u32(b, op);
    words(b, len);
    return b;
  };
  const auto broadcast = [&](const ForestData& f, std::uint32_t len) {
    Bytes b;
    f.encode(b);
    words(b, len);
    return b;
  };
  const auto path_downcast = [&](std::uint32_t len) {
    Bytes b;
    forest.encode(b);
    items(b, len);
    return b;
  };
  const auto pipelined = [&](std::uint32_t root) {
    Bytes b;
    forest.encode(b);
    net::put_u32(b, root);
    items(b, 3);
    return b;
  };
  const auto exchange = [&](std::uint32_t nn, std::vector<std::uint32_t> edges) {
    Bytes b;
    net::put_u32(b, nn);
    net::put_u32(b, static_cast<std::uint32_t>(edges.size()));
    for (std::uint32_t e : edges) net::put_u32(b, e);
    for (std::size_t i = 0; i < 2 * edges.size(); ++i) words(b, 1);
    return b;
  };
  ForestData bigger = forest;  // one vertex more than the graph
  bigger.parent.push_back(0);
  bigger.depth.push_back(1);
  ForestData off_graph = forest;  // 7 is not a neighbour of 0 in Q3
  off_graph.parent[7] = 0;
  off_graph.depth[7] = 1;
  ForestData skewed = forest;  // a depth that is not the parent's plus one
  skewed.depth[7] += 1;

  struct Case {
    std::string what;
    ProgramId id;
    Bytes spec;
    bool valid;
  };
  const std::vector<Case> cases = {
      {"bfs", ProgramId::kBfs, bfs(n, 0), true},
      {"bfs n + 1", ProgramId::kBfs, bfs(n + 1, 0), false},
      {"bfs n = 2^32 - 1", ProgramId::kBfs, bfs(0xFFFFFFFFu, 0), false},
      {"bfs n = 2^31 - 1", ProgramId::kBfs, bfs(0x7FFFFFFFu, 0), false},
      {"convergecast", ProgramId::kConvergecast, convergecast(forest, 1, n), true},
      {"convergecast value list n - 1", ProgramId::kConvergecast,
       convergecast(forest, 1, n - 1), false},
      {"convergecast unknown CombineOp", ProgramId::kConvergecast, convergecast(forest, 99, n),
       false},
      {"convergecast CombineOp 0", ProgramId::kConvergecast, convergecast(forest, 0, n), false},
      {"convergecast depth not the parent's plus one", ProgramId::kConvergecast,
       convergecast(skewed, 1, n), false},
      {"broadcast", ProgramId::kBroadcast, broadcast(forest, n), true},
      {"broadcast value list n + 1", ProgramId::kBroadcast, broadcast(forest, n + 1), false},
      {"broadcast forest larger than the graph", ProgramId::kBroadcast,
       broadcast(bigger, n + 1), false},
      {"broadcast forest edge not a graph edge", ProgramId::kBroadcast, broadcast(off_graph, n),
       false},
      {"path_downcast", ProgramId::kPathDowncast, path_downcast(n), true},
      {"path_downcast own list n - 1", ProgramId::kPathDowncast, path_downcast(n - 1), false},
      {"pipelined_broadcast", ProgramId::kPipelinedBroadcast, pipelined(0), true},
      {"pipelined_broadcast root out of range", ProgramId::kPipelinedBroadcast, pipelined(n),
       false},
      {"pipelined_broadcast root -1", ProgramId::kPipelinedBroadcast, pipelined(0xFFFFFFFFu),
       false},
      {"pipelined_broadcast root not a forest root", ProgramId::kPipelinedBroadcast,
       pipelined(3), false},
      {"edge_exchange", ProgramId::kEdgeExchange, exchange(n, {0, 1}), true},
      {"edge_exchange duplicate edge", ProgramId::kEdgeExchange, exchange(n, {1, 0, 1}), false},
      {"edge_exchange n + 1", ProgramId::kEdgeExchange, exchange(n + 1, {0, 1}), false},
  };
  for (const Case& c : cases) {
    const auto decode_and_setup = [&] {
      const auto prog =
          decode_congest_program(static_cast<std::uint32_t>(c.id), std::span(c.spec));
      prog->setup(g);
    };
    if (c.valid) {
      EXPECT_NO_THROW(decode_and_setup()) << c.what;
    } else {
      EXPECT_THROW(decode_and_setup(), NetError) << c.what;
    }
  }
}

// The per-vertex counts a pipelined broadcast ships as outputs and
// checkpoint state: a count above the list length or a short blob is a
// typed error.
TEST(PipelinedBroadcast, CountBlobsRejectOverlongCountsAndTruncation) {
  const Graph g = hypercube(3);
  Network net(g);
  const CommForest f = CommForest::from_tree(distributed_bfs(net, 0));
  const std::vector<KeyedItem> list{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  PipelinedBroadcastProgram prog(ForestData::from_comm_forest(f), 0, list);
  prog.setup(g);
  const int n = g.num_vertices();
  const auto blob = [&](std::uint32_t last) {
    std::vector<std::uint8_t> b;
    for (int v = 0; v + 1 < n; ++v) net::put_u32(b, 3);
    net::put_u32(b, last);
    return b;
  };
  using Decode = std::function<void(std::span<const std::uint8_t>)>;
  const std::vector<std::pair<std::string, Decode>> decoders = {
      {"outputs", [&](std::span<const std::uint8_t> b) { prog.decode_outputs(0, n, b); }},
      {"state", [&](std::span<const std::uint8_t> b) { prog.decode_state(0, n, b); }},
  };
  for (const auto& [what, decode] : decoders) {
    const std::vector<std::uint8_t> full = blob(3);
    EXPECT_NO_THROW(decode(full)) << what;
    EXPECT_EQ(prog.count[static_cast<std::size_t>(n - 1)], 3u) << what;
    EXPECT_THROW(decode(blob(4)), NetError) << what << ": count above the list length";
    EXPECT_THROW(decode(blob(0xFFFFFFFFu)), NetError) << what << ": count 2^32 - 1";
    for (std::size_t len = 0; len < full.size(); ++len)
      EXPECT_THROW(decode(std::span(full).first(len)), NetError)
          << what << ": truncated to " << len << " bytes";
  }
}

TEST(EdgeExchange, SwapsPayloadsAndChargesMaxLength) {
  Graph g = torus(3, 3);
  Network net(g);
  std::vector<EdgeId> edges{0, 1};
  std::vector<std::vector<std::uint64_t>> fu{{1, 2, 3}, {7}};
  std::vector<std::vector<std::uint64_t>> fv{{4}, {8, 9}};
  const auto r = edge_exchange(net, edges, fu, fv);
  EXPECT_EQ(r.at_v[0], (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.at_u[1], (std::vector<std::uint64_t>{8, 9}));
  EXPECT_EQ(net.rounds(), 3u);
  EXPECT_EQ(net.messages(), 7u);
}

}  // namespace
}  // namespace deck
