#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ecss/thurimella.hpp"
#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "graph/union_find.hpp"
#include "serve/gutter.hpp"
#include "serve/session.hpp"
#include "sketch/l0_sampler.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"
#include "sketch_test_util.hpp"

namespace deck {
namespace {

TEST(L0Sampler, RecoversSingleCoordinate) {
  L0Sampler s(1000, /*seed=*/7);
  s.update(123, 1);
  const L0Sample got = s.sample();
  ASSERT_EQ(got.status, L0Sample::Status::kFound);
  EXPECT_EQ(got.index, 123u);
  EXPECT_EQ(got.sign, 1);
}

TEST(L0Sampler, RecoversNegativeCoefficient) {
  L0Sampler s(1000, /*seed=*/7);
  s.update(55, -1);
  const L0Sample got = s.sample();
  ASSERT_EQ(got.status, L0Sample::Status::kFound);
  EXPECT_EQ(got.index, 55u);
  EXPECT_EQ(got.sign, -1);
}

TEST(L0Sampler, InsertDeleteCancelsToZero) {
  L0Sampler s(1 << 20, /*seed=*/3);
  for (std::uint64_t i = 0; i < 500; ++i) s.update(i * 17 % (1 << 20), 1);
  for (std::uint64_t i = 0; i < 500; ++i) s.update(i * 17 % (1 << 20), -1);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.sample().status, L0Sample::Status::kZero);
}

TEST(L0Sampler, MergeCancelsOppositeSketches) {
  L0Sampler a(4096, /*seed=*/11), b(4096, /*seed=*/11);
  a.update(99, 1);
  b.update(99, -1);
  a.merge(b);
  EXPECT_TRUE(a.empty());
}

TEST(L0Sampler, MergeIsLinear) {
  // sketch(x) + sketch(y) must recover an element of supp(x + y).
  L0Sampler a(4096, /*seed=*/11), b(4096, /*seed=*/11);
  a.update(7, 1);
  a.update(21, 1);
  b.update(7, -1);  // cancels a's 7
  a.merge(b);
  const L0Sample got = a.sample();
  ASSERT_EQ(got.status, L0Sample::Status::kFound);
  EXPECT_EQ(got.index, 21u);
}

TEST(L0Sampler, MergeRejectsIncompatible) {
  L0Sampler a(4096, /*seed=*/1), b(4096, /*seed=*/2);
  EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(L0Sampler, SampleFromPopulatedSketchIsValid) {
  Rng rng(5);
  L0Sampler s(1 << 16, /*seed=*/99);
  std::vector<char> present(1 << 16, 0);
  for (int i = 0; i < 200; ++i) {
    const auto idx = rng.next_below(1 << 16);
    if (present[idx]) continue;
    present[idx] = 1;
    s.update(idx, 1);
  }
  const L0Sample got = s.sample();
  ASSERT_EQ(got.status, L0Sample::Status::kFound);
  EXPECT_TRUE(present[got.index]);
}

TEST(GraphStream, ValidatesAndMaterializes) {
  GraphStream s(4);
  s.insert(0, 1);
  s.insert(1, 2);
  EXPECT_THROW(s.insert(1, 0), std::logic_error);  // live
  EXPECT_THROW(s.erase(2, 3), std::logic_error);   // absent
  s.erase(0, 1);
  s.insert(0, 1);  // re-insert after delete is fine
  s.insert(2, 3);
  s.erase(1, 2);
  const Graph g = s.materialize();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(GraphStream, ChurnIsNetNeutral) {
  Rng rng(21);
  Graph g = random_kec(32, 2, 32, rng);
  GraphStream s = GraphStream::from_graph(g);
  const std::size_t live_before = s.live_edges();
  s.churn(100, rng);
  EXPECT_EQ(s.live_edges(), live_before);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(g.num_edges()) + 200);
  const Graph back = s.materialize();
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(back.has_edge(e.u, e.v));
}

TEST(GraphStream, ChurnRejectsSaturatedGraph) {
  // A complete live graph has no free pairs to churn through — the walk
  // must fail fast instead of rejection-sampling forever.
  GraphStream s(3);
  s.insert(0, 1);
  s.insert(0, 2);
  s.insert(1, 2);
  Rng rng(1);
  EXPECT_THROW(s.churn(1, rng), std::logic_error);
}

TEST(SketchConnectivity, SpanningForestOfConnectedGraph) {
  Rng rng(9);
  Graph g = random_kec(48, 2, 48, rng);
  SketchOptions opt;
  opt.seed = 1234;
  SketchConnectivity sk(g.num_vertices(), opt);
  for (const Edge& e : g.edges()) sk.update(e.u, e.v, 1);
  const std::vector<SketchEdge> forest = sk.spanning_forest();
  ASSERT_EQ(forest.size(), static_cast<std::size_t>(g.num_vertices() - 1));
  UnionFind uf(g.num_vertices());
  for (const SketchEdge& e : forest) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));  // recovered edges are real edges
    EXPECT_TRUE(uf.unite(e.u, e.v));    // and acyclic
  }
  EXPECT_EQ(uf.num_components(), 1);
}

TEST(SketchConnectivity, SpanningForestMatchesComponents) {
  // A disconnected graph: forest size must be n - #components per part.
  Graph g(9);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  // 6,7,8 isolated
  SketchConnectivity sk(g.num_vertices(), {});
  for (const Edge& e : g.edges()) sk.update(e.u, e.v, 1);
  const std::vector<SketchEdge> forest = sk.spanning_forest();
  EXPECT_EQ(forest.size(), static_cast<std::size_t>(g.num_vertices() - num_components(g)));
}

TEST(SketchConnectivity, CertificateIsKEdgeConnected) {
  // The streaming analogue of sparse_certificate: the union of
  // k_spanning_forests(k) on a k-edge-connected input must be
  // k-edge-connected with at most k(n-1) edges.
  for (int k : {2, 3}) {
    for (int n : {24, 48, 96}) {
      Rng rng(500 + n * k);
      Graph g = random_kec(n, k, n, rng);
      ASSERT_TRUE(is_k_edge_connected(g, k));
      GraphStream s = GraphStream::from_graph(g, rng);
      SketchOptions opt;
      opt.seed = 900 + static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);
      const SparsifyResult r = ingest(s, k, {.sketch = opt});
      EXPECT_LE(r.certificate.num_edges(), k * (n - 1)) << "n=" << n << " k=" << k;
      EXPECT_TRUE(is_k_edge_connected(r.certificate, k)) << "n=" << n << " k=" << k;
      // Certificate edges are real edges of the streamed graph.
      for (const Edge& e : r.certificate.edges()) EXPECT_TRUE(g.has_edge(e.u, e.v));
      // Same guarantee the sequential baseline provides.
      const std::vector<EdgeId> seq = sparse_certificate(g, k);
      EXPECT_TRUE(is_k_edge_connected_subset(g, seq, k));
    }
  }
}

TEST(SketchConnectivity, ForestsAreEdgeDisjoint) {
  Rng rng(31);
  Graph g = random_kec(40, 3, 60, rng);
  SketchOptions opt;
  opt.seed = 77;
  const SparsifyResult r = ingest(GraphStream::from_graph(g), 3, {.sketch = opt});
  ASSERT_EQ(r.forests.size(), 3u);
  auto pairs = sorted_pairs(r.forests);
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

TEST(SketchConnectivity, DeterministicGivenSeed) {
  Rng rng(13);
  Graph g = random_kec(40, 2, 40, rng);
  const GraphStream s = GraphStream::from_graph(g);
  SketchOptions opt;
  opt.seed = 4242;
  const SparsifyResult a = ingest(s, 2, {.sketch = opt});
  const SparsifyResult b = ingest(s, 2, {.sketch = opt});
  EXPECT_EQ(sorted_pairs(a.forests), sorted_pairs(b.forests));
  EXPECT_EQ(a.certificate.num_edges(), b.certificate.num_edges());
}

TEST(SketchConnectivity, ChurnCancelsExactly) {
  // Linearity: a stream with transient insert/delete churn leaves sketch
  // state identical to the churn-free stream, so the recovered forests are
  // bit-for-bit the same, not merely equivalent.
  Rng rng(17);
  Graph g = random_kec(36, 2, 36, rng);
  GraphStream plain = GraphStream::from_graph(g);
  GraphStream churned = GraphStream::from_graph(g);
  churned.churn(120, rng);
  SketchOptions opt;
  opt.seed = 1001;
  const SparsifyResult a = ingest(plain, 2, {.sketch = opt});
  const SparsifyResult b = ingest(churned, 2, {.sketch = opt});
  EXPECT_EQ(sorted_pairs(a.forests), sorted_pairs(b.forests));
}

TEST(SketchConnectivity, BatchedApplicationMatchesUpdates) {
  Rng rng(23);
  Graph g = random_kec(32, 2, 48, rng);
  GraphStream s = GraphStream::from_graph(g, rng);
  s.churn(40, rng);
  SketchOptions opt;
  opt.seed = 555;
  opt.max_forests = 2;

  SketchConnectivity direct(s.num_vertices(), opt);
  for (const StreamUpdate& u : s.updates()) direct.update(u.u, u.v, u.insert ? 1 : -1);

  // One gutter per vertex spilling at 7 halves: per-source runs of 7 as
  // they fill, remainders at the drain.
  SketchConnectivity batched(s.num_vertices(), opt);
  GutterOptions gopt;
  gopt.num_gutters = s.num_vertices();
  gopt.policy.max_halves = 7;
  GutteringSystem gutters(s.num_vertices(), gopt,
                          [&](VertexId src, std::span<const VertexDelta> deltas) {
                            batched.apply_batch(src, deltas);
                          });
  for (const StreamUpdate& u : s.updates()) gutters.push(u.u, u.v, u.insert ? 1 : -1);
  gutters.drain();

  EXPECT_EQ(sorted_pairs(direct.k_spanning_forests(2)),
            sorted_pairs(batched.k_spanning_forests(2)));
}

TEST(SketchConnectivity, RejectsBadEndpoints) {
  SketchConnectivity sk(4, {});
  EXPECT_THROW(sk.update(0, 4, 1), std::logic_error);
  EXPECT_THROW(sk.update(-1, 2, 1), std::logic_error);
  EXPECT_THROW(sk.update(2, 2, 1), std::logic_error);
  const VertexDelta bad[] = {{4, 1}};
  EXPECT_THROW(sk.apply_batch(0, std::span<const VertexDelta>(bad, 1)), std::logic_error);
}

TEST(SketchConnectivity, RejectsOverBudget) {
  SketchOptions opt;
  opt.max_forests = 1;
  SketchConnectivity sk(8, opt);
  EXPECT_THROW(sk.k_spanning_forests(2), std::logic_error);
}

}  // namespace
}  // namespace deck
