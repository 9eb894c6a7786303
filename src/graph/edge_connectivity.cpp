#include "graph/edge_connectivity.hpp"

#include <algorithm>

#include "graph/dinic.hpp"
#include "graph/traversal.hpp"
#include "support/check.hpp"

namespace deck {

int edge_connectivity(const Graph& g, const std::vector<char>& in_subgraph) {
  const int n = g.num_vertices();
  if (n < 2) return 0;
  if (!is_spanning_connected(g, in_subgraph)) return 0;
  Dinic network = unit_network(g, in_subgraph);
  int lambda = g.num_edges();  // upper bound
  for (VertexId t = 1; t < n; ++t) {
    lambda = std::min(lambda, static_cast<int>(network.max_flow(0, t)));
    if (lambda == 0) break;
  }
  return lambda;
}

int edge_connectivity(const Graph& g) {
  return edge_connectivity(g, std::vector<char>(static_cast<std::size_t>(g.num_edges()), 1));
}

bool is_k_edge_connected(const Graph& g, const std::vector<char>& in_subgraph, int k) {
  DECK_CHECK(k >= 1);
  if (g.num_vertices() < 2) return true;
  if (!is_spanning_connected(g, in_subgraph)) return false;
  // Quick necessary condition: min degree >= k in the subgraph.
  std::vector<int> deg(static_cast<std::size_t>(g.num_vertices()), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_subgraph[static_cast<std::size_t>(e)]) continue;
    ++deg[static_cast<std::size_t>(g.edge(e).u)];
    ++deg[static_cast<std::size_t>(g.edge(e).v)];
  }
  for (int d : deg)
    if (d < k) return false;
  Dinic network = unit_network(g, in_subgraph);
  for (VertexId t = 1; t < g.num_vertices(); ++t) {
    if (network.max_flow(0, t) < k) return false;
  }
  return true;
}

bool is_k_edge_connected(const Graph& g, int k) {
  return is_k_edge_connected(g, std::vector<char>(static_cast<std::size_t>(g.num_edges()), 1), k);
}

bool is_k_edge_connected_subset(const Graph& g, const std::vector<EdgeId>& edges, int k) {
  return is_k_edge_connected(g, edge_mask(g, edges), k);
}

std::vector<char> edge_mask(const Graph& g, const std::vector<EdgeId>& edges) {
  std::vector<char> mask(static_cast<std::size_t>(g.num_edges()), 0);
  for (EdgeId e : edges) {
    DECK_CHECK(e >= 0 && e < g.num_edges());
    mask[static_cast<std::size_t>(e)] = 1;
  }
  return mask;
}

}  // namespace deck
