#pragma once

// Dinic max-flow on unit/integer capacities.
//
// Used to certify edge connectivity: lambda(s,t) equals the max s-t flow
// when every undirected edge becomes a pair of unit-capacity arcs.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace deck {

class Dinic {
 public:
  explicit Dinic(int n);

  /// Adds a directed arc u->v with capacity c (and its residual v->u with 0).
  void add_arc(VertexId u, VertexId v, std::int64_t c);

  /// Adds an undirected edge as two arcs of capacity c each.
  void add_undirected(VertexId u, VertexId v, std::int64_t c);

  /// Max flow from s to t; resets previous flow state first.
  std::int64_t max_flow(VertexId s, VertexId t);

  /// After max_flow: vertices reachable from s in the residual graph
  /// (the s-side of a minimum cut).
  std::vector<char> min_cut_side(VertexId s) const;

 private:
  struct Arc {
    VertexId to;
    std::int64_t cap;
    std::int64_t init_cap;
    std::size_t rev;
  };

  bool bfs(VertexId s, VertexId t);
  std::int64_t dfs(VertexId v, VertexId t, std::int64_t pushed);

  int n_;
  std::vector<std::vector<Arc>> arcs_;
  std::vector<int> level_;
  std::vector<std::size_t> it_;
};

/// The subgraph of g selected by in_subgraph as a flow network, every edge
/// a pair of unit-capacity arcs. max_flow resets every arc first, so one
/// network answers any number of s-t queries.
Dinic unit_network(const Graph& g, const std::vector<char>& in_subgraph);

/// lambda(s,t) of the subgraph of g selected by in_subgraph, with unit
/// capacities (i.e. the number of edge-disjoint s-t paths).
std::int64_t st_edge_connectivity(const Graph& g, const std::vector<char>& in_subgraph,
                                  VertexId s, VertexId t);

}  // namespace deck
