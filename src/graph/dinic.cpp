#include "graph/dinic.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "support/check.hpp"

namespace deck {

Dinic::Dinic(int n) : n_(n), arcs_(static_cast<std::size_t>(n)) { DECK_CHECK(n >= 0); }

void Dinic::add_arc(VertexId u, VertexId v, std::int64_t c) {
  DECK_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_ && c >= 0);
  arcs_[static_cast<std::size_t>(u)].push_back(
      {v, c, c, arcs_[static_cast<std::size_t>(v)].size()});
  arcs_[static_cast<std::size_t>(v)].push_back(
      {u, 0, 0, arcs_[static_cast<std::size_t>(u)].size() - 1});
}

void Dinic::add_undirected(VertexId u, VertexId v, std::int64_t c) {
  // Two symmetric arcs sharing residuals: model as two independent arc pairs.
  add_arc(u, v, c);
  add_arc(v, u, c);
}

bool Dinic::bfs(VertexId s, VertexId t) {
  level_.assign(static_cast<std::size_t>(n_), -1);
  std::queue<VertexId> q;
  level_[static_cast<std::size_t>(s)] = 0;
  q.push(s);
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (const Arc& a : arcs_[static_cast<std::size_t>(v)]) {
      if (a.cap > 0 && level_[static_cast<std::size_t>(a.to)] == -1) {
        level_[static_cast<std::size_t>(a.to)] = level_[static_cast<std::size_t>(v)] + 1;
        q.push(a.to);
      }
    }
  }
  return level_[static_cast<std::size_t>(t)] != -1;
}

std::int64_t Dinic::dfs(VertexId v, VertexId t, std::int64_t pushed) {
  if (v == t || pushed == 0) return pushed;
  for (std::size_t& i = it_[static_cast<std::size_t>(v)];
       i < arcs_[static_cast<std::size_t>(v)].size(); ++i) {
    Arc& a = arcs_[static_cast<std::size_t>(v)][i];
    if (a.cap <= 0 ||
        level_[static_cast<std::size_t>(a.to)] != level_[static_cast<std::size_t>(v)] + 1)
      continue;
    const std::int64_t got = dfs(a.to, t, std::min(pushed, a.cap));
    if (got > 0) {
      a.cap -= got;
      arcs_[static_cast<std::size_t>(a.to)][a.rev].cap += got;
      return got;
    }
  }
  return 0;
}

std::int64_t Dinic::max_flow(VertexId s, VertexId t) {
  DECK_CHECK(s != t);
  for (auto& row : arcs_)
    for (Arc& a : row) a.cap = a.init_cap;
  std::int64_t flow = 0;
  while (bfs(s, t)) {
    it_.assign(static_cast<std::size_t>(n_), 0);
    while (std::int64_t got = dfs(s, t, std::numeric_limits<std::int64_t>::max())) flow += got;
  }
  return flow;
}

std::vector<char> Dinic::min_cut_side(VertexId s) const {
  std::vector<char> side(static_cast<std::size_t>(n_), 0);
  std::queue<VertexId> q;
  side[static_cast<std::size_t>(s)] = 1;
  q.push(s);
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (const Arc& a : arcs_[static_cast<std::size_t>(v)]) {
      if (a.cap > 0 && !side[static_cast<std::size_t>(a.to)]) {
        side[static_cast<std::size_t>(a.to)] = 1;
        q.push(a.to);
      }
    }
  }
  return side;
}

Dinic unit_network(const Graph& g, const std::vector<char>& in_subgraph) {
  Dinic d(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_subgraph[static_cast<std::size_t>(e)]) continue;
    d.add_undirected(g.edge(e).u, g.edge(e).v, 1);
  }
  return d;
}

std::int64_t st_edge_connectivity(const Graph& g, const std::vector<char>& in_subgraph,
                                  VertexId s, VertexId t) {
  return unit_network(g, in_subgraph).max_flow(s, t);
}

}  // namespace deck
