#include "sketch/stream.hpp"

#include <algorithm>
#include <utility>

namespace deck {

GraphStream::GraphStream(int n) : n_(n) { DECK_CHECK(n >= 0); }

GraphStream GraphStream::from_graph(const Graph& g) {
  GraphStream s(g.num_vertices());
  for (const Edge& e : g.edges()) s.insert(e.u, e.v);
  return s;
}

GraphStream GraphStream::from_graph(const Graph& g, Rng& rng) {
  std::vector<EdgeId> order(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) order[static_cast<std::size_t>(e)] = e;
  rng.shuffle(order);
  GraphStream s(g.num_vertices());
  for (EdgeId e : order) s.insert(g.edge(e).u, g.edge(e).v);
  return s;
}

std::uint64_t GraphStream::key(VertexId u, VertexId v) const {
  const auto [lo, hi] = std::minmax(u, v);
  return encode_edge_index(lo, hi, n_);
}

void GraphStream::check_endpoints(VertexId u, VertexId v) const {
  DECK_CHECK_MSG(u >= 0 && u < n_ && v >= 0 && v < n_, "stream endpoint out of range");
  DECK_CHECK_MSG(u != v, "stream updates must not be self-loops");
}

void GraphStream::insert(VertexId u, VertexId v) {
  check_endpoints(u, v);
  DECK_CHECK_MSG(live_.insert(key(u, v)).second, "inserting an edge that is already live");
  updates_.push_back({u, v, /*insert=*/true});
}

std::span<const StreamUpdate> GraphStream::updates_since(std::size_t cursor) const {
  DECK_CHECK_MSG(cursor <= updates_.size(), "stream cursor beyond the appended updates");
  return std::span<const StreamUpdate>(updates_.data() + cursor, updates_.size() - cursor);
}

void GraphStream::erase(VertexId u, VertexId v) {
  check_endpoints(u, v);
  DECK_CHECK_MSG(live_.erase(key(u, v)) == 1, "deleting an edge that is not live");
  updates_.push_back({u, v, /*insert=*/false});
}

void GraphStream::churn(int pairs, Rng& rng) {
  DECK_CHECK(pairs >= 0);
  if (n_ < 2) return;
  const std::uint64_t all_pairs =
      static_cast<std::uint64_t>(n_) * static_cast<std::uint64_t>(n_ - 1) / 2;
  // Random walk over transient edges: at each step either open a fresh
  // non-live edge or close a previously opened one; drain at the end. The
  // rejection sampler needs a free vertex pair, so opening is also gated on
  // the live graph not being complete.
  std::vector<std::pair<VertexId, VertexId>> open;
  int opened = 0;
  while (opened < pairs || !open.empty()) {
    const bool can_open = opened < pairs && live_.size() < all_pairs;
    DECK_CHECK_MSG(can_open || !open.empty(), "churn needs free vertex pairs");
    if (can_open && (open.empty() || rng.next_bool(0.5))) {
      VertexId u = 0, v = 0;
      do {
        u = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n_)));
        v = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n_)));
      } while (u == v || live_.count(key(u, v)) != 0);
      insert(u, v);
      open.emplace_back(u, v);
      ++opened;
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.next_below(open.size()));
      erase(open[pick].first, open[pick].second);
      open[pick] = open.back();
      open.pop_back();
    }
  }
}

Graph GraphStream::materialize(Weight w) const {
  Graph g(n_);
  std::unordered_set<std::uint64_t> seen;
  for (const StreamUpdate& u : updates_) {
    if (!u.insert) continue;
    if (live_.count(key(u.u, u.v)) == 0) continue;   // deleted later
    if (!seen.insert(key(u.u, u.v)).second) continue;  // re-inserted after delete
    g.add_edge(u.u, u.v, w);
  }
  return g;
}

}  // namespace deck
