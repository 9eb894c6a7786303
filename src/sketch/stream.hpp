#pragma once

// Dynamic graph streams: an ordered sequence of edge insertions/deletions
// over a fixed vertex set, the ingestion format of the streaming
// sparsification front-end (sketch_connectivity.hpp).
//
// A GraphStream validates itself as it is built — inserting a live edge or
// deleting an absent one throws — so the net effect is always a simple
// graph, recoverable via materialize() for ground-truth verification.
// Each undirected update contributes one directed half (VertexDelta) at
// either endpoint; the guttering stage (serve/gutter.hpp) regroups those
// halves into per-source runs for SketchConnectivity::apply_batch, and
// sketch linearity makes any such regrouping equivalent to the in-order
// application.

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace deck {

struct StreamUpdate {
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  bool insert = true;  // false = delete
};

/// Packs edge {lo,hi} (lo < hi < n) into the [0, n²) index space shared by
/// GraphStream bookkeeping and the ℓ₀ edge-incidence sketches.
inline std::uint64_t encode_edge_index(VertexId lo, VertexId hi, int n) {
  DECK_ASSERT(0 <= lo && lo < hi && hi < n);
  return static_cast<std::uint64_t>(lo) * static_cast<std::uint64_t>(n) +
         static_cast<std::uint64_t>(hi);
}

/// Inverse of encode_edge_index.
inline std::pair<VertexId, VertexId> decode_edge_index(std::uint64_t index, int n) {
  return {static_cast<VertexId>(index / static_cast<std::uint64_t>(n)),
          static_cast<VertexId>(index % static_cast<std::uint64_t>(n))};
}

/// One directed half of an undirected update, grouped by its source vertex
/// for batch appliers (SketchConnectivity::apply_batch). delta is +1 (insert) or -1 (delete).
struct VertexDelta {
  VertexId dst = kNoVertex;
  int delta = 0;
};

class GraphStream {
 public:
  explicit GraphStream(int n);

  /// The edges of g as one insertion each, in edge-id order.
  static GraphStream from_graph(const Graph& g);

  /// Same, in a random order.
  static GraphStream from_graph(const Graph& g, Rng& rng);

  /// Appends the insertion of edge {u,v}. Throws if the edge is live.
  void insert(VertexId u, VertexId v);

  /// Appends the deletion of edge {u,v}. Throws if the edge is not live.
  void erase(VertexId u, VertexId v);

  /// Appends `pairs` insert/delete churn pairs of random transient edges,
  /// interleaved among themselves; the net effect on the final graph is
  /// zero. Exercises the cancellation path of linear sketches.
  void churn(int pairs, Rng& rng);

  int num_vertices() const { return n_; }
  std::size_t size() const { return updates_.size(); }
  const std::vector<StreamUpdate>& updates() const { return updates_; }

  /// Replay-from-offset view: the updates appended at or after `cursor`, in
  /// append order. A long-lived session records the cursor at each query
  /// point and folds only the post-query deltas instead of re-scanning the
  /// whole stream. `cursor` may equal size() (empty span); beyond it throws.
  /// The span is invalidated by the next append.
  std::span<const StreamUpdate> updates_since(std::size_t cursor) const;

  /// Number of edges present after the whole stream.
  std::size_t live_edges() const { return live_.size(); }

  /// The net graph (all weights `w`) — ground truth for verification.
  Graph materialize(Weight w = 1) const;

 private:
  std::uint64_t key(VertexId u, VertexId v) const;
  void check_endpoints(VertexId u, VertexId v) const;

  int n_ = 0;
  std::vector<StreamUpdate> updates_;
  std::unordered_set<std::uint64_t> live_;
};

}  // namespace deck
