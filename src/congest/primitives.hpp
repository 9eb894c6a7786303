#pragma once

// CONGEST communication primitives (paper §1.3, §3.1).
//
// Every primitive is a genuine per-vertex send/receive program (see
// congest/programs.hpp) executed on the Network's pluggable engine
// (congest/engine.hpp): one message per directed edge per round, rounds and
// messages counted by the engine as they actually move, then charged to the
// Network. Callers supply and receive *per-vertex* data only — the
// discipline is that a vertex's outputs depend solely on its inputs and the
// messages it received — and results plus counters are bit-identical across
// the sequential and Transport-backed backends.
//
// The workhorse is the pipelined keyed-min upcast: every vertex holds
// (key, value) items; merged min-per-key streams flow towards the root in
// ascending key order; k distinct keys complete in O(height + k) rounds.
// Instantiations:
//   * keyed_min_upcast           — root learns min value per key (global
//                                  aggregates keyed by segment/fragment id).
//   * ancestor_min_merge         — keys are ancestor-edge depths inside a
//                                  forest; the deeper endpoint of each tree
//                                  edge finalizes the min over its subtree
//                                  ("each tree edge learns the best edge
//                                  covering it", §3.1 (II)).
// Downstream flows:
//   * pipelined_broadcast        — root's list delivered to every vertex.
//   * path_downcast              — every vertex learns the items of all its
//                                  ancestors inside its forest (Claim 3.2).
// Point-to-point:
//   * edge_exchange              — endpoint payload swap over selected edges
//                                  (used for non-tree edge computations).

#include <cstdint>
#include <optional>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "graph/tree.hpp"

namespace deck {

/// A keyed item: `key` orders the pipeline; `prio` is the minimised quantity;
/// `payload` rides along with the winning prio.
struct KeyedItem {
  std::uint64_t key = 0;
  std::uint64_t prio = 0;
  std::uint64_t payload = 0;

  friend bool operator==(const KeyedItem&, const KeyedItem&) = default;
};

/// Communication forest: parent/children restricted to some tree structure,
/// with *forest-local* depths. For a global BFS tree this is the whole tree;
/// for the segment decomposition each segment is its own tree (segment roots
/// have parent kNoVertex *within the forest* even though they have tree
/// parents in T).
struct CommForest {
  std::vector<VertexId> parent;        // kNoVertex at forest roots
  std::vector<int> depth;              // forest-local depth
  std::vector<std::vector<VertexId>> children;

  static CommForest from_tree(const RootedTree& t);
  int height() const;
};

/// Builds a BFS tree by flooding from `root`; charges ecc(root)+1 rounds.
/// Requires the graph connected.
RootedTree distributed_bfs(Network& net, VertexId root);

/// Combine operations a convergecast can run (associative + commutative, so
/// results are independent of child arrival order). An enum — not an
/// arbitrary std::function — because the distributed backend ships the
/// program to worker processes.
enum class CombineOp : std::uint32_t {
  kSum = 1,
  kMin = 2,
  kMax = 3,
  kOr = 4,
};

std::uint64_t apply_combine(CombineOp op, std::uint64_t a, std::uint64_t b);

/// Convergecast: combine per-vertex 64-bit values with `op` up to the
/// forest roots. Returns the value at each vertex after its subtree is
/// combined (roots hold the totals). Charges height rounds.
std::vector<std::uint64_t> convergecast(Network& net, const CommForest& f,
                                        std::vector<std::uint64_t> value, CombineOp op);

/// Broadcast one value from each forest root down its tree; returns the
/// per-vertex received value. Charges height rounds.
std::vector<std::uint64_t> broadcast(Network& net, const CommForest& f,
                                     std::vector<std::uint64_t> root_value);

/// Pipelined keyed-min upcast (see header comment). Returns, per vertex, the
/// items the vertex *finalized* (merged over its entire subtree): at forest
/// roots this is the global min per key for that tree.
/// Keys flow in ascending order. ~O(height + #keys) rounds.
std::vector<std::vector<KeyedItem>> keyed_min_upcast(
    Network& net, const CommForest& f, std::vector<std::vector<KeyedItem>> items);

/// Ancestor merge (§3.1 machinery II): each vertex contributes items keyed
/// by the forest-depth of one of its *ancestor edges* (key = depth of the
/// edge's deeper endpoint minus one ... i.e. depth(upper endpoint)); the
/// deeper endpoint v of each forest edge finalizes the min over the whole
/// subtree under v. Returns per non-root vertex the final item for its
/// parent edge (nullopt when nobody covers it). ~O(height) rounds.
std::vector<std::optional<KeyedItem>> ancestor_min_merge(
    Network& net, const CommForest& f, std::vector<std::vector<KeyedItem>> items);

/// Pipelined broadcast of the root's list to every vertex of a single-root
/// tree. `root_items[r]` may be non-empty only at the root. Every vertex
/// receives the whole list, each item checked against the root's list on
/// arrival; since all copies are equal, the one list is returned.
/// height + len rounds.
std::vector<KeyedItem> pipelined_broadcast(Network& net, const CommForest& f,
                                           std::vector<std::vector<KeyedItem>> root_items);

/// Path downcast (Claims 3.1/3.2): each non-root vertex holds one item (for
/// its parent edge); afterwards every vertex knows the items of all edges on
/// its forest root path, ordered from itself upward. ~O(2·height) rounds.
std::vector<std::vector<KeyedItem>> path_downcast(Network& net, const CommForest& f,
                                                  std::vector<KeyedItem> own_item);

/// Simultaneous payload exchange across the listed edges: endpoint u of
/// edge e receives payload_from_v and vice versa. One word per round per
/// edge; charges max payload length rounds. Returns received payloads
/// aligned with `edges` (first = what u received, second = what v received).
struct ExchangeResult {
  std::vector<std::vector<std::uint64_t>> at_u;
  std::vector<std::vector<std::uint64_t>> at_v;
};
ExchangeResult edge_exchange(Network& net, const std::vector<EdgeId>& edges,
                             const std::vector<std::vector<std::uint64_t>>& payload_from_u,
                             const std::vector<std::vector<std::uint64_t>>& payload_from_v);

}  // namespace deck
