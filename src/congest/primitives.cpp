#include "congest/primitives.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "congest/programs.hpp"
#include "support/check.hpp"

namespace deck {

CommForest CommForest::from_tree(const RootedTree& t) {
  CommForest f;
  const int n = t.num_vertices();
  f.parent.resize(static_cast<std::size_t>(n));
  f.depth.resize(static_cast<std::size_t>(n));
  f.children.assign(static_cast<std::size_t>(n), {});
  for (VertexId v = 0; v < n; ++v) {
    f.parent[static_cast<std::size_t>(v)] = t.parent(v);
    f.depth[static_cast<std::size_t>(v)] = t.depth(v);
    for (VertexId c : t.children(v)) f.children[static_cast<std::size_t>(v)].push_back(c);
  }
  return f;
}

int CommForest::height() const {
  int h = 0;
  for (int d : depth) h = std::max(h, d);
  return h;
}

namespace {

/// Runs a primitive's program on the network's engine and charges the
/// observed cost: the counters are exact execution counts, identical across
/// backends.
ExecStats run_charged(Network& net, VertexProgram& prog) {
  const ExecStats stats = net.engine().execute(prog);
  net.charge(stats.rounds, stats.messages);
  return stats;
}

}  // namespace

RootedTree distributed_bfs(Network& net, VertexId root) {
  const Graph& g = net.graph();
  const int n = g.num_vertices();
  BfsProgram prog(n, root);
  if (n == 1) {
    // Degenerate single-vertex network: the root's lone announcement round
    // (seed accounting) moves nothing.
    prog.setup(g);
    net.charge(1, 0);
    return RootedTree(std::move(prog.parent), std::move(prog.parent_edge));
  }
  run_charged(net, prog);
  return RootedTree(std::move(prog.parent), std::move(prog.parent_edge));
}

std::vector<std::uint64_t> convergecast(Network& net, const CommForest& f,
                                        std::vector<std::uint64_t> value, CombineOp op) {
  DECK_CHECK(value.size() == f.parent.size());
  ConvergecastProgram prog(ForestData::from_comm_forest(f), op, std::move(value));
  const ExecStats stats = run_charged(net, prog);
  DECK_CHECK(stats.rounds == static_cast<std::uint64_t>(f.height()));
  return std::move(prog.value);
}

std::vector<std::uint64_t> broadcast(Network& net, const CommForest& f,
                                     std::vector<std::uint64_t> root_value) {
  DECK_CHECK(root_value.size() == f.parent.size());
  BroadcastProgram prog(ForestData::from_comm_forest(f), std::move(root_value));
  const ExecStats stats = run_charged(net, prog);
  DECK_CHECK(stats.rounds == static_cast<std::uint64_t>(f.height()));
  return std::move(prog.value);
}

std::vector<std::vector<KeyedItem>> keyed_min_upcast(Network& net, const CommForest& f,
                                                     std::vector<std::vector<KeyedItem>> items) {
  KeyedUpcastProgram prog(ForestData::from_comm_forest(f), /*ancestor_mode=*/false,
                          std::move(items));
  run_charged(net, prog);
  return std::move(prog.finalized);
}

std::vector<std::optional<KeyedItem>> ancestor_min_merge(
    Network& net, const CommForest& f, std::vector<std::vector<KeyedItem>> items) {
  const auto n = f.parent.size();
  for (std::size_t v = 0; v < n; ++v) {
    const int d = f.depth[v];
    for (const KeyedItem& it : items[v])
      DECK_CHECK_MSG(it.key < static_cast<std::uint64_t>(std::max(d, 1)),
                     "ancestor item key must address a proper ancestor edge");
  }
  KeyedUpcastProgram prog(ForestData::from_comm_forest(f), /*ancestor_mode=*/true,
                          std::move(items));
  run_charged(net, prog);
  std::vector<std::optional<KeyedItem>> out(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto& fin = prog.finalized[v];
    DECK_CHECK(fin.size() <= 1);
    if (!fin.empty()) {
      DECK_CHECK(f.depth[v] >= 1 && fin[0].key == static_cast<std::uint64_t>(f.depth[v] - 1));
      out[v] = fin[0];
    }
  }
  return out;
}

std::vector<KeyedItem> pipelined_broadcast(Network& net, const CommForest& f,
                                           std::vector<std::vector<KeyedItem>> root_items) {
  const auto n = f.parent.size();
  DECK_CHECK(root_items.size() == n);
  int roots = 0;
  std::size_t root = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (f.parent[v] == kNoVertex) {
      ++roots;
      root = v;
    } else {
      DECK_CHECK_MSG(root_items[v].empty(), "only roots may hold broadcast lists");
    }
  }
  DECK_CHECK_MSG(roots == 1, "pipelined_broadcast expects a single-root tree");

  const auto len = static_cast<std::uint64_t>(root_items[root].size());
  PipelinedBroadcastProgram prog(ForestData::from_comm_forest(f),
                                 static_cast<VertexId>(root), std::move(root_items[root]));
  const ExecStats stats = net.engine().execute(prog);
  // The executed pipeline delivers len items plus the end-of-stream wave:
  // height + len rounds, (len + 1)(n - 1) frames. The charged message count
  // keeps the seed's convention of folding the end-of-stream marker into the
  // final data frame (one spare bit) — except for the empty list, where the
  // marker is the only traffic.
  if (n > 1) {
    DECK_CHECK(stats.rounds == static_cast<std::uint64_t>(f.height()) + len);
    DECK_CHECK(stats.messages == (len + 1) * (n - 1));
  }
  net.charge(static_cast<std::uint64_t>(f.height()) + len,
             std::max<std::uint64_t>(len, 1) * (n - 1));
  for (std::uint32_t got : prog.count)
    DECK_CHECK_MSG(got == len, "pipelined broadcast left a vertex short of the list");
  return prog.list();
}

std::vector<std::vector<KeyedItem>> path_downcast(Network& net, const CommForest& f,
                                                  std::vector<KeyedItem> own_item) {
  DECK_CHECK(own_item.size() == f.parent.size());
  PathDowncastProgram prog(ForestData::from_comm_forest(f), std::move(own_item));
  run_charged(net, prog);
  return std::move(prog.received);
}

ExchangeResult edge_exchange(Network& net, const std::vector<EdgeId>& edges,
                             const std::vector<std::vector<std::uint64_t>>& payload_from_u,
                             const std::vector<std::vector<std::uint64_t>>& payload_from_v) {
  DECK_CHECK(payload_from_u.size() == edges.size() && payload_from_v.size() == edges.size());
  EdgeExchangeProgram prog(net.n(), edges, payload_from_u, payload_from_v);
  run_charged(net, prog);
  ExchangeResult r;
  r.at_u = std::move(prog.at_u);
  r.at_v = std::move(prog.at_v);
  return r;
}

}  // namespace deck
