#include "tap/distributed_tap.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace deck {

namespace {

/// Winner key: (r_e, edge id) lexicographic; smaller wins.
struct Winner {
  std::uint64_t r = std::numeric_limits<std::uint64_t>::max();
  EdgeId e = kNoEdge;
  bool valid() const { return e != kNoEdge; }
  bool operator<(const Winner& o) const { return r != o.r ? r < o.r : e < o.e; }
};

void take_min(std::optional<Winner>& slot, const Winner& w) {
  if (!slot || w < *slot) slot = w;
}

/// Path-case decomposition of a link (see distributed_tap.hpp and §3.1).
enum class PathCase { kSameSeg, kUnderDu, kUnderDv, kViaRoots };

struct LinkInfo {
  EdgeId e = kNoEdge;
  VertexId u = kNoVertex, v = kNoVertex;
  PathCase pcase = PathCase::kViaRoots;
  int u_anc_cover = 0;        // covered prefix of u's ancestor path (edge count)
  int v_anc_cover = 0;
  bool u_highway_below = false;  // covers highway of seg(u) from attach(u) down
  bool v_highway_below = false;
  std::vector<int> chain;     // skeleton-path segments (full highways covered)
};

struct SegSideView {
  int seg = -1;
  VertexId r = kNoVertex;     // segment root (the vertex itself for the tree root)
  VertexId d = kNoVertex;     // unique descendant of the member segment
  int sdepth = 0;
  int attach = 0;
};

class TapEngine {
 public:
  TapEngine(Network& net, const SegmentDecomposition& dec, const CommForest& bfs_forest,
            VertexId root, const TapOptions& opt)
      : net_(net), dec_(dec), g_(net.graph()), bfs_(bfs_forest), root_(root), opt_(opt) {}

  TapResult run();

  /// FT-MST application of machinery (II): minimum-weight covering edge per
  /// tree edge (the replacement/swap edges of [14]). One winner pass.
  std::vector<EdgeId> replacements();

 private:
  /// Classifies every link and charges the one-time setup exchanges.
  void init_links();
  SegSideView side_view(VertexId x) const;
  LinkInfo classify(EdgeId e) const;
  bool tree_anc(VertexId marked_m, const SegSideView& side, VertexId x) const;

  int uncovered_on_link(const LinkInfo& li) const;
  void refresh_knowledge();
  /// Winner passes over a predicate edge set; fills winner-per-tree-edge.
  std::vector<std::optional<Winner>> winner_passes(const std::vector<EdgeId>& edges,
                                                   const std::vector<std::uint64_t>& r_of_edge);
  void distribute_winners(const std::vector<std::optional<Winner>>& winner);

  Network& net_;
  const SegmentDecomposition& dec_;
  const Graph& g_;
  const CommForest& bfs_;
  VertexId root_;
  TapOptions opt_;

  std::vector<LinkInfo> links_;
  std::vector<int> link_index_;          // per edge id, -1 for tree edges
  std::vector<char> in_a_;
  std::vector<char> covered_;            // per tree edge id
  std::vector<std::uint64_t> uncov_seg_; // per segment: uncovered highway edges
  // Distributed winner knowledge refreshed per use:
  std::vector<std::optional<Winner>> best_lr_;   // per segment
  std::vector<std::uint64_t> cnt_lr_;            // per segment: votes for best_lr
};

SegSideView TapEngine::side_view(VertexId x) const {
  SegSideView s;
  s.seg = dec_.seg_of_vertex(x);
  if (s.seg < 0) {
    s.r = x;  // global root
    s.d = x;
    s.sdepth = 0;
    s.attach = 0;
    return s;
  }
  const Segment& seg = dec_.segment(s.seg);
  s.r = seg.r;
  s.d = seg.d;
  s.sdepth = dec_.seg_depth(x);
  s.attach = dec_.attach_pos(x);
  return s;
}

bool TapEngine::tree_anc(VertexId m, const SegSideView& side, VertexId x) const {
  // m is marked (or the tree root). Ancestors of x: itself, interior of its
  // segment path (unmarked except the segment root), then skeleton ancestors
  // of its segment root.
  if (m == x) return true;
  if (m == side.r) return true;
  if (!dec_.is_marked(side.r)) return false;  // side.r is the root vertex itself
  return dec_.is_marked(m) && dec_.skeleton_is_ancestor(m, side.r);
}

LinkInfo TapEngine::classify(EdgeId e) const {
  LinkInfo li;
  li.e = e;
  li.u = g_.edge(e).u;
  li.v = g_.edge(e).v;
  const SegSideView su = side_view(li.u);
  const SegSideView sv = side_view(li.v);

  if (su.seg >= 0 && su.seg == sv.seg) {
    // Same segment: exact LCA from the exchanged ancestor chains.
    li.pcase = PathCase::kSameSeg;
    std::vector<VertexId> cu{li.u};
    for (VertexId a : dec_.anc_path_vertices(li.u)) cu.push_back(a);
    std::vector<VertexId> cv{li.v};
    for (VertexId a : dec_.anc_path_vertices(li.v)) cv.push_back(a);
    std::size_t c = 0;
    while (c < cu.size() && c < cv.size() &&
           cu[cu.size() - 1 - c] == cv[cv.size() - 1 - c])
      ++c;
    DECK_CHECK_MSG(c >= 1, "same-segment chains must share the segment root");
    li.u_anc_cover = static_cast<int>(cu.size() - c);
    li.v_anc_cover = static_cast<int>(cv.size() - c);
    return li;
  }

  const VertexId du = su.d;
  const VertexId dv = sv.d;
  if (tree_anc(du, sv, li.v) && du != li.v) {
    // v lies strictly under the descendant of u's segment.
    li.pcase = PathCase::kUnderDu;
    li.u_anc_cover = su.sdepth - su.attach;
    li.u_highway_below =
        su.seg >= 0 && su.attach < static_cast<int>(dec_.segment(su.seg).highway.size());
    li.v_anc_cover = sv.sdepth;
    for (VertexId x = sv.r; x != du;) {
      DECK_CHECK(dec_.is_marked(x));
      li.chain.push_back(dec_.seg_of_vertex(x));
      x = dec_.skeleton_parent(x);
      DECK_CHECK(x != kNoVertex);
    }
    return li;
  }
  if (tree_anc(dv, su, li.u) && dv != li.u) {
    li.pcase = PathCase::kUnderDv;
    li.v_anc_cover = sv.sdepth - sv.attach;
    li.v_highway_below =
        sv.seg >= 0 && sv.attach < static_cast<int>(dec_.segment(sv.seg).highway.size());
    li.u_anc_cover = su.sdepth;
    for (VertexId x = su.r; x != dv;) {
      DECK_CHECK(dec_.is_marked(x));
      li.chain.push_back(dec_.seg_of_vertex(x));
      x = dec_.skeleton_parent(x);
      DECK_CHECK(x != kNoVertex);
    }
    return li;
  }
  li.pcase = PathCase::kViaRoots;
  li.u_anc_cover = su.sdepth;
  li.v_anc_cover = sv.sdepth;
  if (su.r != sv.r) {
    li.chain = dec_.skeleton_path_segments(su.r, sv.r);
  }
  return li;
}

int TapEngine::uncovered_on_link(const LinkInfo& li) const {
  int cnt = 0;
  const auto& eu = dec_.anc_path_edges(li.u);
  for (int i = 0; i < li.u_anc_cover; ++i)
    if (!covered_[static_cast<std::size_t>(eu[static_cast<std::size_t>(i)])]) ++cnt;
  const auto& ev = dec_.anc_path_edges(li.v);
  for (int i = 0; i < li.v_anc_cover; ++i)
    if (!covered_[static_cast<std::size_t>(ev[static_cast<std::size_t>(i)])]) ++cnt;
  if (li.u_highway_below) {
    const Segment& s = dec_.segment(dec_.seg_of_vertex(li.u));
    for (std::size_t i = static_cast<std::size_t>(dec_.attach_pos(li.u)); i < s.highway.size(); ++i)
      if (!covered_[static_cast<std::size_t>(s.highway[i])]) ++cnt;
  }
  if (li.v_highway_below) {
    const Segment& s = dec_.segment(dec_.seg_of_vertex(li.v));
    for (std::size_t i = static_cast<std::size_t>(dec_.attach_pos(li.v)); i < s.highway.size(); ++i)
      if (!covered_[static_cast<std::size_t>(s.highway[i])]) ++cnt;
  }
  for (int s : li.chain) cnt += static_cast<int>(uncov_seg_[static_cast<std::size_t>(s)]);
  return cnt;
}

void TapEngine::refresh_knowledge() {
  const RootedTree& tree = dec_.tree();
  const int n = g_.num_vertices();

  // (a) Every vertex refreshes the covered flags of its ancestor path.
  {
    std::vector<KeyedItem> own(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) {
      if (tree.parent_edge(v) == kNoEdge) continue;
      own[static_cast<std::size_t>(v)] = KeyedItem{
          static_cast<std::uint64_t>(tree.parent_edge(v)),
          static_cast<std::uint64_t>(covered_[static_cast<std::size_t>(tree.parent_edge(v))]), 0};
    }
    path_downcast(net_, dec_.seg_forest(), own);
  }
  // (b) Highway covered flags, broadcast within each segment.
  {
    std::vector<std::vector<KeyedItem>> lists(static_cast<std::size_t>(dec_.num_segments()));
    for (int s = 0; s < dec_.num_segments(); ++s) {
      const Segment& seg = dec_.segment(s);
      for (std::size_t i = 0; i < seg.highway.size(); ++i)
        lists[static_cast<std::size_t>(s)].push_back(
            KeyedItem{
                i, static_cast<std::uint64_t>(covered_[static_cast<std::size_t>(seg.highway[i])]),
                0});
    }
    segment_broadcast(net_, dec_, lists);
  }
  // (c) Per-segment uncovered highway counts, shared globally.
  {
    std::vector<std::uint64_t> val(static_cast<std::size_t>(n), 0);
    for (VertexId v = 0; v < n; ++v) {
      if (!dec_.on_highway(v) || dec_.seg_of_vertex(v) < 0) continue;
      const EdgeId pe = tree.parent_edge(v);
      if (pe == kNoEdge) continue;
      if (dec_.seg_of_edge(pe) == dec_.seg_of_vertex(v) && !covered_[static_cast<std::size_t>(pe)])
        val[static_cast<std::size_t>(v)] = 1;
    }
    uncov_seg_ = segment_aggregate(net_, dec_, val, CombineOp::kSum, 0);
    // Global share over the BFS pipeline.
    std::vector<std::vector<KeyedItem>> items(static_cast<std::size_t>(n));
    for (int s = 0; s < dec_.num_segments(); ++s)
      items[static_cast<std::size_t>(dec_.segment(s).r)].push_back(
          KeyedItem{static_cast<std::uint64_t>(s), uncov_seg_[static_cast<std::size_t>(s)], 0});
    auto fin = keyed_min_upcast(net_, bfs_, std::move(items));
    std::vector<std::vector<KeyedItem>> root_items(static_cast<std::size_t>(n));
    root_items[static_cast<std::size_t>(root_)] = fin[static_cast<std::size_t>(root_)];
    pipelined_broadcast(net_, bfs_, std::move(root_items));
  }
  // (d) Same-segment links exchange coverage bitmasks of their paths.
  {
    std::vector<EdgeId> ex_edges;
    std::vector<std::vector<std::uint64_t>> from_u, from_v;
    for (const LinkInfo& li : links_) {
      if (li.pcase != PathCase::kSameSeg || in_a_[static_cast<std::size_t>(li.e)]) continue;
      ex_edges.push_back(li.e);
      auto pack = [&](VertexId x) {
        const auto& edges = dec_.anc_path_edges(x);
        std::vector<std::uint64_t> words((edges.size() + 63) / 64, 0);
        for (std::size_t i = 0; i < edges.size(); ++i)
          if (covered_[static_cast<std::size_t>(edges[i])]) words[i / 64] |= 1ULL << (i % 64);
        return words;
      };
      from_u.push_back(pack(li.u));
      from_v.push_back(pack(li.v));
    }
    edge_exchange(net_, ex_edges, from_u, from_v);
  }
}

std::vector<std::optional<Winner>> TapEngine::winner_passes(
    const std::vector<EdgeId>& edges, const std::vector<std::uint64_t>& r_of_edge) {
  const RootedTree& tree = dec_.tree();
  const int n = g_.num_vertices();
  const int num_segs = dec_.num_segments();

  // (i) Ancestor-path contributions (short range + mid range case 1).
  std::vector<std::vector<KeyedItem>> items(static_cast<std::size_t>(n));
  for (std::size_t idx = 0; idx < edges.size(); ++idx) {
    const LinkInfo& li =
        links_[static_cast<std::size_t>(link_index_[static_cast<std::size_t>(edges[idx])])];
    const std::uint64_t r = r_of_edge[idx];
    auto contribute = [&](VertexId x, int cover_len) {
      const int sd = dec_.seg_of_vertex(x) < 0 ? 0 : dec_.seg_depth(x);
      for (int i = 0; i < cover_len; ++i) {
        const auto key = static_cast<std::uint64_t>(sd - i - 1);
        items[static_cast<std::size_t>(x)].push_back(
            KeyedItem{key, r, static_cast<std::uint64_t>(li.e)});
      }
    };
    contribute(li.u, li.u_anc_cover);
    contribute(li.v, li.v_anc_cover);
  }
  auto anc_final = ancestor_min_merge(net_, dec_.seg_forest(), std::move(items));

  // (ii) Mid-range case 2: per-attachment minima, then a highway prefix scan.
  std::vector<std::vector<std::optional<Winner>>> attach_min(static_cast<std::size_t>(num_segs));
  for (int s = 0; s < num_segs; ++s)
    attach_min[static_cast<std::size_t>(s)].assign(dec_.segment(s).highway_vertices.size(),
                                                   std::nullopt);
  {
    std::uint64_t max_h = 0, msgs = 0;
    for (std::size_t idx = 0; idx < edges.size(); ++idx) {
      const LinkInfo& li =
          links_[static_cast<std::size_t>(link_index_[static_cast<std::size_t>(edges[idx])])];
      const Winner w{r_of_edge[idx], li.e};
      auto add = [&](VertexId x, bool below) {
        if (!below) return;
        const int s = dec_.seg_of_vertex(x);
        take_min(
            attach_min[static_cast<std::size_t>(s)][static_cast<std::size_t>(dec_.attach_pos(x))],
            w);
        max_h = std::max(max_h, static_cast<std::uint64_t>(dec_.seg_depth(x)));
        ++msgs;
      };
      add(li.u, li.u_highway_below);
      add(li.v, li.v_highway_below);
    }
    // Convergecast over the (disjoint) hanging subtrees T_x.
    net_.charge(max_h + 1, msgs);
  }
  std::vector<std::vector<std::optional<Winner>>> mid(static_cast<std::size_t>(num_segs));
  {
    std::uint64_t max_len = 0, msgs = 0;
    for (int s = 0; s < num_segs; ++s) {
      const Segment& seg = dec_.segment(s);
      mid[static_cast<std::size_t>(s)].assign(seg.highway.size(), std::nullopt);
      std::optional<Winner> acc;
      for (std::size_t i = 0; i < seg.highway.size(); ++i) {
        if (attach_min[static_cast<std::size_t>(s)][i])
          take_min(acc, *attach_min[static_cast<std::size_t>(s)][i]);
        mid[static_cast<std::size_t>(s)][i] = acc;  // covers P(x_i -> d): edges i..end
        if (acc) ++msgs;
      }
      max_len = std::max(max_len, static_cast<std::uint64_t>(seg.highway.size()));
    }
    // Downhill scan along each highway, in parallel.
    net_.charge(max_len + 1, msgs);
  }

  // (iii) Long range: best (r, id) per fully-covered highway via BFS pipeline.
  best_lr_.assign(static_cast<std::size_t>(num_segs), std::nullopt);
  {
    std::vector<std::vector<KeyedItem>> lr(static_cast<std::size_t>(n));
    for (std::size_t idx = 0; idx < edges.size(); ++idx) {
      const LinkInfo& li =
          links_[static_cast<std::size_t>(link_index_[static_cast<std::size_t>(edges[idx])])];
      for (int s : li.chain)
        lr[static_cast<std::size_t>(li.u)].push_back(KeyedItem{
            static_cast<std::uint64_t>(s), r_of_edge[idx], static_cast<std::uint64_t>(li.e)});
    }
    auto fin = keyed_min_upcast(net_, bfs_, std::move(lr));
    std::vector<std::vector<KeyedItem>> root_items(static_cast<std::size_t>(n));
    root_items[static_cast<std::size_t>(root_)] = fin[static_cast<std::size_t>(root_)];
    for (const KeyedItem& it : pipelined_broadcast(net_, bfs_, std::move(root_items)))
      best_lr_[static_cast<std::size_t>(it.key)] = Winner{it.prio, static_cast<EdgeId>(it.payload)};
  }

  // Combine the three sources at each tree edge's lower endpoint.
  std::vector<std::optional<Winner>> winner(static_cast<std::size_t>(g_.num_edges()));
  for (VertexId x = 0; x < n; ++x) {
    const EdgeId pe = tree.parent_edge(x);
    if (pe == kNoEdge) continue;
    std::optional<Winner> w;
    if (anc_final[static_cast<std::size_t>(x)])
      w = Winner{anc_final[static_cast<std::size_t>(x)]->prio,
                 static_cast<EdgeId>(anc_final[static_cast<std::size_t>(x)]->payload)};
    const int s = dec_.seg_of_edge(pe);
    if (s >= 0 && dec_.on_highway(x) && dec_.seg_of_vertex(x) == s) {
      const auto pos = static_cast<std::size_t>(dec_.seg_depth(x) - 1);  // highway edge index
      if (pos < mid[static_cast<std::size_t>(s)].size() && mid[static_cast<std::size_t>(s)][pos])
        take_min(w, *mid[static_cast<std::size_t>(s)][pos]);
      if (best_lr_[static_cast<std::size_t>(s)])
        take_min(w, *best_lr_[static_cast<std::size_t>(s)]);
    }
    winner[static_cast<std::size_t>(pe)] = w;
  }
  return winner;
}

void TapEngine::distribute_winners(const std::vector<std::optional<Winner>>& winner) {
  const RootedTree& tree = dec_.tree();
  const int n = g_.num_vertices();
  // Winners flow down paths and across highways so endpoints can count votes.
  {
    std::vector<KeyedItem> own(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) {
      const EdgeId pe = tree.parent_edge(v);
      if (pe == kNoEdge) continue;
      const auto& w = winner[static_cast<std::size_t>(pe)];
      own[static_cast<std::size_t>(v)] =
          KeyedItem{static_cast<std::uint64_t>(pe), w ? w->r : 0,
                    w ? static_cast<std::uint64_t>(w->e) : 0};
    }
    path_downcast(net_, dec_.seg_forest(), own);
  }
  {
    std::vector<std::vector<KeyedItem>> lists(static_cast<std::size_t>(dec_.num_segments()));
    for (int s = 0; s < dec_.num_segments(); ++s) {
      const Segment& seg = dec_.segment(s);
      for (std::size_t i = 0; i < seg.highway.size(); ++i) {
        const auto& w = winner[static_cast<std::size_t>(seg.highway[i])];
        lists[static_cast<std::size_t>(s)].push_back(
            KeyedItem{i, w ? w->r : 0, w ? static_cast<std::uint64_t>(w->e) : 0});
      }
    }
    segment_broadcast(net_, dec_, lists);
  }
  // Per-segment long-range vote counts (cnt_S), shared globally.
  cnt_lr_.assign(static_cast<std::size_t>(dec_.num_segments()), 0);
  {
    std::vector<std::uint64_t> val(static_cast<std::size_t>(n), 0);
    for (VertexId v = 0; v < n; ++v) {
      const EdgeId pe = tree.parent_edge(v);
      if (pe == kNoEdge || !dec_.on_highway(v)) continue;
      const int s = dec_.seg_of_edge(pe);
      if (s < 0 || s != dec_.seg_of_vertex(v)) continue;
      if (covered_[static_cast<std::size_t>(pe)]) continue;
      const auto& w = winner[static_cast<std::size_t>(pe)];
      const auto& lr = best_lr_[static_cast<std::size_t>(s)];
      if (w && lr && w->e == lr->e) val[static_cast<std::size_t>(v)] = 1;
    }
    cnt_lr_ = segment_aggregate(net_, dec_, val, CombineOp::kSum, 0);
    std::vector<std::vector<KeyedItem>> items(static_cast<std::size_t>(n));
    for (int s = 0; s < dec_.num_segments(); ++s)
      items[static_cast<std::size_t>(dec_.segment(s).r)].push_back(
          KeyedItem{static_cast<std::uint64_t>(s), cnt_lr_[static_cast<std::size_t>(s)], 0});
    auto fin = keyed_min_upcast(net_, bfs_, std::move(items));
    std::vector<std::vector<KeyedItem>> root_items(static_cast<std::size_t>(n));
    root_items[static_cast<std::size_t>(root_)] = fin[static_cast<std::size_t>(root_)];
    pipelined_broadcast(net_, bfs_, std::move(root_items));
  }
}

void TapEngine::init_links() {
  const RootedTree& tree = dec_.tree();
  const int n = g_.num_vertices();

  net_.begin_phase("tap.setup");
  link_index_.assign(static_cast<std::size_t>(g_.num_edges()), -1);
  std::vector<char> is_tree(static_cast<std::size_t>(g_.num_edges()), 0);
  for (VertexId v = 0; v < n; ++v)
    if (tree.parent_edge(v) != kNoEdge) is_tree[static_cast<std::size_t>(tree.parent_edge(v))] = 1;
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    if (is_tree[static_cast<std::size_t>(e)]) continue;
    link_index_[static_cast<std::size_t>(e)] = static_cast<int>(links_.size());
    links_.push_back(classify(e));
  }
  // Setup exchanges: every link's endpoints swap segment summaries (O(1)
  // words) and same-segment links swap their full ancestor chains once.
  {
    std::vector<EdgeId> ex;
    std::vector<std::vector<std::uint64_t>> fu, fv;
    for (const LinkInfo& li : links_) {
      ex.push_back(li.e);
      std::vector<std::uint64_t> su(4, 0), sv(4, 0);
      if (li.pcase == PathCase::kSameSeg) {
        su.resize(4 + dec_.anc_path_vertices(li.u).size());
        sv.resize(4 + dec_.anc_path_vertices(li.v).size());
      }
      fu.push_back(std::move(su));
      fv.push_back(std::move(sv));
    }
    edge_exchange(net_, ex, fu, fv);
  }
}

std::vector<EdgeId> TapEngine::replacements() {
  init_links();
  net_.begin_phase("ftmst.winners");
  std::vector<EdgeId> all_links;
  std::vector<std::uint64_t> prio;
  for (const LinkInfo& li : links_) {
    all_links.push_back(li.e);
    prio.push_back(static_cast<std::uint64_t>(g_.edge(li.e).w));
  }
  const auto winner = winner_passes(all_links, prio);
  std::vector<EdgeId> out(static_cast<std::size_t>(g_.num_edges()), kNoEdge);
  for (EdgeId t = 0; t < g_.num_edges(); ++t)
    if (winner[static_cast<std::size_t>(t)])
      out[static_cast<std::size_t>(t)] = winner[static_cast<std::size_t>(t)]->e;
  return out;
}

TapResult TapEngine::run() {
  const RootedTree& tree = dec_.tree();
  const int n = g_.num_vertices();

  init_links();
  in_a_.assign(static_cast<std::size_t>(g_.num_edges()), 0);
  covered_.assign(static_cast<std::size_t>(g_.num_edges()), 0);
  uncov_seg_.assign(static_cast<std::size_t>(dec_.num_segments()), 0);

  // Weight-0 links join A up front (§3).
  std::vector<EdgeId> zero_adds;
  for (const LinkInfo& li : links_) {
    if (g_.edge(li.e).w == 0) {
      in_a_[static_cast<std::size_t>(li.e)] = 1;
      zero_adds.push_back(li.e);
    }
  }

  auto mark_covered_by = [&](const std::vector<EdgeId>& adds) {
    for (EdgeId e : adds) {
      const LinkInfo& li =
          links_[static_cast<std::size_t>(link_index_[static_cast<std::size_t>(e)])];
      const auto& eu = dec_.anc_path_edges(li.u);
      for (int i = 0; i < li.u_anc_cover; ++i)
        covered_[static_cast<std::size_t>(eu[static_cast<std::size_t>(i)])] = 1;
      const auto& ev = dec_.anc_path_edges(li.v);
      for (int i = 0; i < li.v_anc_cover; ++i)
        covered_[static_cast<std::size_t>(ev[static_cast<std::size_t>(i)])] = 1;
      auto mark_highway = [&](VertexId x, bool below) {
        if (!below) return;
        const Segment& s = dec_.segment(dec_.seg_of_vertex(x));
        for (std::size_t i = static_cast<std::size_t>(dec_.attach_pos(x));
             i < s.highway.size(); ++i)
          covered_[static_cast<std::size_t>(s.highway[i])] = 1;
      };
      mark_highway(li.u, li.u_highway_below);
      mark_highway(li.v, li.v_highway_below);
      for (int s : li.chain)
        for (EdgeId t : dec_.segment(s).highway) covered_[static_cast<std::size_t>(t)] = 1;
    }
  };
  if (!zero_adds.empty()) {
    // Coverage propagation for the initial additions uses the same winner
    // machinery (with A as the edge set).
    std::vector<std::uint64_t> rs(zero_adds.size(), 1);
    auto w = winner_passes(zero_adds, rs);
    mark_covered_by(zero_adds);
    distribute_winners(w);
  }

  TapResult result;

  for (int iter = 0; iter < opt_.max_iterations; ++iter) {
    net_.begin_phase("tap.iteration");
    refresh_knowledge();

    // (1)-(2) Rounded cost-effectiveness and the global maximum.
    // exponent j = min integer with 2^j > |Ce| / w  <=>  w << j > |Ce|.
    constexpr int kMinExp = -62, kMaxExp = 62;
    std::vector<int> exponent(links_.size(), std::numeric_limits<int>::min());
    std::vector<int> ce(links_.size(), 0);
    int global_max = std::numeric_limits<int>::min();
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const LinkInfo& li = links_[i];
      if (in_a_[static_cast<std::size_t>(li.e)]) continue;
      ce[i] = uncovered_on_link(li);
      if (ce[i] == 0) continue;
      const Weight w = g_.edge(li.e).w;
      DECK_CHECK(w > 0);  // zero-weight links joined A already
      int j = kMinExp;
      while (j < kMaxExp) {
        // Test 2^j > ce/w, i.e. w * 2^j > ce, avoiding overflow via long double-free shifts.
        const long long lhs = j >= 0 ? (w << std::min<long long>(j, 40)) : w;
        if (j >= 0 ? lhs > ce[i] : w > (static_cast<long long>(ce[i]) << std::min(-j, 40)))
          break;
        ++j;
      }
      exponent[i] = j;
      global_max = std::max(global_max, j);
    }
    // Convergecast max + broadcast over the BFS tree.
    {
      std::vector<std::uint64_t> val(static_cast<std::size_t>(n), 0);
      convergecast(net_, bfs_, val, CombineOp::kMax);
      broadcast(net_, bfs_, val);
    }
    if (global_max == std::numeric_limits<int>::min()) {
      // Nothing uncovered can be covered — either done or infeasible.
      break;
    }

    // (3) Candidates draw r_e (shared over the link in one round).
    std::vector<EdgeId> cands;
    std::vector<std::uint64_t> rs;
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (exponent[i] != global_max) continue;
      cands.push_back(links_[i].e);
      // Drawn by the smaller-id endpoint; derived deterministically from the
      // shared seed for reproducibility. Range {1..n^8} per the paper.
      rs.push_back(1 + (mix64(opt_.seed ^ (static_cast<std::uint64_t>(iter) << 32) ^
                              static_cast<std::uint64_t>(links_[i].e)) >>
                        1));
    }
    net_.charge(1, cands.size());

    // (4) Winner per uncovered tree edge; (5) vote distribution.
    auto winner = winner_passes(cands, rs);
    distribute_winners(winner);

    // (6) Vote counts; threshold test votes * denom >= |Ce|.
    std::vector<EdgeId> adds;
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      const LinkInfo& li =
          links_[static_cast<std::size_t>(link_index_[static_cast<std::size_t>(cands[ci])])];
      const std::size_t i =
          static_cast<std::size_t>(link_index_[static_cast<std::size_t>(cands[ci])]);
      std::uint64_t votes = 0;
      auto count_path = [&](VertexId x, int cover_len) {
        const auto& pe = dec_.anc_path_edges(x);
        for (int k = 0; k < cover_len; ++k) {
          const EdgeId t = pe[static_cast<std::size_t>(k)];
          if (covered_[static_cast<std::size_t>(t)]) continue;
          const auto& w = winner[static_cast<std::size_t>(t)];
          if (w && w->e == li.e) ++votes;
        }
      };
      count_path(li.u, li.u_anc_cover);
      count_path(li.v, li.v_anc_cover);
      auto count_highway = [&](VertexId x, bool below) {
        if (!below) return;
        const Segment& s = dec_.segment(dec_.seg_of_vertex(x));
        for (std::size_t k = static_cast<std::size_t>(dec_.attach_pos(x));
             k < s.highway.size(); ++k) {
          const EdgeId t = s.highway[k];
          if (covered_[static_cast<std::size_t>(t)]) continue;
          const auto& w = winner[static_cast<std::size_t>(t)];
          if (w && w->e == li.e) ++votes;
        }
      };
      count_highway(li.u, li.u_highway_below);
      count_highway(li.v, li.v_highway_below);
      for (int s : li.chain) {
        const auto& lr = best_lr_[static_cast<std::size_t>(s)];
        if (lr && lr->e == li.e) votes += cnt_lr_[static_cast<std::size_t>(s)];
      }
      if (votes * static_cast<std::uint64_t>(opt_.vote_denominator) >=
          static_cast<std::uint64_t>(ce[i])) {
        adds.push_back(li.e);
      }
    }
    net_.charge(2, 2 * cands.size());  // endpoint vote-count exchange

    for (EdgeId e : adds) in_a_[static_cast<std::size_t>(e)] = 1;
    mark_covered_by(adds);
    ++result.iterations;

    // (7) Termination: any uncovered tree edge? OR-convergecast + broadcast.
    bool any_uncovered = false;
    for (VertexId v = 0; v < n; ++v) {
      const EdgeId pe = tree.parent_edge(v);
      if (pe != kNoEdge && !covered_[static_cast<std::size_t>(pe)]) any_uncovered = true;
    }
    {
      std::vector<std::uint64_t> val(static_cast<std::size_t>(n), 0);
      convergecast(net_, bfs_, val, CombineOp::kOr);
      broadcast(net_, bfs_, val);
    }
    if (!any_uncovered) break;
  }

  for (EdgeId e = 0; e < g_.num_edges(); ++e)
    if (in_a_[static_cast<std::size_t>(e)]) {
      result.augmentation.push_back(e);
      result.weight += g_.edge(e).w;
    }
  return result;
}

}  // namespace

TapResult distributed_tap(Network& net, const SegmentDecomposition& dec,
                          const CommForest& bfs_forest, VertexId root, const TapOptions& opt) {
  TapEngine engine(net, dec, bfs_forest, root, opt);
  return engine.run();
}

std::vector<EdgeId> mst_replacement_edges(Network& net, const SegmentDecomposition& dec,
                                          const CommForest& bfs_forest, VertexId root) {
  TapEngine engine(net, dec, bfs_forest, root, TapOptions{});
  return engine.replacements();
}

}  // namespace deck
