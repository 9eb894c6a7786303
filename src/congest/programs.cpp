#include "congest/programs.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "net/wire.hpp"
#include "support/check.hpp"

namespace deck {

namespace {

// Message tags. Every program uses 1 for payload-bearing messages; streamed
// programs add 2 as the end-of-stream marker.
constexpr std::uint8_t kTagData = 1;
constexpr std::uint8_t kTagEos = 2;


std::uint32_t id32(std::int32_t v) { return static_cast<std::uint32_t>(v); }

void encode_u64s(std::vector<std::uint8_t>& out, const std::vector<std::uint64_t>& xs) {
  net::put_u32(out, static_cast<std::uint32_t>(xs.size()));
  for (std::uint64_t x : xs) net::put_u64(out, x);
}

std::vector<std::uint64_t> decode_u64s(net::WireReader& r) {
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 8)
    throw NetError("congest program spec: word list longer than the message");
  std::vector<std::uint64_t> xs(count);
  for (auto& x : xs) x = r.u64();
  return xs;
}

void encode_items(std::vector<std::uint8_t>& out, const std::vector<KeyedItem>& items) {
  net::put_u32(out, static_cast<std::uint32_t>(items.size()));
  for (const KeyedItem& it : items) {
    net::put_u64(out, it.key);
    net::put_u64(out, it.prio);
    net::put_u64(out, it.payload);
  }
}

std::vector<KeyedItem> decode_items(net::WireReader& r) {
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 24)
    throw NetError("congest program spec: item list longer than the message");
  std::vector<KeyedItem> items(count);
  for (auto& it : items) {
    it.key = r.u64();
    it.prio = r.u64();
    it.payload = r.u64();
  }
  return items;
}

ForestData decode_forest(net::WireReader& r) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 8)
    throw NetError("congest program spec: forest larger than the message");
  ForestData f;
  f.parent.resize(n);
  f.depth.resize(n);
  for (auto& p : f.parent) p = static_cast<VertexId>(r.u32());
  for (auto& d : f.depth) d = static_cast<int>(r.u32());
  return f;
}

/// Fills `out` with the children lists of the non-roots v that `keep(v)`
/// admits; every parent id must already be in range. Visiting v in
/// ascending order keeps each list ascending by child id, which fixes the
/// send order of every program that walks it.
template <typename Keep>
void build_child_lists(const std::vector<VertexId>& parent, Keep keep, ChildLists& out) {
  const std::size_t n = parent.size();
  out.off.assign(n + 1, 0);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (parent[v] == kNoVertex || !keep(static_cast<VertexId>(v))) continue;
    ++out.off[static_cast<std::size_t>(parent[v]) + 1];
    ++total;
  }
  for (std::size_t v = 0; v < n; ++v) out.off[v + 1] += out.off[v];
  out.list.resize(total);
  // off[p] serves as p's fill cursor, ending at p + 1's start; shifting
  // the array back one slot restores the starts.
  for (std::size_t v = 0; v < n; ++v) {
    if (parent[v] == kNoVertex || !keep(static_cast<VertexId>(v))) continue;
    out.list[static_cast<std::size_t>(out.off[static_cast<std::size_t>(parent[v])]++)] =
        static_cast<VertexId>(v);
  }
  for (std::size_t v = n; v > 0; --v) out.off[v] = out.off[v - 1];
  out.off[0] = 0;
}

bool known_combine(CombineOp op) {
  switch (op) {
    case CombineOp::kSum:
    case CombineOp::kMin:
    case CombineOp::kMax:
    case CombineOp::kOr:
      return true;
  }
  return false;
}

}  // namespace

int ForestData::height() const {
  int h = 0;
  for (int d : depth) h = std::max(h, d);
  return h;
}

void ForestData::encode(std::vector<std::uint8_t>& out) const {
  net::put_u32(out, static_cast<std::uint32_t>(parent.size()));
  for (VertexId p : parent) net::put_u32(out, id32(p));
  for (int d : depth) net::put_u32(out, static_cast<std::uint32_t>(d));
}

void ForestProgramBase::setup(const Graph& g) {
  const int n = this->n();
  // Forests can arrive over the wire (distributed Start specs), so bogus
  // sizes/ids/depths must fail typed before they index anything.
  if (n != g.num_vertices())
    throw NetError("congest program spec: forest and graph disagree on the vertex count");
  for (VertexId v = 0; v < n; ++v) {
    const VertexId p = f_.parent[static_cast<std::size_t>(v)];
    if (p != kNoVertex && (p < 0 || p >= n))
      throw NetError("congest program spec: forest parent id out of range");
    const int d = f_.depth[static_cast<std::size_t>(v)];
    if (d < 0 || d > n) throw NetError("congest program spec: forest depth out of range");
  }
  height_ = f_.height();
  parent_port_.assign(static_cast<std::size_t>(n), kNoEdge);
  // Note: depth is *forest-local* and may jump across parent links (the
  // segment forest keeps full tree parents with per-segment depths; the
  // contiguity relation depth(v) == depth(p) + 1 is how primitives that care
  // tell "same forest tree" — see PathDowncastProgram).
  for (VertexId v = 0; v < n; ++v) {
    const VertexId p = parent(v);
    if (p == kNoVertex) continue;
    const EdgeId e = g.find_edge(v, p);
    // CONGEST moves data on edges only.
    if (e == kNoEdge) throw NetError("congest program spec: forest edge is not a graph edge");
    parent_port_[static_cast<std::size_t>(v)] = e;
  }
  build_child_lists(f_.parent, [](VertexId) { return true; }, children_);
}

void ForestProgramBase::send_down(VertexId v, const Packet& msg, Outbox& out) const {
  for (VertexId c : kids(v)) out.send(c, parent_port(c), msg);
}

// ---------------------------------------------------------------------------
// BFS flood.

BfsProgram::BfsProgram(int n, VertexId root) : n_(n), root_(root) {}

void BfsProgram::setup(const Graph& g) {
  // n comes from the spec: check it before sizing anything by it.
  if (n_ != g.num_vertices())
    throw NetError("congest program spec: bfs n does not match the graph");
  if (root_ < 0 || root_ >= g.num_vertices())
    throw NetError("congest program spec: bfs root out of range");
  g_ = &g;
  const auto n = static_cast<std::size_t>(n_);
  parent.assign(n, kNoVertex);
  parent_edge.assign(n, kNoEdge);
  joined_.assign(n, 0);
}

void BfsProgram::step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) {
  const auto sv = static_cast<std::size_t>(v);
  if (joined_[sv]) return;  // late announcements are ignored
  if (v == root_) {
    DECK_CHECK(round == 1 && inbox.empty());
  } else {
    if (inbox.empty()) return;
    // Deterministic adoption: smallest announcing neighbor wins.
    const Delivery* best = &inbox[0];
    for (const Delivery& d : inbox)
      if (d.from < best->from) best = &d;
    parent[sv] = best->from;
    parent_edge[sv] = best->edge;
  }
  joined_[sv] = 1;
  for (const Adj& a : g_->neighbors(v)) out.send(a.to, a.edge, Packet{0, 0, 0, kTagData});
}

void BfsProgram::finish_range(VertexId begin, VertexId end) {
  for (VertexId v = begin; v < end; ++v)
    DECK_CHECK_MSG(joined_[static_cast<std::size_t>(v)],
                   "distributed_bfs requires a connected graph");
}

void BfsProgram::encode_spec(std::vector<std::uint8_t>& out) const {
  net::put_u32(out, static_cast<std::uint32_t>(n_));
  net::put_u32(out, id32(root_));
}

void BfsProgram::encode_outputs(VertexId begin, VertexId end,
                                std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) {
    net::put_u32(out, id32(parent[static_cast<std::size_t>(v)]));
    net::put_u32(out, id32(parent_edge[static_cast<std::size_t>(v)]));
  }
}

void BfsProgram::decode_outputs(VertexId begin, VertexId end,
                                std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) {
    parent[static_cast<std::size_t>(v)] = static_cast<VertexId>(r.u32());
    parent_edge[static_cast<std::size_t>(v)] = static_cast<EdgeId>(r.u32());
  }
}

void BfsProgram::encode_state(VertexId begin, VertexId end,
                              std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    net::put_u32(out, joined_[sv]);
    net::put_u32(out, id32(parent[sv]));
    net::put_u32(out, id32(parent_edge[sv]));
  }
}

void BfsProgram::decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    joined_[sv] = static_cast<std::uint8_t>(r.u32());
    parent[sv] = static_cast<VertexId>(r.u32());
    parent_edge[sv] = static_cast<EdgeId>(r.u32());
  }
}

// ---------------------------------------------------------------------------
// Convergecast.

std::uint64_t apply_combine(CombineOp op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case CombineOp::kSum:
      return a + b;
    case CombineOp::kMin:
      return std::min(a, b);
    case CombineOp::kMax:
      return std::max(a, b);
    case CombineOp::kOr:
      return a | b;
  }
  DECK_CHECK_MSG(false, "unknown CombineOp");
  return 0;
}

ConvergecastProgram::ConvergecastProgram(ForestData f, CombineOp op,
                                         std::vector<std::uint64_t> value)
    : ForestProgramBase(std::move(f)), value(std::move(value)), op_(op) {
  if (this->value.size() != f_.parent.size())
    throw NetError("congest program spec: convergecast value list length is not n");
  if (!known_combine(op_)) throw NetError("congest program spec: unknown convergecast CombineOp");
}

void ConvergecastProgram::setup(const Graph& g) {
  ForestProgramBase::setup(g);
  // The stall-free fire schedule requires honest forest-local depths.
  for (VertexId v = 0; v < n(); ++v)
    if (!is_root(v) && depth(v) != depth(parent(v)) + 1)
      throw NetError("congest program spec: convergecast depth is not the parent's plus one");
}

void ConvergecastProgram::step(VertexId v, int round, std::span<const Delivery> inbox,
                               Outbox& out) {
  const auto sv = static_cast<std::size_t>(v);
  for (const Delivery& d : inbox) value[sv] = apply_combine(op_, value[sv], d.msg.a);
  if (is_root(v)) return;
  // Stall-free schedule: depth d fires at round height - d + 1, exactly when
  // its children's values (fired one round earlier) arrive.
  const int fire = height_ - depth(v) + 1;
  if (round == fire) {
    out.send(parent(v), parent_port(v), Packet{value[sv], 0, 0, kTagData});
  } else if (round < fire) {
    out.stay_awake();
  }
}

void ConvergecastProgram::encode_spec(std::vector<std::uint8_t>& out) const {
  f_.encode(out);
  net::put_u32(out, static_cast<std::uint32_t>(op_));
  encode_u64s(out, value);
}

void ConvergecastProgram::encode_outputs(VertexId begin, VertexId end,
                                         std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) net::put_u64(out, value[static_cast<std::size_t>(v)]);
}

void ConvergecastProgram::decode_outputs(VertexId begin, VertexId end,
                                         std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) value[static_cast<std::size_t>(v)] = r.u64();
}

void ConvergecastProgram::encode_state(VertexId begin, VertexId end,
                                       std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) net::put_u64(out, value[static_cast<std::size_t>(v)]);
}

void ConvergecastProgram::decode_state(VertexId begin, VertexId end,
                                       std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) value[static_cast<std::size_t>(v)] = r.u64();
}

// ---------------------------------------------------------------------------
// Broadcast.

BroadcastProgram::BroadcastProgram(ForestData f, std::vector<std::uint64_t> value)
    : ForestProgramBase(std::move(f)), value(std::move(value)) {
  if (this->value.size() != f_.parent.size())
    throw NetError("congest program spec: broadcast value list length is not n");
}

void BroadcastProgram::step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) {
  const auto sv = static_cast<std::size_t>(v);
  if (is_root(v)) {
    DECK_CHECK(round == 1 && inbox.empty());
  } else {
    DECK_CHECK(inbox.size() == 1);
    value[sv] = inbox[0].msg.a;
  }
  send_down(v, Packet{value[sv], 0, 0, kTagData}, out);
}

void BroadcastProgram::encode_spec(std::vector<std::uint8_t>& out) const {
  f_.encode(out);
  encode_u64s(out, value);
}

void BroadcastProgram::encode_outputs(VertexId begin, VertexId end,
                                      std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) net::put_u64(out, value[static_cast<std::size_t>(v)]);
}

void BroadcastProgram::decode_outputs(VertexId begin, VertexId end,
                                      std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) value[static_cast<std::size_t>(v)] = r.u64();
}

void BroadcastProgram::encode_state(VertexId begin, VertexId end,
                                    std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) net::put_u64(out, value[static_cast<std::size_t>(v)]);
}

void BroadcastProgram::decode_state(VertexId begin, VertexId end,
                                    std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) value[static_cast<std::size_t>(v)] = r.u64();
}

// ---------------------------------------------------------------------------
// Pipelined keyed-min upcast.

KeyedUpcastProgram::KeyedUpcastProgram(ForestData f, bool ancestor_mode,
                                       std::vector<std::vector<KeyedItem>> items)
    : ForestProgramBase(std::move(f)), ancestor_mode_(ancestor_mode), items_(std::move(items)) {
  DECK_CHECK(items_.size() == f_.parent.size());
}

std::uint64_t KeyedUpcastProgram::emit_below(VertexId v) const {
  if (!ancestor_mode_) return std::numeric_limits<std::uint64_t>::max();
  const int d = depth(v);
  return d >= 1 ? static_cast<std::uint64_t>(d - 1) : 0;
}

void KeyedUpcastProgram::merge_in(VertexId v, std::uint64_t key, std::uint64_t prio,
                                  std::uint64_t payload) {
  auto& pend = pending_[static_cast<std::size_t>(v)];
  auto [pos, fresh] = pend.try_emplace(key, ItemValue{prio, payload});
  if (!fresh && (prio < pos->second.prio ||
                 (prio == pos->second.prio && payload < pos->second.payload))) {
    pos->second = ItemValue{prio, payload};
  }
}

void KeyedUpcastProgram::setup(const Graph& g) {
  ForestProgramBase::setup(g);
  const auto n = static_cast<std::size_t>(this->n());
  pending_.clear();
  pending_.resize(n);
  frontiers_.clear();
  frontiers_.resize(n);
  child_front_.assign(n, 0);
  child_live_.assign(n, 0);
  live_children_.assign(n, 0);
  eos_sent_.assign(n, 0);
  finalized.assign(n, {});
  constexpr std::int64_t kNotYet = -1;
  for (VertexId v = 0; v < this->n(); ++v) {
    const auto sv = static_cast<std::size_t>(v);
    for (const KeyedItem& it : items_[sv]) merge_in(v, it.key, it.prio, it.payload);
    live_children_[sv] = static_cast<int>(kids(v).size());
    for (VertexId c : kids(v)) {
      frontiers_[sv].insert(kNotYet);
      child_front_[static_cast<std::size_t>(c)] = kNotYet;
      child_live_[static_cast<std::size_t>(c)] = 1;
    }
  }
}

void KeyedUpcastProgram::step(VertexId v, int, std::span<const Delivery> inbox, Outbox& out) {
  const auto sv = static_cast<std::size_t>(v);
  for (const Delivery& d : inbox) {
    const auto sc = static_cast<std::size_t>(d.from);
    DECK_CHECK_MSG(parent(d.from) == v && child_live_[sc], "upcast message from a non-child");
    std::int64_t& front = child_front_[sc];
    frontiers_[sv].erase(frontiers_[sv].find(front));
    if (d.msg.tag == kTagEos) {
      child_live_[sc] = 0;
      --live_children_[sv];
    } else {
      merge_in(v, d.msg.a, d.msg.b, d.msg.c);
      front = static_cast<std::int64_t>(d.msg.a);
      frontiers_[sv].insert(front);
    }
  }
  if (is_root(v) || eos_sent_[sv]) return;
  auto& pend = pending_[sv];
  const auto it = pend.begin();
  const bool has_emittable = it != pend.end() && it->first < emit_below(v);
  const std::int64_t min_frontier =
      frontiers_[sv].empty() ? std::numeric_limits<std::int64_t>::max() : *frontiers_[sv].begin();
  if (has_emittable) {
    // A key is final for the subtree once every child stream has advanced to
    // it; emitting may free the next key for the following round.
    if (min_frontier >= static_cast<std::int64_t>(it->first)) {
      out.send(parent(v), parent_port(v),
               Packet{it->first, it->second.prio, it->second.payload, kTagData});
      pend.erase(it);
      out.stay_awake();
    }
    // else: blocked; a child emission will wake us.
  } else if (live_children_[sv] == 0) {
    out.send(parent(v), parent_port(v), Packet{0, 0, 0, kTagEos});
    eos_sent_[sv] = 1;
  }
  // else: waiting for children to finish; their EOS wakes us.
}

void KeyedUpcastProgram::finish_range(VertexId begin, VertexId end) {
  for (VertexId v = begin; v < end; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    DECK_CHECK_MSG(is_root(v) || eos_sent_[sv], "upcast engine deadlock");
    for (const auto& [key, val] : pending_[sv])
      finalized[sv].push_back(KeyedItem{key, val.prio, val.payload});
  }
}

void KeyedUpcastProgram::encode_spec(std::vector<std::uint8_t>& out) const {
  f_.encode(out);
  net::put_u32(out, ancestor_mode_ ? 1 : 0);
  for (const auto& items : items_) encode_items(out, items);
}

void KeyedUpcastProgram::encode_outputs(VertexId begin, VertexId end,
                                        std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) encode_items(out, finalized[static_cast<std::size_t>(v)]);
}

void KeyedUpcastProgram::decode_outputs(VertexId begin, VertexId end,
                                        std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) finalized[static_cast<std::size_t>(v)] = decode_items(r);
}

void KeyedUpcastProgram::encode_state(VertexId begin, VertexId end,
                                      std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    net::put_u32(out, eos_sent_[sv]);
    net::put_u32(out, static_cast<std::uint32_t>(pending_[sv].size()));
    for (const auto& [key, val] : pending_[sv]) {
      net::put_u64(out, key);
      net::put_u64(out, val.prio);
      net::put_u64(out, val.payload);
    }
    // The open child streams, ascending by child id.
    net::put_u32(out, static_cast<std::uint32_t>(live_children_[sv]));
    for (VertexId c : kids(v)) {
      if (!child_live_[static_cast<std::size_t>(c)]) continue;
      net::put_u32(out, id32(c));
      net::put_u64(out, static_cast<std::uint64_t>(child_front_[static_cast<std::size_t>(c)]));
    }
  }
}

void KeyedUpcastProgram::decode_state(VertexId begin, VertexId end,
                                      std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    eos_sent_[sv] = static_cast<std::uint8_t>(r.u32());
    pending_[sv].clear();
    const std::uint32_t pend_count = r.u32();
    if (pend_count > r.remaining() / 24)
      throw NetError("congest checkpoint: pending list longer than the blob");
    for (std::uint32_t i = 0; i < pend_count; ++i) {
      const std::uint64_t key = r.u64();
      const std::uint64_t prio = r.u64();
      const std::uint64_t payload = r.u64();
      pending_[sv].emplace_hint(pending_[sv].end(), key, ItemValue{prio, payload});
    }
    frontiers_[sv].clear();
    for (VertexId c : kids(v)) child_live_[static_cast<std::size_t>(c)] = 0;
    const std::uint32_t child_count = r.u32();
    if (child_count > r.remaining() / 12)
      throw NetError("congest checkpoint: frontier list longer than the blob");
    VertexId prev = kNoVertex;
    for (std::uint32_t i = 0; i < child_count; ++i) {
      const auto child = static_cast<VertexId>(r.u32());
      const auto frontier = static_cast<std::int64_t>(r.u64());
      // Open streams are listed once each, ascending, and only v's
      // children have streams into v.
      if (child <= prev || child >= n() || parent(child) != v)
        throw NetError("congest checkpoint: frontier list names a non-child or repeats one");
      prev = child;
      child_front_[static_cast<std::size_t>(child)] = frontier;
      child_live_[static_cast<std::size_t>(child)] = 1;
      frontiers_[sv].insert(frontier);
    }
    // Live children are exactly the child streams that have not hit EOS.
    live_children_[sv] = static_cast<int>(child_count);
  }
}

// ---------------------------------------------------------------------------
// Pipelined broadcast.

PipelinedBroadcastProgram::PipelinedBroadcastProgram(ForestData f, VertexId root,
                                                     std::vector<KeyedItem> list)
    : ForestProgramBase(std::move(f)),
      count(f_.parent.size(), 0),
      root_(root),
      list_(std::move(list)) {}

void PipelinedBroadcastProgram::setup(const Graph& g) {
  ForestProgramBase::setup(g);
  if (root_ < 0 || root_ >= n() || !is_root(root_))
    throw NetError("congest program spec: pipelined broadcast root is not a forest root");
}

void PipelinedBroadcastProgram::step(VertexId v, int round, std::span<const Delivery> inbox,
                                     Outbox& out) {
  if (v == root_) {
    // Emit the list one item per round, then the end-of-stream wave that
    // tells every vertex nothing more comes.
    const auto len = static_cast<int>(list_.size());
    if (round <= len) {
      const KeyedItem& it = list_[static_cast<std::size_t>(round - 1)];
      send_down(v, Packet{it.key, it.prio, it.payload, kTagData}, out);
      out.stay_awake();
    } else if (round == len + 1) {
      send_down(v, Packet{0, 0, 0, kTagEos}, out);
    }
    return;
  }
  DECK_CHECK(inbox.size() == 1);
  const Packet& m = inbox[0].msg;
  if (m.tag == kTagData) {
    std::uint32_t& got = count[static_cast<std::size_t>(v)];
    DECK_CHECK_MSG(got < list_.size() && list_[got] == (KeyedItem{m.a, m.b, m.c}),
                   "pipelined broadcast delivered an item out of list order");
    ++got;
  }
  send_down(v, m, out);
}

void PipelinedBroadcastProgram::finish_range(VertexId begin, VertexId end) {
  const auto len = static_cast<std::uint32_t>(list_.size());
  if (root_ >= begin && root_ < end) count[static_cast<std::size_t>(root_)] = len;
  for (VertexId v = begin; v < end; ++v)
    DECK_CHECK_MSG(count[static_cast<std::size_t>(v)] == len,
                   "pipelined broadcast left a vertex short of the list");
}

void PipelinedBroadcastProgram::encode_spec(std::vector<std::uint8_t>& out) const {
  f_.encode(out);
  net::put_u32(out, id32(root_));
  encode_items(out, list_);
}

void PipelinedBroadcastProgram::encode_outputs(VertexId begin, VertexId end,
                                               std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) net::put_u32(out, count[static_cast<std::size_t>(v)]);
}

void PipelinedBroadcastProgram::decode_outputs(VertexId begin, VertexId end,
                                               std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) {
    const std::uint32_t got = r.u32();
    if (got > list_.size())
      throw NetError("congest pipelined broadcast: received count exceeds the list length");
    count[static_cast<std::size_t>(v)] = got;
  }
}

// The counts are both the outputs and the whole mutable state.
void PipelinedBroadcastProgram::encode_state(VertexId begin, VertexId end,
                                             std::vector<std::uint8_t>& out) const {
  encode_outputs(begin, end, out);
}

void PipelinedBroadcastProgram::decode_state(VertexId begin, VertexId end,
                                             std::span<const std::uint8_t> bytes) {
  decode_outputs(begin, end, bytes);
}

// ---------------------------------------------------------------------------
// Path downcast.

PathDowncastProgram::PathDowncastProgram(ForestData f, std::vector<KeyedItem> own_item)
    : ForestProgramBase(std::move(f)), received(f_.parent.size()), own_(std::move(own_item)) {
  if (own_.size() != f_.parent.size())
    throw NetError("congest program spec: path downcast own list length is not n");
}

void PathDowncastProgram::setup(const Graph& g) {
  ForestProgramBase::setup(g);
  build_child_lists(
      f_.parent, [this](VertexId v) { return depth(v) == depth(parent(v)) + 1; }, contig_kids_);
}

void PathDowncastProgram::step(VertexId v, int round, std::span<const Delivery> inbox,
                               Outbox& out) {
  const auto sv = static_cast<std::size_t>(v);
  auto send_contig = [&](const Packet& m) {
    for (VertexId c : contig_kids_.of(v)) out.send(c, parent_port(c), m);
  };
  if (round == 1 && !is_root(v)) {
    const KeyedItem& it = own_[sv];
    send_contig(Packet{it.key, it.prio, it.payload, kTagData});
    return;
  }
  // Forward the ancestor stream FIFO: at most one item arrives per round
  // (from the same-tree parent), and children receive it one round later.
  for (const Delivery& d : inbox) {
    received[sv].push_back(KeyedItem{d.msg.a, d.msg.b, d.msg.c});
    send_contig(d.msg);
  }
}

void PathDowncastProgram::encode_spec(std::vector<std::uint8_t>& out) const {
  f_.encode(out);
  encode_items(out, own_);
}

void PathDowncastProgram::encode_outputs(VertexId begin, VertexId end,
                                         std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) encode_items(out, received[static_cast<std::size_t>(v)]);
}

void PathDowncastProgram::decode_outputs(VertexId begin, VertexId end,
                                         std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) received[static_cast<std::size_t>(v)] = decode_items(r);
}

void PathDowncastProgram::encode_state(VertexId begin, VertexId end,
                                       std::vector<std::uint8_t>& out) const {
  for (VertexId v = begin; v < end; ++v) encode_items(out, received[static_cast<std::size_t>(v)]);
}

void PathDowncastProgram::decode_state(VertexId begin, VertexId end,
                                       std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  for (VertexId v = begin; v < end; ++v) received[static_cast<std::size_t>(v)] = decode_items(r);
}

// ---------------------------------------------------------------------------
// Edge exchange.

EdgeExchangeProgram::EdgeExchangeProgram(int n, std::vector<EdgeId> edges,
                                         std::vector<std::vector<std::uint64_t>> from_u,
                                         std::vector<std::vector<std::uint64_t>> from_v)
    : at_u(edges.size()),
      at_v(edges.size()),
      n_(n),
      edges_(std::move(edges)),
      from_u_(std::move(from_u)),
      from_v_(std::move(from_v)) {
  DECK_CHECK(from_u_.size() == edges_.size() && from_v_.size() == edges_.size());
}

void EdgeExchangeProgram::setup(const Graph& g) {
  if (n_ != g.num_vertices())
    throw NetError("congest program spec: edge_exchange n does not match the graph");
  g_ = &g;
  send_slots_.assign(static_cast<std::size_t>(n_), {});
  edge_index_.clear();
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const EdgeId e = edges_[i];
    if (e < 0 || e >= g.num_edges())
      throw NetError("congest program spec: edge_exchange edge id out of range");
    if (!edge_index_.emplace(e, i).second)
      throw NetError("congest program spec: edge_exchange lists an edge twice");
    const Edge& ed = g.edge(e);
    if (!from_u_[i].empty()) send_slots_[static_cast<std::size_t>(ed.u)].push_back({i, e, ed.v});
    if (!from_v_[i].empty()) send_slots_[static_cast<std::size_t>(ed.v)].push_back({i, e, ed.u});
  }
}

bool EdgeExchangeProgram::starts_active(VertexId v) const {
  return !send_slots_[static_cast<std::size_t>(v)].empty();
}

void EdgeExchangeProgram::step(VertexId v, int round, std::span<const Delivery> inbox,
                               Outbox& out) {
  for (const Delivery& d : inbox) {
    const auto pos = edge_index_.find(d.edge);
    DECK_CHECK(pos != edge_index_.end());
    const Edge& ed = g_->edge(d.edge);
    auto& dst = v == ed.u ? at_u[pos->second] : at_v[pos->second];
    dst.push_back(d.msg.a);
  }
  bool more = false;
  for (const SendSlot& slot : send_slots_[static_cast<std::size_t>(v)]) {
    const auto& payload =
        v == g_->edge(slot.edge).u ? from_u_[slot.index] : from_v_[slot.index];
    if (static_cast<std::size_t>(round) <= payload.size()) {
      out.send(slot.peer, slot.edge,
               Packet{payload[static_cast<std::size_t>(round - 1)], 0, 0, kTagData});
      if (static_cast<std::size_t>(round) < payload.size()) more = true;
    }
  }
  if (more) out.stay_awake();
}

void EdgeExchangeProgram::encode_spec(std::vector<std::uint8_t>& out) const {
  net::put_u32(out, static_cast<std::uint32_t>(n_));
  net::put_u32(out, static_cast<std::uint32_t>(edges_.size()));
  for (EdgeId e : edges_) net::put_u32(out, id32(e));
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    encode_u64s(out, from_u_[i]);
    encode_u64s(out, from_v_[i]);
  }
}

void EdgeExchangeProgram::encode_outputs(VertexId begin, VertexId end,
                                         std::vector<std::uint8_t>& out) const {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& ed = g_->edge(edges_[i]);
    if (ed.u >= begin && ed.u < end) encode_u64s(out, at_u[i]);
    if (ed.v >= begin && ed.v < end) encode_u64s(out, at_v[i]);
  }
}

void EdgeExchangeProgram::decode_outputs(VertexId begin, VertexId end,
                                         std::span<const std::uint8_t> bytes) {
  DECK_CHECK_MSG(g_ != nullptr, "decode_outputs before setup");
  net::WireReader r(bytes);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& ed = g_->edge(edges_[i]);
    if (ed.u >= begin && ed.u < end) at_u[i] = decode_u64s(r);
    if (ed.v >= begin && ed.v < end) at_v[i] = decode_u64s(r);
  }
}

void EdgeExchangeProgram::encode_state(VertexId begin, VertexId end,
                                       std::vector<std::uint8_t>& out) const {
  DECK_CHECK_MSG(g_ != nullptr, "encode_state before setup");
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& ed = g_->edge(edges_[i]);
    if (ed.u >= begin && ed.u < end) encode_u64s(out, at_u[i]);
    if (ed.v >= begin && ed.v < end) encode_u64s(out, at_v[i]);
  }
}

void EdgeExchangeProgram::decode_state(VertexId begin, VertexId end,
                                       std::span<const std::uint8_t> bytes) {
  DECK_CHECK_MSG(g_ != nullptr, "decode_state before setup");
  net::WireReader r(bytes);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& ed = g_->edge(edges_[i]);
    if (ed.u >= begin && ed.u < end) at_u[i] = decode_u64s(r);
    if (ed.v >= begin && ed.v < end) at_v[i] = decode_u64s(r);
  }
}

// ---------------------------------------------------------------------------
// Worker-side registry.

std::unique_ptr<VertexProgram> decode_congest_program(std::uint32_t id,
                                                      std::span<const std::uint8_t> spec) {
  net::WireReader r(spec);
  switch (static_cast<ProgramId>(id)) {
    case ProgramId::kBfs: {
      const auto n = static_cast<int>(r.u32());
      const auto root = static_cast<VertexId>(r.u32());
      return std::make_unique<BfsProgram>(n, root);
    }
    case ProgramId::kConvergecast: {
      ForestData f = decode_forest(r);
      const auto op = static_cast<CombineOp>(r.u32());
      return std::make_unique<ConvergecastProgram>(std::move(f), op, decode_u64s(r));
    }
    case ProgramId::kBroadcast: {
      ForestData f = decode_forest(r);
      return std::make_unique<BroadcastProgram>(std::move(f), decode_u64s(r));
    }
    case ProgramId::kKeyedUpcast: {
      ForestData f = decode_forest(r);
      const bool ancestor = r.u32() != 0;
      std::vector<std::vector<KeyedItem>> items(f.parent.size());
      for (auto& xs : items) xs = decode_items(r);
      return std::make_unique<KeyedUpcastProgram>(std::move(f), ancestor, std::move(items));
    }
    case ProgramId::kPipelinedBroadcast: {
      ForestData f = decode_forest(r);
      const auto root = static_cast<VertexId>(r.u32());
      return std::make_unique<PipelinedBroadcastProgram>(std::move(f), root, decode_items(r));
    }
    case ProgramId::kPathDowncast: {
      ForestData f = decode_forest(r);
      std::vector<KeyedItem> own = decode_items(r);
      return std::make_unique<PathDowncastProgram>(std::move(f), std::move(own));
    }
    case ProgramId::kEdgeExchange: {
      const auto n = static_cast<int>(r.u32());
      const auto count = r.u32();
      if (count > r.remaining() / 4)
        throw NetError("congest program spec: edge list longer than the message");
      std::vector<EdgeId> edges(count);
      for (auto& e : edges) e = static_cast<EdgeId>(r.u32());
      std::vector<std::vector<std::uint64_t>> fu(count), fv(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        fu[i] = decode_u64s(r);
        fv[i] = decode_u64s(r);
      }
      return std::make_unique<EdgeExchangeProgram>(n, std::move(edges), std::move(fu),
                                                   std::move(fv));
    }
  }
  throw NetError("congest program registry: unknown program id " + std::to_string(id));
}

}  // namespace deck
