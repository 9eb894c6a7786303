#pragma once

// The CONGEST primitives as genuine per-vertex send/receive programs.
//
// Each class below is the VertexProgram behind one primitive in
// primitives.hpp: per-vertex state, a synchronous step, and the wire codecs
// the DistributedEngine needs to ship inputs to workers and collect outputs
// back. The thin wrappers in primitives.cpp construct these, run them on the
// Network's engine, and charge the observed rounds/messages — the closed
// forms the seed charged are now *verified* against an actual execution
// instead of asserted on paper.
//
// Program-object discipline: inputs are set on construction (or decoded from
// a spec), outputs are materialized by finish_range() on whichever executor
// owns the vertices (the seq engine owns all of them; distributed workers own
// a slice and ship encode_outputs(), which decode_outputs() absorbs on the
// coordinator). After Engine::execute returns, outputs are complete either
// way.

#include <cstdint>
#include <map>
#include <memory_resource>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "congest/engine.hpp"
#include "congest/primitives.hpp"

namespace deck {

/// Stable wire ids for the distributed program registry.
enum class ProgramId : std::uint32_t {
  kBfs = 1,
  kConvergecast = 2,
  kBroadcast = 3,
  kKeyedUpcast = 4,
  kPipelinedBroadcast = 5,
  kPathDowncast = 6,
  kEdgeExchange = 7,
};

/// Forest topology as shipped to workers: parent + forest-local depth per
/// vertex (children and parent ports are derived locally in setup()).
struct ForestData {
  std::vector<VertexId> parent;
  std::vector<int> depth;

  static ForestData from_comm_forest(const CommForest& f) { return {f.parent, f.depth}; }
  int height() const;
  void encode(std::vector<std::uint8_t>& out) const;
};

/// Children lists in CSR form: the children of v are
/// list[off[v] .. off[v + 1]), ascending by vertex id. Two flat arrays, so
/// building them costs the same few allocations at any n.
struct ChildLists {
  std::vector<std::int32_t> off;
  std::vector<VertexId> list;

  std::span<const VertexId> of(VertexId v) const {
    const auto sv = static_cast<std::size_t>(v);
    return {list.data() + off[sv], list.data() + off[sv + 1]};
  }
};

/// Shared derived topology: children lists, the graph edge joining each
/// non-root to its parent (forest edges must be graph edges — the engine
/// only moves data along real edges), and the global height. setup()
/// rejects a spec that does not fit the graph with NetError.
class ForestProgramBase : public VertexProgram {
 public:
  explicit ForestProgramBase(ForestData f) : f_(std::move(f)) {}

  void setup(const Graph& g) override;

 protected:
  int n() const { return static_cast<int>(f_.parent.size()); }
  bool is_root(VertexId v) const { return f_.parent[static_cast<std::size_t>(v)] == kNoVertex; }
  VertexId parent(VertexId v) const { return f_.parent[static_cast<std::size_t>(v)]; }
  int depth(VertexId v) const { return f_.depth[static_cast<std::size_t>(v)]; }
  EdgeId parent_port(VertexId v) const { return parent_port_[static_cast<std::size_t>(v)]; }
  std::span<const VertexId> kids(VertexId v) const { return children_.of(v); }
  /// Sends `msg` to every child of v (the child's parent port is the edge).
  void send_down(VertexId v, const Packet& msg, Outbox& out) const;

  ForestData f_;
  int height_ = 0;

 private:
  std::vector<EdgeId> parent_port_;
  ChildLists children_;
};

// ---------------------------------------------------------------------------

/// Flood from a root: every vertex joins at its BFS depth, adopting the
/// smallest announcing neighbor as parent, and announces once itself.
class BfsProgram final : public VertexProgram {
 public:
  BfsProgram(int n, VertexId root);

  std::uint32_t program_id() const override { return static_cast<std::uint32_t>(ProgramId::kBfs); }
  void setup(const Graph& g) override;
  bool starts_active(VertexId v) const override { return v == root_; }
  void step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) override;
  void finish_range(VertexId begin, VertexId end) override;
  void encode_spec(std::vector<std::uint8_t>& out) const override;
  void encode_outputs(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_outputs(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;
  void encode_state(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;

  /// Sized by setup().
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;

 private:
  int n_;
  VertexId root_;
  const Graph* g_ = nullptr;
  std::vector<std::uint8_t> joined_;
};

/// Upward aggregation: vertex at depth d sends its combined subtree value at
/// round height - d + 1, so parents hold complete child values when they
/// fire. One message per non-root, height rounds.
class ConvergecastProgram final : public ForestProgramBase {
 public:
  ConvergecastProgram(ForestData f, CombineOp op, std::vector<std::uint64_t> value);

  std::uint32_t program_id() const override {
    return static_cast<std::uint32_t>(ProgramId::kConvergecast);
  }
  void setup(const Graph& g) override;
  bool starts_active(VertexId v) const override { return !is_root(v); }
  void step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) override;
  void encode_spec(std::vector<std::uint8_t>& out) const override;
  void encode_outputs(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_outputs(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;
  void encode_state(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;

  std::vector<std::uint64_t> value;

 private:
  CombineOp op_;
};

/// Downward value flood along forest edges: depth-d vertices receive at
/// round d. Height rounds, one message per non-root.
class BroadcastProgram final : public ForestProgramBase {
 public:
  BroadcastProgram(ForestData f, std::vector<std::uint64_t> value);

  std::uint32_t program_id() const override {
    return static_cast<std::uint32_t>(ProgramId::kBroadcast);
  }
  bool starts_active(VertexId v) const override { return is_root(v) && !kids(v).empty(); }
  void step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) override;
  void encode_spec(std::vector<std::uint8_t>& out) const override;
  void encode_outputs(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_outputs(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;
  void encode_state(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;

  std::vector<std::uint64_t> value;
};

/// Pipelined keyed-min upcast (primitives.hpp header comment): per round a
/// vertex may push one (key, prio, payload) message or an end-of-stream
/// marker to its parent; keys flow in ascending order, and a key is only
/// forwarded once every child stream has advanced past it, so forwarded
/// values are final for the subtree. `ancestor_mode` caps emission at keys
/// below depth - 1 (ancestor_min_merge); otherwise everything flows to the
/// roots.
///
/// Note on round counts vs the pre-engine simulation: the old central
/// dirty-list loop could process a vertex twice in one round (once as an
/// emitter, once as a parent of an emitter), letting it push two messages
/// per round over its parent edge — an undercount no real CONGEST execution
/// can match. The engine enforces one message per directed edge per round,
/// so upcast-heavy pipelines now report a few percent more rounds; message
/// counts are unchanged.
class KeyedUpcastProgram final : public ForestProgramBase {
 public:
  KeyedUpcastProgram(ForestData f, bool ancestor_mode, std::vector<std::vector<KeyedItem>> items);

  std::uint32_t program_id() const override {
    return static_cast<std::uint32_t>(ProgramId::kKeyedUpcast);
  }
  void setup(const Graph& g) override;
  bool starts_active(VertexId) const override { return true; }
  void step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) override;
  void finish_range(VertexId begin, VertexId end) override;
  void encode_spec(std::vector<std::uint8_t>& out) const override;
  void encode_outputs(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_outputs(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;
  void encode_state(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;

  /// Items the vertex finalized (complete after execute): min per key over
  /// its subtree for keys it does not emit upward.
  std::vector<std::vector<KeyedItem>> finalized;

 private:
  struct ItemValue {
    std::uint64_t prio;
    std::uint64_t payload;
  };
  std::uint64_t emit_below(VertexId v) const;
  void merge_in(VertexId v, std::uint64_t key, std::uint64_t prio, std::uint64_t payload);

  bool ancestor_mode_;
  std::vector<std::vector<KeyedItem>> items_;  // inputs (consumed by setup)
  // Node storage of the per-vertex pending maps and frontier multisets. A
  // node freed by one message is reused by the next, so merging and
  // frontier updates do not reach the global heap per message.
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::vector<std::pmr::map<std::uint64_t, ItemValue>> pending_{&pool_};
  std::pmr::vector<std::pmr::multiset<std::int64_t>> frontiers_{&pool_};
  // Indexed by child id (every vertex has one parent): the last key child c
  // streamed, and whether c's stream is still open.
  std::vector<std::int64_t> child_front_;
  std::vector<std::uint8_t> child_live_;
  std::vector<int> live_children_;
  std::vector<std::uint8_t> eos_sent_;
};

/// Root list streamed down a single-root tree, one item per round per edge,
/// with an end-of-stream marker wave behind the last item so every vertex
/// learns the stream ended. The list is part of the spec every executor
/// holds, so vertices keep no copy: each counts its arrivals and checks every
/// arriving item against list()[count]. After execute, count[v] == the list
/// length at every vertex of the root's tree (the root included).
class PipelinedBroadcastProgram final : public ForestProgramBase {
 public:
  PipelinedBroadcastProgram(ForestData f, VertexId root, std::vector<KeyedItem> list);

  std::uint32_t program_id() const override {
    return static_cast<std::uint32_t>(ProgramId::kPipelinedBroadcast);
  }
  void setup(const Graph& g) override;
  bool starts_active(VertexId v) const override { return v == root_ && !kids(v).empty(); }
  void step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) override;
  void finish_range(VertexId begin, VertexId end) override;
  void encode_spec(std::vector<std::uint8_t>& out) const override;
  void encode_outputs(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_outputs(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;
  void encode_state(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;

  const std::vector<KeyedItem>& list() const { return list_; }

  /// Items each vertex received so far, all checked against the list.
  std::vector<std::uint32_t> count;

 private:
  VertexId root_;
  std::vector<KeyedItem> list_;
};

/// Each non-root vertex streams its own item followed by its ancestor
/// stream to its children: afterwards every vertex holds the items of all
/// edges on its forest root path, ordered from itself upward.
class PathDowncastProgram final : public ForestProgramBase {
 public:
  PathDowncastProgram(ForestData f, std::vector<KeyedItem> own_item);

  std::uint32_t program_id() const override {
    return static_cast<std::uint32_t>(ProgramId::kPathDowncast);
  }
  void setup(const Graph& g) override;
  bool starts_active(VertexId v) const override {
    return !is_root(v) && !contig_kids_.of(v).empty();
  }
  void step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) override;
  void encode_spec(std::vector<std::uint8_t>& out) const override;
  void encode_outputs(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_outputs(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;
  void encode_state(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;

  std::vector<std::vector<KeyedItem>> received;

 private:
  std::vector<KeyedItem> own_;
  // Children in the *same forest tree* (depth(c) == depth(v) + 1): the
  // ancestor stream never crosses a segment boundary even though the parent
  // links do.
  ChildLists contig_kids_;
};

/// Simultaneous payload exchange across selected edges, one word per round
/// per direction.
class EdgeExchangeProgram final : public VertexProgram {
 public:
  EdgeExchangeProgram(int n, std::vector<EdgeId> edges,
                      std::vector<std::vector<std::uint64_t>> from_u,
                      std::vector<std::vector<std::uint64_t>> from_v);

  std::uint32_t program_id() const override {
    return static_cast<std::uint32_t>(ProgramId::kEdgeExchange);
  }
  void setup(const Graph& g) override;
  bool starts_active(VertexId v) const override;
  void step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) override;
  void encode_spec(std::vector<std::uint8_t>& out) const override;
  void encode_outputs(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_outputs(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;
  void encode_state(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const override;
  void decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes) override;

  std::vector<std::vector<std::uint64_t>> at_u;  // what u received (from v)
  std::vector<std::vector<std::uint64_t>> at_v;  // what v received (from u)

 private:
  struct SendSlot {
    std::size_t index;  // into edges_
    EdgeId edge;
    VertexId peer;
  };

  int n_;
  std::vector<EdgeId> edges_;
  std::vector<std::vector<std::uint64_t>> from_u_, from_v_;
  std::vector<std::vector<SendSlot>> send_slots_;          // per vertex
  std::unordered_map<EdgeId, std::size_t> edge_index_;
  const Graph* g_ = nullptr;
};

/// Reconstructs a program from its wire id and encoded spec (worker side of
/// the DistributedEngine). Throws NetError on unknown ids or malformed
/// specs.
std::unique_ptr<VertexProgram> decode_congest_program(std::uint32_t id,
                                                      std::span<const std::uint8_t> spec);

}  // namespace deck
