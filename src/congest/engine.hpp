#pragma once

// Pluggable CONGEST execution engine.
//
// A primitive is expressed as a VertexProgram: per-vertex state plus a
// synchronous step function. Each round, every awake vertex reads the
// messages delivered over its incident edges (sent by its neighbors in the
// previous round), updates its own state, and may send at most one Packet
// per incident edge. An Engine drives the program to quiescence — the first
// round in which no vertex sends ends the execution — and reports the exact
// number of rounds and messages that moved, which the Network charges.
//
// Determinism contract (the engine-identity property): a vertex's inbox is
// ordered by its adjacency slot of the arriving edge, each directed edge
// carries at most one packet per round, and step(v) may only touch v's own
// state. Under that contract every backend produces bit-identical program
// outputs and counters:
//   * seq               — single-threaded in-process execution, the
//     reference every other backend is checked against.
//   * DistributedEngine — vertex ranges owned by worker processes over
//     src/net/Transport (see congest/distributed_engine.hpp).
//
// An EngineHub is the backend factory shared by a pipeline: algorithms that
// build internal sub-Networks (thurimella, kecss levels, tap fragment
// forcing) create their engines through the parent Network's hub, so one
// `--engine` choice rides through every layer.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace deck {

/// One CONGEST message in flight: an O(log n)-bit word triple plus a small
/// program-defined tag (flood / item / end-of-stream ...).
struct Packet {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint8_t tag = 0;

  friend bool operator==(const Packet&, const Packet&) = default;
};

/// One delivered message: the sending neighbor, the edge it arrived on, and
/// the payload. Inboxes are ordered by the receiver's adjacency slot.
struct Delivery {
  VertexId from = kNoVertex;
  EdgeId edge = kNoEdge;
  Packet msg;
};

/// Per-step send interface handed to VertexProgram::step. Bound to the
/// stepping vertex: sends are validated against its incident edges.
class Outbox {
 public:
  virtual ~Outbox() = default;

  /// Ships `msg` over edge `e` to the far endpoint `to` this round. At most
  /// one send per incident edge per round; `e` must join the stepping vertex
  /// to `to`.
  virtual void send(VertexId to, EdgeId e, const Packet& msg) = 0;

  /// Requests a step next round even if no message arrives (pipelines that
  /// emit on consecutive rounds without inbound traffic).
  virtual void stay_awake() = 0;
};

/// A synchronous per-vertex message-passing program. State lives inside the
/// program object as per-vertex slots; step(v) may read shared immutable
/// inputs but write only v's slots (the net backend keeps each vertex's slots
/// on the one worker that owns it). Programs must be send-continuous: once
/// no vertex sends in a round, none may ever send again — the engine treats
/// the first silent round as termination.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Wire identifier for the distributed backend's program registry.
  virtual std::uint32_t program_id() const = 0;

  /// One-time local precomputation (port maps, children lists) before round
  /// 1. Called by every executor with the graph it runs on.
  virtual void setup(const Graph& g) = 0;

  /// Whether v takes a step in round 1 unprompted.
  virtual bool starts_active(VertexId v) const = 0;

  /// One synchronous step of v at `round` (1-based): `inbox` holds the
  /// messages sent to v in the previous round, ordered by v's adjacency
  /// slot.
  virtual void step(VertexId v, int round, std::span<const Delivery> inbox, Outbox& out) = 0;

  /// Post-quiescence hook for the vertex range an executor owns (invariant
  /// checks, output finalization). Default: nothing.
  virtual void finish_range(VertexId begin, VertexId end);

  /// Serializes the full program input (all vertices) for shipping to
  /// workers.
  virtual void encode_spec(std::vector<std::uint8_t>& out) const = 0;

  /// Serializes the per-vertex outputs for [begin, end) (worker side).
  virtual void encode_outputs(VertexId begin, VertexId end,
                              std::vector<std::uint8_t>& out) const = 0;

  /// Absorbs the per-vertex outputs for [begin, end) shipped by a worker
  /// (coordinator side). `bytes` is exactly one encode_outputs payload.
  virtual void decode_outputs(VertexId begin, VertexId end,
                              std::span<const std::uint8_t> bytes) = 0;

  /// Serializes the *mutable* per-vertex execution state for [begin, end) —
  /// everything step() writes, nothing setup() derives from the spec. The
  /// checkpoint/restore path of the distributed engine requires
  /// decode_state(encode_state(...)) on a freshly setup() program to
  /// reproduce the exact mid-phase state, byte for byte and independent of
  /// container iteration order. Default: no mutable state (stateless range).
  virtual void encode_state(VertexId begin, VertexId end, std::vector<std::uint8_t>& out) const;

  /// Restores the state encode_state captured for [begin, end) into this
  /// program (which must have completed setup() on the same graph/spec).
  virtual void decode_state(VertexId begin, VertexId end, std::span<const std::uint8_t> bytes);
};

/// Exact execution cost of one program run.
struct ExecStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

/// One execution backend bound to one graph.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Backend name: "seq" or "net".
  virtual std::string name() const = 0;

  /// Runs `prog` to quiescence; program outputs are left inside `prog`.
  virtual ExecStats execute(VertexProgram& prog) = 0;
};

/// Backend factory shared across the Networks of one pipeline run.
class EngineHub {
 public:
  virtual ~EngineHub() = default;

  virtual std::string name() const = 0;

  /// Creates an engine bound to `g`. The graph must outlive the engine.
  virtual std::unique_ptr<Engine> engine_for(const Graph& g) = 0;

  /// Single-threaded exact simulation (the default everywhere).
  static std::shared_ptr<EngineHub> sequential();
};

namespace detail {

/// Shared BSP execution core: steps the owned vertex range [lo, hi) of one
/// graph round by round. The seq engine owns the whole range and keeps one
/// runner for every execution on its graph; the distributed worker owns a
/// slice and exchanges boundary messages through the hooks below.
///
/// Mailboxes are receiver-contiguous: position off_[v] + i holds what
/// arrives at v over its i-th adjacency slot, and in_pos_[2e + dir] maps a
/// directed edge to that position (built once per runner). Reading an inbox
/// is one contiguous stamp scan paired with g.neighbors(v), already in the
/// adjacency order the determinism contract asks for. Two buffers alternate
/// by round parity; a position is live iff its stamp equals base_ + the
/// sending round, so a new execution starts by moving base_ past every stamp
/// the last one wrote instead of clearing or reallocating the mailboxes
/// (the stamps are refilled once base_ nears int32 overflow).
///
/// Wakes are deduplicated at the source: only a flag going 0 -> 1 records
/// the vertex. Each round's schedule is the ascending list of woken ids —
/// the same for every backend and worker count — built by sorting the
/// distinct ids, or by one pass over the flags when a large share of the
/// range woke. Stepping uses member scratch: no heap work per round.
class BspRunner {
 public:
  /// A send whose receiving endpoint lies outside the owned range.
  struct RemoteSend {
    EdgeId edge = kNoEdge;
    std::uint8_t dir = 0;  // 0: u -> v, 1: v -> u
    Packet msg;

    friend bool operator==(const RemoteSend&, const RemoteSend&) = default;
  };

  BspRunner(const Graph& g, VertexId lo, VertexId hi);

  /// Binds the program: setup() plus the round-1 active set.
  void start(VertexProgram& prog);

  /// Binds an already-setup() program without touching its state — the
  /// restore path, where the program was rebuilt from its spec and is about
  /// to absorb a checkpoint (or activate_initial() for a round-0 restore).
  /// Also retires the previous execution on this runner, however it ended:
  /// its wake flags are cleared and its mailbox stamps go stale.
  void attach(VertexProgram& prog);

  /// Marks the round-1 active set (starts_active over [lo, hi)). start() ==
  /// attach() + prog.setup() + activate_initial().
  void activate_initial();

  /// Captures the runner-side resume state right after the deliveries of
  /// `round` were applied: the vertices awake for round + 1, and the live
  /// mailbox slots (messages sent in `round` into [lo, hi), not yet read).
  /// Both lists come out deterministically ordered.
  void save_resume(int round, std::vector<VertexId>& awake_out,
                   std::vector<RemoteSend>& pending_out) const;

  /// Reinstates save_resume() state on a fresh runner whose program state
  /// was already restored: after this call run_round(round + 1, ...)
  /// continues the execution exactly where the checkpoint left it.
  void restore_resume(int round, std::span<const VertexId> awake,
                      std::span<const RemoteSend> pending);

  /// Runs one synchronous round over the awake owned vertices. Local sends
  /// are delivered next round; sends leaving the range are appended to
  /// `remote_out` (must be non-null when the range is a strict slice).
  /// Returns the total number of sends, local and remote.
  std::uint64_t run_round(int round, std::vector<RemoteSend>* remote_out);

  /// Applies one boundary message sent in `round` by a remote owner; must be
  /// called after run_round(round, ...) and before run_round(round + 1, ...).
  void deliver_remote(int round, EdgeId e, std::uint8_t dir, const Packet& msg);

  /// Post-quiescence program hook for the owned range.
  void finish();

 private:
  class RoundOutbox;

  const Graph* g_;
  VertexId lo_, hi_;
  VertexProgram* prog_ = nullptr;

  // Receiver-contiguous mailbox layout (see the class comment).
  std::vector<std::int32_t> off_;
  std::vector<std::int32_t> in_pos_;
  std::vector<Packet> box_[2];
  std::vector<std::int32_t> stamp_[2];

  // Epoch stamps: round r of the current execution stamps base_ + r, and
  // high_ is the largest stamp this runner may have written so far.
  std::int32_t base_ = 0;
  std::int32_t high_ = -1;

  // awake_[v] != 0: v steps next round, and then v is in woken_ exactly
  // once.
  std::vector<std::uint8_t> awake_;
  std::vector<VertexId> woken_;
  std::vector<VertexId> active_;
  std::vector<Delivery> inbox_;  // stepping scratch

  /// Marks v awake, recording it in woken_ only on the flag's 0 -> 1 edge.
  void wake(VertexId v);

  /// Moves this round's schedule out of woken_ into active_ (ascending,
  /// flags cleared).
  void collect_candidates();
};

}  // namespace detail

}  // namespace deck
