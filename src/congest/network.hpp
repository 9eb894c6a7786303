#pragma once

// CONGEST model simulator core.
//
// The model (paper §1.3): the input graph *is* the communication network;
// computation proceeds in synchronous rounds; per round, each vertex may send
// one B-bit message over each incident edge, B = O(log n). Local computation
// is free. We fix the message budget at a few 64-bit payload words (ids +
// weight fit comfortably; weights are polynomial in n).
//
// Architecture: algorithms are decomposed into *primitives* (flooding,
// convergecast, pipelined keyed upcast, path downcast, per-edge exchange —
// see primitives.hpp), each a genuine per-vertex message-passing program
// executed on a pluggable Engine (engine.hpp): sequential exact simulation,
// or vertex ranges owned by worker processes over src/net/Transport. Phase sequencing between primitives is
// orchestrated by the algorithm driver (free, like local computation), but
// data only ever moves along edges inside primitive executions, so round and
// message counts equal those of a real execution — and are bit-identical
// across backends.
//
// Per-phase counters support the round-breakdown experiment (A2).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "congest/engine.hpp"
#include "graph/graph.hpp"
#include "obs/trace.hpp"

namespace deck {

class Network {
 public:
  /// Sequential engine (exact synchronous simulation) — the default that
  /// every seed call site keeps using unchanged.
  explicit Network(const Graph& g);

  /// Execution backend chosen by the caller: EngineHub::sequential() or
  /// make_distributed_hub(...). Algorithms that
  /// build internal sub-Networks construct them with this hub so the choice
  /// rides through every layer.
  Network(const Graph& g, std::shared_ptr<EngineHub> hub);

  const Graph& graph() const { return *g_; }
  int n() const { return g_->num_vertices(); }

  /// The hub this network's engines come from (never null).
  const std::shared_ptr<EngineHub>& hub() const { return hub_; }

  /// The engine bound to this network's graph, created lazily on first use
  /// (a distributed hub ships the graph to its workers at that point).
  Engine& engine();

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t messages() const { return messages_; }

  /// Charges exactly-simulated cost (called by primitives).
  void charge(std::uint64_t rounds, std::uint64_t messages);

  /// Begins a named accounting phase; subsequent charges accrue to it. The
  /// previous phase (if any) is closed: its wall clock stops and its trace
  /// span (when tracing) is emitted.
  void begin_phase(const std::string& name);

  /// Closes the currently open phase without starting a new one. Safe to
  /// call when no phase is open. phases() entries only carry a final
  /// wall_ns once closed, so readers of the timing column call this first.
  void end_phase();

  struct PhaseStat {
    std::string name;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    /// Wall-clock duration via the obs clock (obs::now_ns), 0 while the
    /// phase is still open. Model costs stay in rounds/messages — wall_ns
    /// is host-side telemetry and never feeds the simulation.
    std::uint64_t wall_ns = 0;
  };
  const std::vector<PhaseStat>& phases() const { return phases_; }

  /// Resets counters and phases (graph and engine unchanged).
  void reset_counters();

 private:
  const Graph* g_;
  std::shared_ptr<EngineHub> hub_;
  std::unique_ptr<Engine> engine_;
  std::uint64_t rounds_ = 0;
  std::uint64_t messages_ = 0;
  std::vector<PhaseStat> phases_;
  std::uint64_t phase_start_ns_ = 0;
  bool phase_open_ = false;
  // Open-phase trace span. All phases parent under the context that was
  // current at the *first* begin_phase (siblings on one timeline), not under
  // each other; the span name must outlive the span, hence the copy.
  std::string phase_span_name_;
  std::unique_ptr<obs::Span> phase_span_;
  bool have_phase_parent_ = false;
  obs::TraceContext phase_parent_;
};

}  // namespace deck
