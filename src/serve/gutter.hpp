#pragma once

// Write-optimized guttering stage between a live update feed and the ℓ₀
// sketch banks — the GutteringSystem/WorkDistributor buffering pattern of
// the streaming-CC systems, adapted to deck's per-vertex sketch arrays.
//
// Applying one update touches every copy of both endpoints' sketch arrays —
// for a random stream that is two cold column passes per update. The
// guttering stage buffers each *directed half* in a gutter keyed by its
// source vertex's range and flushes a gutter as one sorted batch: halves
// are grouped into per-source runs and handed to the applier — normally
// SketchConnectivity::apply_batch on the live bank (GraphSession), so all
// of a vertex's buffered deltas walk its sketch array once while it is
// cache-resident.
//
// Flush policy is size and/or age driven (FlushPolicy): a gutter flushes
// when it holds max_halves buffered halves, or when its oldest half is
// max_age pushes old (aging is checked round-robin, one gutter per push, so
// an age flush may trail the deadline by up to num_gutters pushes — an
// amortization knob, not a correctness one). drain() flushes everything,
// fanning independent gutters out over a ThreadPool when one is lent:
// gutters cover disjoint source-vertex ranges, so parallel flushes write
// disjoint slices of the bank. A lent pool's drains are the one sharded
// ingest path of a GraphSession (IngestOptions::gutter.pool).
//
// Correctness never depends on the policy: sketch linearity makes any
// regrouping of updates merge to the bit-identical bank a direct in-order
// applier would build, for every gutter count, policy, and flush schedule.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "sketch/stream.hpp"

namespace deck {

class ThreadPool;

/// When a gutter spills. Defaults flush on size only; age 0 disables the
/// age trigger (a gutter then spills only on size or drain()).
struct FlushPolicy {
  /// Buffered directed halves that force a gutter to flush.
  std::size_t max_halves = 1024;
  /// Pushes after which a gutter's oldest buffered half forces a flush
  /// (0 = no age trigger). Bounds the staleness of the live bank between
  /// drains without requiring a clock.
  std::size_t max_age = 0;

  friend bool operator==(const FlushPolicy&, const FlushPolicy&) = default;
};

struct GutterOptions {
  /// Source-vertex ranges the gutters partition [0, n) into. 0 derives one
  /// gutter per flush worker (4 per pool thread, clamped to [1, n]) so
  /// drain() keeps the pool busy.
  int num_gutters = 0;
  FlushPolicy policy{};
  /// Pool drain() fans gutter flushes out on (disjoint vertex ranges, so no
  /// synchronization is needed). Null flushes inline. Push-triggered
  /// flushes always run inline on the pushing thread — they are the
  /// cache-resident column pass the stage exists for.
  ThreadPool* pool = nullptr;
};

/// Flush accounting, by trigger.
struct GutterStats {
  std::uint64_t halves_buffered = 0;  // directed halves pushed in
  std::uint64_t flushes = 0;          // gutter spills, all triggers
  std::uint64_t size_flushes = 0;
  std::uint64_t age_flushes = 0;
  std::uint64_t drain_flushes = 0;
  std::uint64_t flushed_halves = 0;  // halves delivered to the applier
};

class GutteringSystem {
 public:
  /// Applies one per-source run of deltas to the sink (normally
  /// SketchConnectivity::apply_batch on the live bank).
  using Applier = std::function<void(VertexId, std::span<const VertexDelta>)>;

  GutteringSystem(int n, const GutterOptions& opt, Applier apply);

  /// Buffers both directed halves of the undirected update {u, v} (delta
  /// +1 insert / -1 delete), spilling any gutter its policy triggers.
  void push(VertexId u, VertexId v, int delta);

  /// Flushes every non-empty gutter (on the lent pool when present). After
  /// drain() the applier has seen every pushed half exactly once.
  void drain();

  int num_gutters() const { return static_cast<int>(gutters_.size()); }

  /// Gutter owning source vertex `src`.
  int gutter_of(VertexId src) const;

  /// Directed halves currently buffered across all gutters.
  std::size_t pending_halves() const { return pending_; }

  const GutterStats& stats() const { return stats_; }

 private:
  struct Half {
    VertexId src = kNoVertex;
    VertexDelta delta;
  };
  struct Gutter {
    std::vector<Half> halves;
    std::uint64_t oldest_tick = 0;  // push tick of halves.front()
  };

  void buffer_half(VertexId src, VertexId dst, int delta);
  /// Takes gutter g's buffered halves and updates the (unsynchronized)
  /// accounting — always runs on the pushing/draining thread.
  std::vector<Half> extract(int g);
  /// Sorts extracted halves into per-source runs and applies them. Safe to
  /// run concurrently for halves from different gutters (disjoint sources).
  void apply_sorted(std::vector<Half> halves) const;
  void flush(int g);

  int n_ = 0;
  GutterOptions opt_;
  Applier apply_;
  std::vector<Gutter> gutters_;
  std::size_t pending_ = 0;
  std::uint64_t tick_ = 0;  // pushes so far, the age clock
  int age_scan_ = 0;        // next gutter the round-robin age check visits
  GutterStats stats_;
};

}  // namespace deck
