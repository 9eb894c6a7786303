#pragma once

// GraphSession — the long-lived session facade over the streaming
// sparsification pipeline, and the one way to build a Thurimella
// certificate from an update stream (deck::ingest() below is its one-call
// form: open, bulk-ingest, query once, close).
//
// Lifecycle: open → insert/delete (or bulk ingest) → query(k) → resume →
// close. Updates land in a write-optimized guttering stage
// (serve/gutter.hpp) feeding a *live* ℓ₀ sketch bank; a query is
// pause/flush/recover/resume: drain the gutters and run forest recovery
// straight on the live bank. Recovery is a read-only pass over the bank
// (SketchConnectivity::recover_forests) — no bucket is written and no copy
// is consumed — so there is nothing to clone: ingest continues where it
// left off and the next query folds only the deltas that arrived since
// (banks are not rebuilt).
//
// Bit-identity contract: query() at any point returns exactly what
// recover_certificate over a per-update bank of the stream ingested so far
// returns — for every gutter flush policy, gutter count, drain pool, and
// recovery thread count, and for a coordinated session at any worker
// count. Two ingredients make that a theorem rather than a test hope:
// sketch linearity (any regrouping of updates sums to the same bank) and
// deterministic recovery (forests are a function of bank bytes alone).
// Adaptive sizing holds the live bank at the attempt-0 sizing; attempt 0 of
// a query reads it in place, and only the rare grown attempts replay the
// retained stream through GraphStream::updates_since.
//
// Two kinds of session:
//   local        — IngestOptions::workers empty (the default). Gutters
//                  flush inline on the session thread; a caller that lends
//                  gutter.pool gets parallel drains, the one sharded ingest
//                  path: gutters own disjoint source-vertex ranges, so
//                  parallel flushes write disjoint slices of the bank.
//   coordinated  — IngestOptions::workers non-empty. Queries drive the
//                  multi-process worker protocol of net/ingest.hpp (workers
//                  hold their own stream slices); per-update ingest is not
//                  available, and the session owns the coordinator pool.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/ingest.hpp"
#include "serve/gutter.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"

namespace deck {

/// Everything that shapes a session, in one bag. Defaults open a local
/// session with inline gutter flushes.
struct IngestOptions {
  SketchOptions sketch{};
  RecoveryOptions recovery{};
  /// Gutter layout, flush policy, and the drain pool a local session
  /// borrows (gutter.pool: caller-owned and otherwise idle during drains;
  /// any pool size builds the bit-identical bank). Unused when coordinated.
  GutterOptions gutter{};
  /// Connected worker transports (each running run_ingest_worker). A
  /// session is coordinated exactly when this is non-empty.
  std::vector<Transport*> workers{};
  IngestCoordinatorOptions coordinator{};
};

/// Session-lifetime accounting, including the gutter stage's.
struct SessionStats {
  std::uint64_t updates = 0;  // undirected updates ingested (gutters included)
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t queries = 0;
  /// Query attempts answered from the live bank in place vs by
  /// re-ingesting the retained stream (adaptive growth attempts, or a query
  /// for k other than the session's).
  std::uint64_t bank_reuses = 0;
  std::uint64_t bank_replays = 0;
  GutterStats gutter;
};

class GraphSession {
 public:
  /// Opens a session over an empty n-vertex graph serving k-certificate
  /// queries. The live bank is sized for (opt.sketch, k) — queries for the
  /// session k recover from it in place; other k's fall back to a stream
  /// replay.
  GraphSession(int n, int k, IngestOptions opt = {});

  /// Named constructor, for symmetry with the open/…/close lifecycle.
  static GraphSession open(int n, int k, IngestOptions opt = {}) {
    return GraphSession(n, k, opt);
  }

  /// Closes on destruction (best-effort: coordinated worker shutdown
  /// faults are swallowed — call close() to observe them).
  ~GraphSession();

  GraphSession(const GraphSession&) = delete;
  GraphSession& operator=(const GraphSession&) = delete;

  /// Appends one edge update. Validated like GraphStream (inserting a live
  /// edge or deleting an absent one throws); buffered in the gutters, not
  /// yet in the live bank. Unavailable in a coordinated session.
  void insert(VertexId u, VertexId v);
  void erase(VertexId u, VertexId v);
  void apply(const StreamUpdate& u);

  /// Bulk ingest: appends every update of `s` (same vertex count) in
  /// order, as if replayed through insert()/erase().
  void ingest(const GraphStream& s);

  /// Pause/flush/recover/resume: drains the gutters into the live bank,
  /// recovers a k-forest Thurimella certificate by reading it in place, and
  /// leaves the session ready for more updates. Bit-identical to a fresh
  /// session that ingested the same stream in one go.
  /// query() uses the session k (the live bank's shape); query(k) for any
  /// other k replays the retained stream into a temporary bank instead.
  SparsifyResult query();
  SparsifyResult query(int k);

  /// Drains the gutters without querying — bounds live-bank staleness.
  void flush();

  /// Ends the session: drains gutters, and in a coordinated session sends
  /// the workers Shutdown (throwing on transport faults). Idempotent; every
  /// other member except stats() throws once closed.
  void close();
  bool closed() const { return closed_; }

  int num_vertices() const { return n_; }
  int k() const { return k_; }
  const IngestOptions& options() const { return opt_; }
  /// Whether queries drive remote ingest workers (options().workers set).
  bool coordinated() const { return !opt_.workers.empty(); }

  /// The retained update history (ground truth for verification, and the
  /// replay source for query attempts the live bank cannot answer). Empty
  /// in a coordinated session, where the workers own the stream.
  const GraphStream& stream() const { return stream_; }

  /// Undirected updates buffered in the gutters, not yet in the live bank.
  std::size_t pending_updates() const;

  SessionStats stats() const;

 private:
  void check_open() const;
  void check_local(const char* what) const;
  /// The sizing the live bank is held at — recover_certificate's attempt-0
  /// options, so the first attempt of every query reads the live bank,
  /// never a replay.
  SketchOptions live_bank_options() const;
  /// recover_certificate's bank source: the live bank itself when `aopt`
  /// matches its shape, else a replay of the retained stream built in
  /// `replay` (caller-owned, so the reference outlives the call).
  const SketchConnectivity& attempt_bank(const SketchOptions& aopt,
                                         std::optional<SketchConnectivity>& replay);
  SparsifyResult query_local(int k);
  SparsifyResult query_coordinated(int k);

  int n_ = 0;
  int k_ = 0;
  IngestOptions opt_;
  bool closed_ = false;
  GraphStream stream_;
  std::size_t folded_ = 0;  // stream_ updates already pushed into gutters
  std::optional<SketchConnectivity> bank_;  // live bank (local sessions)
  std::optional<GutteringSystem> gutters_;
  std::unique_ptr<ThreadPool> coordinator_pool_;  // coordinated sessions
  bool roster_validated_ = false;                 // coordinated: Hellos consumed
  SessionStats stats_;
};

/// ingest() — the one-call form of a local session: opens one with `opt`,
/// bulk-ingests `stream`, queries once, and closes. A coordinated session
/// reads the workers' streams, so it needs a GraphSession of its own.
SparsifyResult ingest(const GraphStream& stream, int k, const IngestOptions& opt);

}  // namespace deck
