#pragma once

// Spanning-forest recovery from linear sketches (Ahn–Guha–McGregor) and
// k-edge-disjoint forest peeling — a *streaming* Thurimella sparse
// certificate (ecss/thurimella.hpp) computed from insert/delete streams.
//
// Every vertex keeps ℓ₀ sketches of its signed edge-incidence vector: edge
// {u,v} with u < v contributes +1 at index enc(u,v) to u's vector and -1 to
// v's. Summing member sketches over a supernode therefore cancels internal
// edges and exposes exactly the cut, so Borůvka runs on sketches alone:
// each round, every component samples one cut edge and components merge.
// Sampling consumes randomness, so each vertex holds a fresh sketch *copy*
// per Borůvka round; k_spanning_forests rotates through k groups of copies
// (the Landscape repo's supernode-cycling trick). Later forests must sketch
// G minus the forests already peeled. Recovery never writes a bucket to get
// there: each round buckets the earlier forests' edges by the supernodes of
// their endpoints and subtracts each crossing edge from its two supernode
// aggregates before sampling (an edge inside one supernode cancels in the
// sum and is skipped). By linearity that is bit-identical to deleting the
// edges from every still-unused copy, and it leaves the bank read-only — a
// live bank (serve/session.hpp) answers any number of queries in place.
//
// Recovery parallelizes over supernodes (RecoveryOptions::threads): each
// Borůvka round partitions the per-supernode aggregation + sampling work
// across a thread pool. Bucket merging is wrapping integer addition —
// associative and commutative — and supernode samples are reduced into the
// contraction forest sequentially in deterministic slot order, so the
// recovered forests are bit-identical to the single-threaded path for any
// thread count.
//
// The union of the k peeled forests is a Thurimella certificate: ≤ k(n-1)
// edges, k-edge-connected whenever the streamed graph is (w.h.p. over the
// sketch seed). A session query (serve/session.hpp: GraphSession::query,
// or the one-call deck::ingest) materializes it as a deck::Graph so the
// CONGEST pipeline (distributed_kecss / distributed_2ecss) runs on the
// O(kn)-edge sparsifier instead of the raw stream.
//
// Sketch sizing is either fixed (SketchOptions::columns / rounds_slack, the
// worst-case budget) or adaptive (SketchOptions::auto_size): the adaptive
// path starts from a deliberately small attempt sizing, observes per-round
// sampler-failure rates during recovery, and on non-convergence geometrically
// grows only the failing dimension — columns when samples failed, rounds
// slack when the round budget ran dry — re-ingesting and retrying *only the
// still-unrecovered forests* (completed forests and the partial forest are
// carried across attempts and peeled from the fresh bank by linearity).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sketch/l0_sampler.hpp"
#include "sketch/stream.hpp"

namespace deck {

class ThreadPool;

/// Adaptive sketch-sizing policy (SketchOptions::auto_size). When enabled,
/// recover_certificate() (behind every session query) ignores the fixed
/// columns/rounds_slack and instead runs an attempt loop: attempt a uses
/// seed split_seed(opt.seed, a) and the current sizing; a failed recovery
/// multiplies the failing dimension by `growth` and retries the forests
/// that did not complete. Every ingest worker of an attempt derives the
/// identical sizing from the policy, so coordinated and local adaptive runs
/// agree.
struct AutoSizePolicy {
  bool enabled = false;
  /// Attempt-0 sizing, deliberately below the worst case.
  int initial_columns = 2;
  int initial_rounds_slack = 1;
  /// Multiplier applied to the failing dimension after a failed attempt.
  int growth = 2;
  /// Attempts before giving up (the last attempt's sizing is
  /// initial * growth^(max_attempts-1) in the grown dimension).
  int max_attempts = 6;

  friend bool operator==(const AutoSizePolicy&, const AutoSizePolicy&) = default;
};

struct SketchOptions {
  std::uint64_t seed = 1;
  /// Forest budget the per-vertex sketch arrays are sized for.
  int max_forests = 1;
  /// Independent ℓ₀ repetitions per sketch copy (failure ~ 2^-columns).
  int columns = 6;
  /// Borůvka rounds beyond ceil(log2 n) budgeted per forest; failed samples
  /// retry on the next round's fresh copies.
  int rounds_slack = 4;
  /// Adaptive sizing policy; disabled by default (fixed sizing above).
  AutoSizePolicy auto_size;
};

/// An undirected edge recovered from a sketch (no id — stream edges have
/// no stable ids until the certificate is materialized).
struct SketchEdge {
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
};

/// Knobs for the recovery (Borůvka-on-sketches) stage.
struct RecoveryOptions {
  /// Worker threads for per-round supernode aggregation + sampling. 1 runs
  /// inline; any value yields bit-identical forests.
  int threads = 1;
  /// Caller-owned pool to run on instead of constructing one per call
  /// (overrides `threads` when set) — how the ingest coordinator shares one
  /// ThreadPool across network receive, chunk assembly, and recovery. The
  /// pool must be otherwise idle for the duration of the call; any pool
  /// size yields bit-identical forests.
  ThreadPool* pool = nullptr;
};

/// Per-Borůvka-round accounting, the signal the adaptive sizing policy acts
/// on ("failure rate" = failures / components for rounds with components).
struct RoundStats {
  int components = 0;  // supernodes sampled this round (cut may be empty)
  int merges = 0;      // successful unions (forest edges added)
  int failures = 0;    // ℓ₀ samples that returned kFail
};

/// Aggregated recovery telemetry across one try_k_spanning_forests() call.
struct RecoveryStats {
  int rounds = 0;               // sketch copies consumed
  long long samples = 0;        // supernode samples drawn
  long long failures = 0;       // of which failed
  bool copies_exhausted = false;  // ran out of copies before converging
  /// Samples/failures within the last forest attempted — the failing one
  /// when !converged. The adaptive policy keys its growth decision on this
  /// forest's failure *rate*, not the attempt-wide totals (early forests'
  /// clean rounds would otherwise drown the signal).
  long long last_forest_samples = 0;
  long long last_forest_failures = 0;
  std::vector<RoundStats> per_round;
};

/// Result of recover_forests() / try_k_spanning_forests(): the recovered
/// forests (the last one partial when !converged), convergence flag, round
/// telemetry, and the copy cursor the recovery ended at. A failed result can
/// be fed back as `prior` to a fresh, larger bank to resume.
struct KForests {
  std::vector<std::vector<SketchEdge>> forests;
  bool converged = true;
  RecoveryStats stats;
  /// Copy cursor after this recovery — what copies_used() reads once a
  /// consuming entry point has run it.
  int copies_used = 0;
};

class SketchConnectivity {
 public:
  SketchConnectivity(int n, const SketchOptions& opt = {});

  /// Sketch copies each vertex holds for (n, opt) — the bank shape formula,
  /// exposed so decoders (sketch_io) can size-check a buffer before
  /// constructing anything.
  static int total_copies_for(int n, const SketchOptions& opt);

  /// Edge multiplicity change: delta = +1 insert, -1 delete. Updates both
  /// endpoint sketch arrays.
  void update(VertexId u, VertexId v, int delta);

  /// Applies a batch of directed halves to src's sketch array only — the
  /// entry point every batched ingest surface (sharded apply, gutter
  /// flushes, net ingest workers) funnels through. Every undirected update
  /// must eventually reach both endpoints. The whole batch is validated and
  /// translated (edge index, sign) before any copy is touched, so a
  /// rejected batch throws with the bank unchanged; the run is then
  /// replayed over each copy with L0Sampler::update_run — bit-identical to
  /// the same halves applied one update() at a time.
  void apply_batch(VertexId src, std::span<const VertexDelta> deltas);

  /// Same vertex count, seed and sketch shape (merge precondition). Copy
  /// seeds are split deterministically from opt.seed (split_seed), so two
  /// banks built anywhere — another thread, another process, a decoded
  /// sketch_io buffer — are compatible iff their (n, options) agree,
  /// auto-sizing policy included.
  bool compatible(const SketchConnectivity& other) const;

  /// Bucket-wise sum of every per-vertex copy: afterwards this bank
  /// sketches the union (signed multiset sum) of both update streams.
  /// Requires compatible() and equal copies_used() — merging is an
  /// ingestion-time operation, performed before recovery consumes copies.
  void merge(const SketchConnectivity& other);

  /// Non-throwing k-forest peel with telemetry, read-only: recovery starts
  /// at copy copies_used(), reads buckets and never writes them, and reports
  /// the cursor it ended at in KForests::copies_used. The consuming
  /// k-forest entry points below run this one. `prior` resumes a failed
  /// recovery on this (fresh — copies_used() == 0) bank: prior's completed
  /// forests are kept verbatim and peeled from every round like this call's
  /// own earlier forests, and recovery continues from the partial forest's
  /// contraction state — only the failing forests pay for the retry. The
  /// bank's max_forests budget must cover k minus the forests prior
  /// completed.
  KForests recover_forests(int k, const RecoveryOptions& ropt = {},
                           const KForests* prior = nullptr) const;

  /// recover_forests(), then advances copies_used() past the copies it
  /// read — the consuming form, for banks that recover once.
  KForests try_k_spanning_forests(int k, const RecoveryOptions& ropt = {},
                                  const KForests* prior = nullptr);

  /// Peels k edge-disjoint spanning forests F_1..F_k, F_i a maximal
  /// spanning forest of G \ (F_1 ∪ … ∪ F_{i-1}). Requires k <= max_forests.
  /// Consuming; throws on non-convergence.
  std::vector<std::vector<SketchEdge>> k_spanning_forests(int k, const RecoveryOptions& ropt = {});

  /// Recovers a maximal spanning forest of the currently-sketched graph
  /// (Borůvka on sketches), one sketch copy per round. Consuming; throws on
  /// non-convergence.
  std::vector<SketchEdge> spanning_forest(const RecoveryOptions& ropt = {});

  int num_vertices() const { return n_; }
  const SketchOptions& options() const { return opt_; }
  int copies_used() const { return cursor_; }
  int copies_total() const { return static_cast<int>(sketches_.empty() ? 0 : sketches_[0].size()); }

 private:
  friend struct SketchIoAccess;  // sketch_io.cpp: raw bucket encode/decode
  std::uint64_t encode(VertexId lo, VertexId hi) const;
  SketchEdge decode(std::uint64_t index) const;

  /// One maximal-forest Borůvka run over up to copies_per_forest_ copies
  /// starting at `cursor`, which it advances. `forest`'s existing edges (a
  /// resumed partial forest; empty to start from singletons) seed the
  /// contraction state; recovered edges are appended after them and
  /// telemetry to `stats`. `peeled` holds the earlier forests' edges, which
  /// every round subtracts from its supernode aggregates. Returns
  /// convergence. `pool` is null for the inline single-thread path.
  bool grow_forest(std::vector<SketchEdge>& forest, std::span<const SketchEdge> peeled,
                   int& cursor, ThreadPool* pool, RecoveryStats& stats) const;

  int n_ = 0;
  SketchOptions opt_;
  int copies_per_forest_ = 0;
  int cursor_ = 0;  // next unused copy index; only the consuming entry points move it
  std::vector<std::vector<L0Sampler>> sketches_;  // [vertex][copy]
};

/// What a certificate query returns (recover_certificate, behind
/// GraphSession::query and deck::ingest): the k peeled forests and their
/// union materialized as a unit-weight deck::Graph on the same vertex set —
/// ready to wrap in a Network and feed to the CONGEST algorithms.
struct SparsifyResult {
  Graph certificate;
  std::vector<std::vector<SketchEdge>> forests;
  int copies_used = 0;
  /// Ingest→recover attempts (1 unless auto-sizing retried).
  int attempts = 1;
  /// Sizing of the attempt that converged (== opt's fixed sizing when
  /// auto-sizing is off).
  int columns_used = 0;
  int rounds_slack_used = 0;
  /// Telemetry of the final attempt's recovery.
  RecoveryStats stats;
};

/// Shared ingest→recover driver behind every session query: `ingest`
/// yields a filled bank for one attempt's options (the adaptive loop calls
/// it once per attempt with geometrically grown sizing and a
/// split_seed-derived attempt seed). Recovery only reads the bank, so the
/// source may hand out a live bank it keeps ingesting into afterwards; a
/// freshly built bank goes into storage the source owns, and the reference
/// must stay valid until the next call.
SparsifyResult recover_certificate(
    int k, const SketchOptions& opt, const RecoveryOptions& ropt,
    const std::function<const SketchConnectivity&(const SketchOptions&)>& ingest);

}  // namespace deck
