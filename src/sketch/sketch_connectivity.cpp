#include "sketch/sketch_connectivity.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "graph/union_find.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {

namespace {

int boruvka_rounds_budget(int n, int slack) {
  const unsigned un = n > 1 ? static_cast<unsigned>(n - 1) : 1u;
  return static_cast<int>(std::bit_width(un)) + slack;
}

/// Resolves RecoveryOptions to the pool recovery should fan out on: the
/// caller's pool when one was lent, a fresh one for threads > 1, else null
/// (inline single-threaded path). `owned` keeps a constructed pool alive
/// for the caller's scope.
ThreadPool* recovery_pool(const RecoveryOptions& ropt, std::optional<ThreadPool>& owned) {
  DECK_CHECK(ropt.threads >= 1);
  if (ropt.pool != nullptr) return ropt.pool;
  if (ropt.threads > 1) owned.emplace(ropt.threads);
  return owned ? &*owned : nullptr;
}

/// Shared non-convergence contract of the throwing recovery entry points.
void check_converged(bool converged, bool copies_exhausted) {
  DECK_CHECK_MSG(converged || !copies_exhausted, "sketch copies exhausted — raise max_forests");
  DECK_CHECK_MSG(converged, "ℓ₀ sampling did not converge — raise columns or rounds_slack");
}

/// A contiguous run of one supernode's members, the unit of parallel
/// aggregation work. Supernodes larger than the segment length split into
/// several segments whose partial sums are combined after the join —
/// `partial` indexes the split slot's partial-sum storage, -1 for slots
/// aggregated (and sampled) entirely within one segment.
struct Segment {
  int slot = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  int partial = -1;
};

/// Registered-once handles for the sketch/recovery hot paths. The registry
/// interns by name, so grabbing them through a function-local static costs
/// one guarded load after the first call.
struct SketchMetrics {
  obs::Counter& updates = obs::Registry::global().counter("sketch.updates");
  obs::Counter& samples = obs::Registry::global().counter("recovery.samples");
  obs::Counter& failures = obs::Registry::global().counter("recovery.failures");
  obs::Counter& merges = obs::Registry::global().counter("recovery.merges");
  obs::Counter& rounds = obs::Registry::global().counter("recovery.rounds");
  obs::Counter& attempts = obs::Registry::global().counter("recovery.attempts");
  obs::Gauge& columns = obs::Registry::global().gauge("recovery.columns");
  obs::Gauge& rounds_slack = obs::Registry::global().gauge("recovery.rounds_slack");

  static SketchMetrics& get() {
    static SketchMetrics m;
    return m;
  }
};

}  // namespace

int SketchConnectivity::total_copies_for(int n, const SketchOptions& opt) {
  DECK_CHECK(opt.max_forests >= 1);
  DECK_CHECK(opt.rounds_slack >= 1);
  return opt.max_forests * boruvka_rounds_budget(n, opt.rounds_slack);
}

SketchConnectivity::SketchConnectivity(int n, const SketchOptions& opt) : n_(n), opt_(opt) {
  DECK_CHECK(n >= 0);
  DECK_CHECK(opt_.columns >= 1);
  // Policy fields are validated even when disabled: banks travel through the
  // wire format with their policy attached, and a nonsense policy there is
  // corruption, not configuration.
  DECK_CHECK_MSG(opt_.auto_size.initial_columns >= 1 && opt_.auto_size.initial_rounds_slack >= 1 &&
                     opt_.auto_size.growth >= 2 && opt_.auto_size.max_attempts >= 1,
                 "invalid AutoSizePolicy");
  copies_per_forest_ = boruvka_rounds_budget(n_, opt_.rounds_slack);
  const int total = total_copies_for(n_, opt_);
  const std::uint64_t universe =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(n_) * static_cast<std::uint64_t>(n_));
  sketches_.reserve(static_cast<std::size_t>(n_));
  for (VertexId v = 0; v < n_; ++v) {
    std::vector<L0Sampler> copies;
    copies.reserve(static_cast<std::size_t>(total));
    // All vertices share the copy's seed — their sketches must be mergeable
    // within a supernode; copies differ so each Borůvka round draws fresh
    // randomness. split_seed makes the derivation shared-state-free: any
    // shard thread or remote process reconstructs the same per-copy seeds
    // from opt.seed alone, which is what keeps independently-built banks
    // mergeable.
    for (int c = 0; c < total; ++c)
      copies.emplace_back(universe, split_seed(opt_.seed, static_cast<std::uint64_t>(c)),
                          opt_.columns);
    sketches_.push_back(std::move(copies));
  }
}

std::uint64_t SketchConnectivity::encode(VertexId lo, VertexId hi) const {
  return encode_edge_index(lo, hi, n_);
}

SketchEdge SketchConnectivity::decode(std::uint64_t index) const {
  const auto [u, v] = decode_edge_index(index, n_);
  return {u, v};
}

void SketchConnectivity::update(VertexId u, VertexId v, int delta) {
  DECK_CHECK_MSG(u >= 0 && u < n_ && v >= 0 && v < n_, "sketch update endpoint out of range");
  DECK_CHECK_MSG(u != v, "sketch updates must not be self-loops");
  const auto [lo, hi] = std::minmax(u, v);
  const std::uint64_t index = encode(lo, hi);
  for (L0Sampler& s : sketches_[static_cast<std::size_t>(lo)]) s.update(index, delta);
  for (L0Sampler& s : sketches_[static_cast<std::size_t>(hi)]) s.update(index, -delta);
  if (obs::enabled()) SketchMetrics::get().updates.inc();
}

void SketchConnectivity::apply_batch(VertexId src, std::span<const VertexDelta> deltas) {
  DECK_CHECK(src >= 0 && src < n_);
  // Validate and translate the whole batch first (edge-index encoding, sign
  // orientation), so a bad half rejects the batch before any bucket moves.
  // Then replay the run over each copy: each bucket receives its
  // contributions in run order, so the bank is bit-identical to per-update
  // ingestion. The scratch is per thread — parallel gutter drains and
  // shards apply distinct sources concurrently.
  thread_local std::vector<RawDelta> run;
  run.clear();
  run.reserve(deltas.size());
  for (const VertexDelta& d : deltas) {
    DECK_CHECK_MSG(d.dst >= 0 && d.dst < n_, "sketch update endpoint out of range");
    DECK_CHECK_MSG(d.dst != src, "sketch updates must not be self-loops");
    const auto [lo, hi] = std::minmax(src, d.dst);
    run.push_back({encode(lo, hi), src == lo ? d.delta : -d.delta});
  }
  const std::span<const RawDelta> span(run.data(), run.size());
  for (L0Sampler& s : sketches_[static_cast<std::size_t>(src)]) s.update_run(span);
  if (obs::enabled()) SketchMetrics::get().updates.add(deltas.size());
}

bool SketchConnectivity::compatible(const SketchConnectivity& other) const {
  return n_ == other.n_ && opt_.seed == other.opt_.seed &&
         opt_.max_forests == other.opt_.max_forests && opt_.columns == other.opt_.columns &&
         opt_.rounds_slack == other.opt_.rounds_slack && opt_.auto_size == other.opt_.auto_size;
}

void SketchConnectivity::merge(const SketchConnectivity& other) {
  DECK_CHECK_MSG(compatible(other), "merging incompatible sketch banks");
  DECK_CHECK_MSG(cursor_ == other.cursor_,
                 "merging banks with different recovery progress — merge before recovery");
  for (VertexId v = 0; v < n_; ++v) {
    auto& mine = sketches_[static_cast<std::size_t>(v)];
    const auto& theirs = other.sketches_[static_cast<std::size_t>(v)];
    for (std::size_t c = 0; c < mine.size(); ++c) mine[c].merge(theirs[c]);
  }
}

bool SketchConnectivity::grow_forest(std::vector<SketchEdge>& forest,
                                     std::span<const SketchEdge> peeled, int& cursor,
                                     ThreadPool* pool, RecoveryStats& stats) const {
  if (n_ <= 1) return true;
  UnionFind uf(n_);
  // The edges already in `forest` (a resumed partial forest) seed the
  // contraction state; everything recovered below is appended after them.
  // Seed edges need no peel: they lie inside one supernode every round.
  for (const SketchEdge& e : forest) uf.unite(e.u, e.v);
  std::vector<std::uint64_t> peeled_index(peeled.size());
  for (std::size_t i = 0; i < peeled.size(); ++i)
    peeled_index[i] = encode(peeled[i].u, peeled[i].v);

  bool maximal = false;
  for (int round = 0; round < copies_per_forest_ && !maximal; ++round) {
    if (uf.num_components() == 1) break;
    if (cursor >= copies_total()) {
      stats.copies_exhausted = true;
      return false;
    }
    const auto copy = static_cast<std::size_t>(cursor++);
    obs::Span round_span("recovery.round");
    round_span.arg("round", static_cast<std::uint64_t>(round));

    // Deterministic supernode slots: slot order is first-member vertex
    // order — the order the single-threaded path visits components in, and
    // the order the reduction below unites in.
    std::vector<int> comp(static_cast<std::size_t>(n_));
    std::vector<int> slot_of_root(static_cast<std::size_t>(n_), -1);
    int slots = 0;
    for (VertexId v = 0; v < n_; ++v) {
      int& s = slot_of_root[static_cast<std::size_t>(uf.find(v))];
      if (s < 0) s = slots++;
      comp[static_cast<std::size_t>(v)] = s;
    }

    // Bucket vertices by slot, preserving vertex order within each slot.
    std::vector<std::uint32_t> offset(static_cast<std::size_t>(slots) + 1, 0);
    for (VertexId v = 0; v < n_; ++v)
      ++offset[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)]) + 1];
    for (int s = 0; s < slots; ++s)
      offset[static_cast<std::size_t>(s) + 1] += offset[static_cast<std::size_t>(s)];
    std::vector<VertexId> members(static_cast<std::size_t>(n_));
    std::vector<std::uint32_t> fill(offset.begin(), offset.end() - 1);
    for (VertexId v = 0; v < n_; ++v)
      members[fill[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])]++] = v;

    // Segment the aggregation so huge supernodes (the endgame: two
    // components with ~n/2 members each) still split across threads. The
    // single-thread path keeps one segment per slot — the sequential
    // structure, with zero partial-sum overhead.
    const std::uint32_t seg_len =
        pool ? std::max<std::uint32_t>(256, static_cast<std::uint32_t>(
                                                (n_ + pool->size() * 8 - 1) / (pool->size() * 8)))
             : static_cast<std::uint32_t>(n_);
    std::vector<Segment> segs;
    segs.reserve(static_cast<std::size_t>(slots));
    int num_partials = 0;
    for (int s = 0; s < slots; ++s) {
      const std::uint32_t b = offset[static_cast<std::size_t>(s)];
      const std::uint32_t e = offset[static_cast<std::size_t>(s) + 1];
      if (e - b <= seg_len) {
        segs.push_back({s, b, e, -1});
      } else {
        for (std::uint32_t p = b; p < e; p += seg_len)
          segs.push_back({s, p, std::min(e, p + seg_len), num_partials++});
      }
    }

    // Lazy peel: bucket the earlier forests' edges by endpoint slot. An
    // edge inside one supernode cancels in its sum and is skipped; a
    // crossing edge is subtracted from both endpoint aggregates with the
    // signs of its incidence vector (-1 at e.u, +1 at e.v). Bucket
    // arithmetic wraps, so peeling the aggregate equals peeling every
    // member copy — the buckets, and so the samples, are bit-identical to
    // deleting the edges from the bank.
    std::vector<std::uint32_t> peel_offset(static_cast<std::size_t>(slots) + 1, 0);
    for (const SketchEdge& e : peeled) {
      const int su = comp[static_cast<std::size_t>(e.u)];
      const int sv = comp[static_cast<std::size_t>(e.v)];
      if (su == sv) continue;
      ++peel_offset[static_cast<std::size_t>(su) + 1];
      ++peel_offset[static_cast<std::size_t>(sv) + 1];
    }
    for (int s = 0; s < slots; ++s)
      peel_offset[static_cast<std::size_t>(s) + 1] += peel_offset[static_cast<std::size_t>(s)];
    std::vector<RawDelta> peels(peel_offset.back());
    std::vector<std::uint32_t> peel_fill(peel_offset.begin(), peel_offset.end() - 1);
    for (std::size_t i = 0; i < peeled.size(); ++i) {
      const int su = comp[static_cast<std::size_t>(peeled[i].u)];
      const int sv = comp[static_cast<std::size_t>(peeled[i].v)];
      if (su == sv) continue;
      peels[peel_fill[static_cast<std::size_t>(su)]++] = {peeled_index[i], -1};
      peels[peel_fill[static_cast<std::size_t>(sv)]++] = {peeled_index[i], 1};
    }
    const auto slot_peels = [&](int s) {
      return std::span<const RawDelta>(peels.data() + peel_offset[static_cast<std::size_t>(s)],
                                       peels.data() + peel_offset[static_cast<std::size_t>(s) + 1]);
    };

    std::vector<std::optional<L0Sampler>> partials(static_cast<std::size_t>(num_partials));
    std::vector<L0Sample> samples(static_cast<std::size_t>(slots));
    auto run_segment = [&](const Segment& g) {
      // Linearity cancels intra-supernode edges in the sum, leaving exactly
      // the supernode's cut. A singleton with nothing to peel needs no sum
      // at all — sample the member's sketch in place.
      const L0Sampler& first = sketches_[static_cast<std::size_t>(members[g.begin])][copy];
      if (g.end - g.begin == 1 && g.partial < 0 && slot_peels(g.slot).empty()) {
        samples[static_cast<std::size_t>(g.slot)] = first.sample();
        return;
      }
      L0Sampler agg = first;
      for (std::uint32_t i = g.begin + 1; i < g.end; ++i)
        agg.merge(sketches_[static_cast<std::size_t>(members[i])][copy]);
      if (g.partial < 0) {
        agg.update_run(slot_peels(g.slot));
        samples[static_cast<std::size_t>(g.slot)] = agg.sample();
      } else {
        partials[static_cast<std::size_t>(g.partial)] = std::move(agg);
      }
    };
    if (pool)
      pool->for_range(segs.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) run_segment(segs[i]);
      });
    else
      for (const Segment& g : segs) run_segment(g);

    // Combine split supernodes' partial sums, then peel the whole sum.
    // Bucket merging is wrapping integer addition — associative and
    // commutative — so any combine order yields bit-identical buckets;
    // segment order is used for clarity.
    for (std::size_t i = 0; i < segs.size();) {
      if (segs[i].partial < 0) {
        ++i;
        continue;
      }
      const int s = segs[i].slot;
      L0Sampler agg = std::move(*partials[static_cast<std::size_t>(segs[i].partial)]);
      for (++i; i < segs.size() && segs[i].slot == s; ++i)
        agg.merge(*partials[static_cast<std::size_t>(segs[i].partial)]);
      agg.update_run(slot_peels(s));
      samples[static_cast<std::size_t>(s)] = agg.sample();
    }

    // Deterministic reduction: unite the supernode samples into the
    // contraction forest sequentially in slot order — the tie-break that
    // keeps any thread count bit-identical to the sequential path. Two
    // components can recover the same edge from opposite sides, and a
    // component processed later this round may have been united already —
    // unite() deduplicates both cases.
    RoundStats rs;
    rs.components = slots;
    for (int s = 0; s < slots; ++s) {
      const L0Sample& got = samples[static_cast<std::size_t>(s)];
      if (got.status == L0Sample::Status::kZero) continue;  // no cut edges: done
      if (got.status == L0Sample::Status::kFail) {
        ++rs.failures;  // retried on the next round's fresh copies
        continue;
      }
      const SketchEdge e = decode(got.index);
      if (uf.unite(e.u, e.v)) {
        forest.push_back(e);
        ++rs.merges;
      }
    }
    ++stats.rounds;
    stats.samples += slots;
    stats.failures += rs.failures;
    stats.per_round.push_back(rs);
    if (obs::enabled()) {
      SketchMetrics& m = SketchMetrics::get();
      m.rounds.inc();
      m.samples.add(static_cast<std::uint64_t>(slots));
      m.failures.add(static_cast<std::uint64_t>(rs.failures));
      m.merges.add(static_cast<std::uint64_t>(rs.merges));
    }
    round_span.arg("components", static_cast<std::uint64_t>(slots));
    round_span.arg("merges", static_cast<std::uint64_t>(rs.merges));
    round_span.arg("failures", static_cast<std::uint64_t>(rs.failures));
    // No merge and no failure means every component's cut was empty: the
    // forest is maximal (the sketched graph may legitimately be
    // disconnected).
    maximal = rs.merges == 0 && rs.failures == 0;
  }
  return maximal || uf.num_components() == 1;
}

std::vector<SketchEdge> SketchConnectivity::spanning_forest(const RecoveryOptions& ropt) {
  std::optional<ThreadPool> owned;
  ThreadPool* pool = recovery_pool(ropt, owned);
  std::vector<SketchEdge> forest;
  RecoveryStats stats;
  const bool converged = grow_forest(forest, {}, cursor_, pool, stats);
  check_converged(converged, stats.copies_exhausted);
  return forest;
}

std::vector<std::vector<SketchEdge>> SketchConnectivity::k_spanning_forests(
    int k, const RecoveryOptions& ropt) {
  DECK_CHECK(k >= 1);
  DECK_CHECK_MSG(k <= opt_.max_forests, "k exceeds the sketch's max_forests budget");
  KForests r = try_k_spanning_forests(k, ropt);
  check_converged(r.converged, r.stats.copies_exhausted);
  return std::move(r.forests);
}

KForests SketchConnectivity::try_k_spanning_forests(int k, const RecoveryOptions& ropt,
                                                    const KForests* prior) {
  KForests r = recover_forests(k, ropt, prior);
  cursor_ = r.copies_used;
  return r;
}

KForests SketchConnectivity::recover_forests(int k, const RecoveryOptions& ropt,
                                             const KForests* prior) const {
  DECK_CHECK(k >= 1);
  KForests out;
  std::vector<SketchEdge> partial;
  std::optional<ThreadPool> owned;
  ThreadPool* pool = recovery_pool(ropt, owned);
  if (prior != nullptr) {
    DECK_CHECK_MSG(cursor_ == 0, "resume requires a fresh bank — copies already consumed");
    out.forests = prior->forests;
    if (!prior->converged && !out.forests.empty()) {
      partial = std::move(out.forests.back());
      out.forests.pop_back();
    }
    DECK_CHECK_MSG(static_cast<int>(out.forests.size()) < k || partial.empty(),
                   "prior already recovered k forests");
  }
  const int completed = static_cast<int>(out.forests.size());
  DECK_CHECK_MSG(k - completed <= opt_.max_forests, "k exceeds the sketch's max_forests budget");

  // Every forest recovered so far — carried from `prior` or peeled by this
  // call — which later forests' rounds subtract: linearity makes the bank
  // sketch G minus them without touching a bucket.
  std::vector<SketchEdge> peeled;
  for (const auto& f : out.forests) peeled.insert(peeled.end(), f.begin(), f.end());
  int cursor = cursor_;
  out.forests.reserve(static_cast<std::size_t>(k));
  for (int f = completed; f < k; ++f) {
    std::vector<SketchEdge> forest =
        f == completed ? std::move(partial) : std::vector<SketchEdge>{};
    const std::size_t round_mark = out.stats.per_round.size();
    const bool converged = grow_forest(forest, peeled, cursor, pool, out.stats);
    out.stats.last_forest_samples = 0;
    out.stats.last_forest_failures = 0;
    for (std::size_t r = round_mark; r < out.stats.per_round.size(); ++r) {
      out.stats.last_forest_samples += out.stats.per_round[r].components;
      out.stats.last_forest_failures += out.stats.per_round[r].failures;
    }
    out.forests.push_back(std::move(forest));
    if (!converged) {
      out.converged = false;
      break;
    }
    const auto& done = out.forests.back();
    peeled.insert(peeled.end(), done.begin(), done.end());
    // Rotate to the next forest's group of copies so every forest starts on
    // untouched randomness even when this one converged early.
    cursor = std::max(cursor, (f - completed + 1) * copies_per_forest_);
  }
  out.copies_used = cursor;
  return out;
}

SparsifyResult recover_certificate(
    int k, const SketchOptions& opt, const RecoveryOptions& ropt,
    const std::function<const SketchConnectivity&(const SketchOptions&)>& ingest) {
  DECK_CHECK(k >= 1);
  SketchOptions base = opt;
  base.max_forests = k;

  SparsifyResult result;
  const auto finalize = [&result](const SketchConnectivity& bank, KForests&& kf, int attempts,
                                  const SketchOptions& used) {
    result.forests = std::move(kf.forests);
    result.stats = std::move(kf.stats);
    result.copies_used = kf.copies_used;
    result.attempts = attempts;
    result.columns_used = used.columns;
    result.rounds_slack_used = used.rounds_slack;
    Graph cert(bank.num_vertices());
    for (const auto& forest : result.forests)
      for (const SketchEdge& e : forest) cert.add_edge(e.u, e.v, /*w=*/1);
    result.certificate = std::move(cert);
  };

  // One recovery.attempts tick per ingest→recover attempt; the gauges hold
  // the sizing of the latest one.
  const auto note_attempt = [](const SketchOptions& aopt) {
    if (!obs::enabled()) return;
    SketchMetrics& m = SketchMetrics::get();
    m.attempts.inc();
    m.columns.set(aopt.columns);
    m.rounds_slack.set(aopt.rounds_slack);
  };

  if (!opt.auto_size.enabled) {
    obs::Span span("recovery.attempt");
    span.arg("attempt", 0);
    span.arg("columns", static_cast<std::uint64_t>(base.columns));
    span.arg("rounds_slack", static_cast<std::uint64_t>(base.rounds_slack));
    note_attempt(base);
    const SketchConnectivity& bank = ingest(base);
    KForests kf = bank.recover_forests(k, ropt);
    check_converged(kf.converged, kf.stats.copies_exhausted);
    finalize(bank, std::move(kf), /*attempts=*/1, base);
    return result;
  }

  // Adaptive attempt loop: start small, observe the failure signal, grow
  // only the dimension that starved. The signal is the *failing forest's*
  // per-round sampler-failure rate: a high rate means too few ℓ₀
  // repetitions — grow columns (memory cost: bank size is linear in
  // columns); a low rate that still dried the round budget means the
  // endgame just needs more retry rounds — grow slack (cheap). Completed
  // forests carry across attempts, so a retry re-ingests a bank sized only
  // for the forests still missing.
  const AutoSizePolicy& policy = opt.auto_size;
  int columns = policy.initial_columns;
  int slack = policy.initial_rounds_slack;
  KForests carry;
  bool have_carry = false;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    SketchOptions aopt = base;
    aopt.columns = columns;
    aopt.rounds_slack = slack;
    // Fresh randomness per attempt — re-deriving the seeds that just failed
    // would fail again deterministically.
    aopt.seed = split_seed(opt.seed, static_cast<std::uint64_t>(attempt));
    const int completed =
        have_carry ? static_cast<int>(carry.forests.size()) - (carry.forests.empty() ? 0 : 1) : 0;
    aopt.max_forests = k - completed;
    obs::Span span("recovery.attempt");
    span.arg("attempt", static_cast<std::uint64_t>(attempt));
    span.arg("columns", static_cast<std::uint64_t>(columns));
    span.arg("rounds_slack", static_cast<std::uint64_t>(slack));
    note_attempt(aopt);
    const SketchConnectivity& bank = ingest(aopt);
    KForests kf = bank.recover_forests(k, ropt, have_carry ? &carry : nullptr);
    if (kf.converged) {
      finalize(bank, std::move(kf), attempt + 1, aopt);
      return result;
    }
    const bool columns_starved =
        kf.stats.last_forest_samples > 0 &&
        kf.stats.last_forest_failures * 4 >= kf.stats.last_forest_samples;  // >= 25% failed
    if (columns_starved)
      columns *= policy.growth;
    else
      slack *= policy.growth;
    carry = std::move(kf);
    have_carry = true;
  }
  DECK_CHECK_MSG(false,
                 "adaptive sizing did not converge within max_attempts — raise the policy caps");
  return result;  // unreachable
}

}  // namespace deck
