#include "serve/session.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {

namespace {

struct SessionMetrics {
  obs::Counter& updates = obs::Registry::global().counter("serve.session.updates");
  obs::Counter& inserts = obs::Registry::global().counter("serve.session.inserts");
  obs::Counter& deletes = obs::Registry::global().counter("serve.session.deletes");
  obs::Counter& queries = obs::Registry::global().counter("serve.session.queries");
  obs::Counter& bank_reuses = obs::Registry::global().counter("serve.session.bank_reuses");
  obs::Counter& bank_replays = obs::Registry::global().counter("serve.session.bank_replays");
  obs::Histogram& query_ns = obs::Registry::global().histogram("serve.session.query_ns");

  static SessionMetrics& get() {
    static SessionMetrics m;
    return m;
  }
};

/// Whether an attempt's sizing matches the live bank's — the live-vs-replay
/// decision. Mirrors SketchConnectivity::compatible() on options alone.
bool same_shape(const SketchOptions& a, const SketchOptions& b) {
  return a.seed == b.seed && a.max_forests == b.max_forests && a.columns == b.columns &&
         a.rounds_slack == b.rounds_slack && a.auto_size == b.auto_size;
}

}  // namespace

GraphSession::GraphSession(int n, int k, IngestOptions opt)
    : n_(n), k_(k), opt_(std::move(opt)), stream_(n) {
  DECK_CHECK(n >= 0);
  DECK_CHECK(k >= 1);
  DECK_CHECK(opt_.recovery.threads >= 1);
  if (coordinated()) {
    for (Transport* t : opt_.workers) DECK_CHECK(t != nullptr);
    DECK_CHECK(opt_.coordinator.threads >= 1);
    return;  // no live bank — the workers own the stream
  }
  bank_.emplace(n_, live_bank_options());
  // Gutter flushes apply each per-source run straight to the live bank.
  // Parallel drains on a lent gutter.pool are safe: gutters own disjoint
  // source ranges, and apply_batch for distinct sources touches disjoint
  // sketch arrays.
  gutters_.emplace(n_, opt_.gutter, [this](VertexId src, std::span<const VertexDelta> deltas) {
    bank_->apply_batch(src, deltas);
  });
}

GraphSession::~GraphSession() {
  if (closed_) return;
  closed_ = true;
  // Destructor variant of close(): never throws. Local gutters need no
  // drain (no observer of the live bank remains); coordinated workers get
  // a best-effort Shutdown so they exit instead of blocking forever.
  if (coordinated()) shutdown_ingest_workers(opt_.workers, /*best_effort=*/true);
}

SketchOptions GraphSession::live_bank_options() const {
  SketchOptions base = opt_.sketch;
  base.max_forests = k_;
  if (!base.auto_size.enabled) return base;
  // Attempt 0 of recover_certificate's adaptive loop: the initial sizing
  // under the first split seed. Holding the live bank there lets every
  // query's first attempt read it in place; only grown retries replay the
  // stream.
  SketchOptions a0 = base;
  a0.columns = base.auto_size.initial_columns;
  a0.rounds_slack = base.auto_size.initial_rounds_slack;
  a0.seed = split_seed(base.seed, 0);
  return a0;
}

void GraphSession::check_open() const { DECK_CHECK_MSG(!closed_, "session is closed"); }

void GraphSession::check_local(const char* what) const {
  DECK_CHECK_MSG(!coordinated(),
                 what << " is unavailable in a coordinated session — the workers own the stream");
}

void GraphSession::insert(VertexId u, VertexId v) { apply({u, v, /*insert=*/true}); }

void GraphSession::erase(VertexId u, VertexId v) { apply({u, v, /*insert=*/false}); }

void GraphSession::apply(const StreamUpdate& u) {
  check_open();
  check_local("per-update ingest");
  if (u.insert)
    stream_.insert(u.u, u.v);  // validates endpoints and liveness
  else
    stream_.erase(u.u, u.v);
  gutters_->push(u.u, u.v, u.insert ? 1 : -1);
  ++folded_;
  ++stats_.updates;
  ++(u.insert ? stats_.inserts : stats_.deletes);
  if (obs::enabled()) {
    SessionMetrics& m = SessionMetrics::get();
    m.updates.inc();
    (u.insert ? m.inserts : m.deletes).inc();
  }
}

void GraphSession::ingest(const GraphStream& s) {
  check_open();
  check_local("bulk ingest");
  DECK_CHECK_MSG(s.num_vertices() == n_,
                 "bulk ingest of an n=" << s.num_vertices() << " stream into an n=" << n_
                                        << " session");
  // Validated append, then fold the appended tail through the gutters via
  // the replay cursor.
  for (const StreamUpdate& u : s.updates()) {
    if (u.insert)
      stream_.insert(u.u, u.v);
    else
      stream_.erase(u.u, u.v);
  }
  std::uint64_t inserts = 0;
  for (const StreamUpdate& u : stream_.updates_since(folded_)) {
    gutters_->push(u.u, u.v, u.insert ? 1 : -1);
    if (u.insert) ++inserts;
  }
  const std::uint64_t appended = stream_.size() - folded_;
  folded_ = stream_.size();
  stats_.updates += appended;
  stats_.inserts += inserts;
  stats_.deletes += appended - inserts;
  if (obs::enabled()) {
    SessionMetrics& m = SessionMetrics::get();
    m.updates.add(appended);
    m.inserts.add(inserts);
    m.deletes.add(appended - inserts);
  }
}

void GraphSession::flush() {
  check_open();
  check_local("flush");
  gutters_->drain();
}

std::size_t GraphSession::pending_updates() const {
  return gutters_ ? gutters_->pending_halves() / 2 : 0;
}

const SketchConnectivity& GraphSession::attempt_bank(const SketchOptions& aopt,
                                                     std::optional<SketchConnectivity>& replay) {
  if (bank_ && same_shape(aopt, bank_->options())) {
    // The common case: recover straight from the live bank. Recovery only
    // reads buckets and never moves the cursor, so ingest resumes untouched
    // after the query.
    ++stats_.bank_reuses;
    if (obs::enabled()) SessionMetrics::get().bank_reuses.inc();
    return *bank_;
  }
  // Grown adaptive attempt or a non-session k: re-ingest the retained
  // stream under the attempt's sizing. Rare by construction (the live bank
  // is held at attempt-0 sizing).
  ++stats_.bank_replays;
  if (obs::enabled()) SessionMetrics::get().bank_replays.inc();
  SketchConnectivity& fresh = replay.emplace(n_, aopt);
  for (const StreamUpdate& u : stream_.updates_since(0)) fresh.update(u.u, u.v, u.insert ? 1 : -1);
  return fresh;
}

SparsifyResult GraphSession::query() { return query(k_); }

SparsifyResult GraphSession::query(int k) {
  check_open();
  DECK_CHECK(k >= 1);
  obs::Span span("serve.query");
  span.arg("k", static_cast<std::uint64_t>(k));
  const std::uint64_t start = obs::enabled() ? obs::now_ns() : 0;
  SparsifyResult result = coordinated() ? query_coordinated(k) : query_local(k);
  ++stats_.queries;
  if (obs::enabled()) {
    SessionMetrics& m = SessionMetrics::get();
    m.queries.inc();
    m.query_ns.observe(obs::now_ns() - start);
  }
  span.arg("certificate_edges", static_cast<std::uint64_t>(result.certificate.num_edges()));
  return result;
}

SparsifyResult GraphSession::query_local(int k) {
  // Pause/flush: the live bank must sketch everything ingested so far
  // before recovery reads it.
  gutters_->drain();
  std::optional<SketchConnectivity> replay;  // a replayed attempt's bank
  return recover_certificate(k, opt_.sketch, opt_.recovery,
                             [&](const SketchOptions& aopt) -> const SketchConnectivity& {
                               return attempt_bank(aopt, replay);
                             });
}

SparsifyResult GraphSession::query_coordinated(int k) {
  if (coordinator_pool_ == nullptr)
    coordinator_pool_ = std::make_unique<ThreadPool>(opt_.coordinator.threads);
  ThreadPool& pool = *coordinator_pool_;
  try {
    if (!roster_validated_) {
      validate_ingest_roster(opt_.workers, n_);
      roster_validated_ = true;
    }
    // One pool shared by everything the coordinator does: per-worker
    // receive jobs (network wait overlaps other workers' chunk merges),
    // then the Borůvka recovery fan-out via RecoveryOptions::pool.
    RecoveryOptions ropt;
    ropt.threads = opt_.coordinator.threads;
    ropt.pool = &pool;
    std::optional<SketchConnectivity> assembled;  // the current attempt's bank
    return recover_certificate(k, opt_.sketch, ropt,
                               [&](const SketchOptions& aopt) -> const SketchConnectivity& {
                                 assembled.reset();  // one bank in memory at a time
                                 return assembled.emplace(
                                     coordinated_ingest_attempt(opt_.workers, n_, aopt, pool));
                               });
  } catch (...) {
    // Best-effort shutdown so healthy workers exit instead of blocking on
    // the next Attempt; the original fault stays the primary error. The
    // session is unusable afterwards.
    closed_ = true;
    shutdown_ingest_workers(opt_.workers, /*best_effort=*/true);
    throw;
  }
}

void GraphSession::close() {
  if (closed_) return;
  closed_ = true;
  if (coordinated()) {
    shutdown_ingest_workers(opt_.workers, /*best_effort=*/false);
    return;
  }
  gutters_->drain();
}

SessionStats GraphSession::stats() const {
  SessionStats s = stats_;
  if (gutters_) s.gutter = gutters_->stats();
  return s;
}

SparsifyResult ingest(const GraphStream& stream, int k, const IngestOptions& opt) {
  DECK_CHECK_MSG(opt.workers.empty(),
                 "coordinated ingest reads the workers' streams — open a GraphSession instead");
  GraphSession session(stream.num_vertices(), k, opt);
  session.ingest(stream);
  SparsifyResult result = session.query();
  session.close();
  return result;
}

}  // namespace deck
