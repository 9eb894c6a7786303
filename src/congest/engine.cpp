#include "congest/engine.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace deck {

void VertexProgram::finish_range(VertexId, VertexId) {}

void VertexProgram::encode_state(VertexId, VertexId, std::vector<std::uint8_t>&) const {}

void VertexProgram::decode_state(VertexId, VertexId, std::span<const std::uint8_t> bytes) {
  DECK_CHECK_MSG(bytes.empty(), "program declared no mutable state but a checkpoint has some");
}

namespace detail {

BspRunner::BspRunner(const Graph& g, VertexId lo, VertexId hi, ThreadPool* pool)
    : g_(&g), lo_(lo), hi_(hi), pool_(pool) {
  const auto slots = 2 * static_cast<std::size_t>(g.num_edges());
  for (int p = 0; p < 2; ++p) {
    box_[p].resize(slots);
    stamp_[p].assign(slots, -1);  // rounds are 1-based: round 1 reads stamp 0, never -1
  }
  const auto n = static_cast<std::size_t>(g.num_vertices());
  awake_ = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  for (std::size_t v = 0; v < n; ++v) awake_[v].store(0, std::memory_order_relaxed);
}

void BspRunner::start(VertexProgram& prog) {
  attach(prog);
  prog.setup(*g_);
  activate_initial();
}

void BspRunner::attach(VertexProgram& prog) { prog_ = &prog; }

void BspRunner::activate_initial() {
  DECK_CHECK(prog_ != nullptr);
  for (VertexId v = lo_; v < hi_; ++v) {
    if (prog_->starts_active(v)) {
      awake_[static_cast<std::size_t>(v)].store(1, std::memory_order_relaxed);
      woken_.push_back(v);
    }
  }
}

void BspRunner::save_resume(int round, std::vector<VertexId>& awake_out,
                            std::vector<RemoteSend>& pending_out) const {
  // Wake state lives in woken_ (with possible duplicates) gated by the
  // awake_ flags; sorting + deduping here yields the same canonical list
  // run_round would compute, without consuming it.
  awake_out = woken_;
  std::sort(awake_out.begin(), awake_out.end());
  awake_out.erase(std::unique(awake_out.begin(), awake_out.end()), awake_out.end());
  std::erase_if(awake_out, [&](VertexId v) {
    return awake_[static_cast<std::size_t>(v)].load(std::memory_order_relaxed) == 0;
  });
  // Live mailboxes: slots written in `round` (parity round & 1, stamp ==
  // round) whose receiving endpoint this runner owns — exactly what
  // run_round(round + 1, ...) will read. Slot order is deterministic.
  const int wp = round & 1;
  pending_out.clear();
  for (EdgeId e = 0; e < g_->num_edges(); ++e) {
    const Edge& ed = g_->edge(e);
    for (std::uint8_t dir = 0; dir <= 1; ++dir) {
      const VertexId to = dir == 0 ? ed.v : ed.u;
      if (to < lo_ || to >= hi_) continue;
      const std::size_t slot = 2 * static_cast<std::size_t>(e) + dir;
      if (stamp_[wp][slot] == round) pending_out.push_back({e, dir, box_[wp][slot]});
    }
  }
}

void BspRunner::restore_resume(int round, std::span<const VertexId> awake,
                               std::span<const RemoteSend> pending) {
  DECK_CHECK(prog_ != nullptr);
  for (VertexId v : awake) {
    DECK_CHECK_MSG(v >= lo_ && v < hi_, "checkpoint wakes a vertex outside the owned range");
    awake_[static_cast<std::size_t>(v)].store(1, std::memory_order_relaxed);
    woken_.push_back(v);
  }
  const int wp = round & 1;
  for (const RemoteSend& s : pending) {
    DECK_CHECK_MSG(s.edge >= 0 && s.edge < g_->num_edges() && s.dir <= 1,
                   "checkpoint mailbox entry addresses a bogus edge");
    const Edge& ed = g_->edge(s.edge);
    const VertexId to = s.dir == 0 ? ed.v : ed.u;
    DECK_CHECK_MSG(to >= lo_ && to < hi_,
                   "checkpoint mailbox entry delivered to the wrong owner");
    const std::size_t slot = 2 * static_cast<std::size_t>(s.edge) + s.dir;
    stamp_[wp][slot] = round;
    box_[wp][slot] = s.msg;
  }
}

namespace {

/// Outbox bound to one stepping vertex for one round. Writes go straight
/// into the runner's mailbox buffers: each directed edge has a unique
/// sending vertex, so concurrent steps never touch the same slot.
class RunnerOutbox final : public Outbox {
 public:
  RunnerOutbox(const Graph& g, VertexId self, int round, std::vector<Packet>& box,
               std::vector<std::int32_t>& stamp, std::atomic<std::uint8_t>* awake,
               std::vector<VertexId>& woken, VertexId lo, VertexId hi,
               std::vector<BspRunner::RemoteSend>* remote, std::mutex* remote_mu)
      : g_(&g),
        self_(self),
        round_(round),
        box_(&box),
        stamp_(&stamp),
        awake_(awake),
        woken_(&woken),
        lo_(lo),
        hi_(hi),
        remote_(remote),
        remote_mu_(remote_mu) {}

  void send(VertexId to, EdgeId e, const Packet& msg) override {
    const Edge& ed = g_->edge(e);
    DECK_CHECK_MSG((ed.u == self_ && ed.v == to) || (ed.v == self_ && ed.u == to),
                   "congest engine: send must cross one incident graph edge");
    const std::uint8_t dir = ed.u == self_ ? 0 : 1;
    const std::size_t slot = 2 * static_cast<std::size_t>(e) + dir;
    DECK_CHECK_MSG((*stamp_)[slot] != round_,
                   "congest engine: one message per directed edge per round");
    (*stamp_)[slot] = round_;
    ++sent_;
    if (to >= lo_ && to < hi_) {
      (*box_)[slot] = msg;
      awake_[static_cast<std::size_t>(to)].store(1, std::memory_order_relaxed);
      woken_->push_back(to);
    } else {
      DECK_CHECK_MSG(remote_ != nullptr, "congest engine: send leaves the owned vertex range");
      std::lock_guard<std::mutex> lock(*remote_mu_);
      remote_->push_back({e, dir, msg});
    }
  }

  void stay_awake() override {
    awake_[static_cast<std::size_t>(self_)].store(1, std::memory_order_relaxed);
    woken_->push_back(self_);
  }

  std::uint64_t sent() const { return sent_; }

 private:
  const Graph* g_;
  VertexId self_;
  int round_;
  std::vector<Packet>* box_;
  std::vector<std::int32_t>* stamp_;
  std::atomic<std::uint8_t>* awake_;
  std::vector<VertexId>* woken_;
  VertexId lo_, hi_;
  std::vector<BspRunner::RemoteSend>* remote_;
  std::mutex* remote_mu_;
  std::uint64_t sent_ = 0;
};

}  // namespace

void BspRunner::collect_candidates() {
  // The active list for this round: everything woken since the last round
  // (sends, stay_awake, boundary deliveries; starts_active for round 1).
  // Wake lists accumulate per stepping chunk in nondeterministic order, but
  // sorting + deduping against the awake_ flags yields exactly the ascending
  // schedule a full index scan would — for every backend and thread count —
  // at O(active + wakes log wakes) instead of O(n) per round.
  std::sort(woken_.begin(), woken_.end());
  active_.clear();
  for (std::size_t i = 0; i < woken_.size(); ++i) {
    const VertexId v = woken_[i];
    if (i > 0 && v == woken_[i - 1]) continue;
    auto& flag = awake_[static_cast<std::size_t>(v)];
    if (flag.load(std::memory_order_relaxed)) {
      flag.store(0, std::memory_order_relaxed);
      active_.push_back(v);
    }
  }
  woken_.clear();
}

std::uint64_t BspRunner::run_round(int round, std::vector<RemoteSend>* remote_out) {
  DECK_CHECK(prog_ != nullptr);
  collect_candidates();
  if (active_.empty()) return 0;

  const int wp = round & 1;      // written this round
  const int rp = wp ^ 1;         // sent last round, read now
  std::mutex remote_mu;
  std::mutex woken_mu;
  std::atomic<std::uint64_t> sent_total{0};

  auto step_span = [&](std::size_t begin, std::size_t end) {
    std::vector<Delivery> inbox;
    std::vector<VertexId> woken_here;
    std::uint64_t sent_here = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const VertexId v = active_[i];
      inbox.clear();
      for (const Adj& a : g_->neighbors(v)) {
        const std::uint8_t dir = g_->edge(a.edge).u == a.to ? 0 : 1;
        const std::size_t slot = 2 * static_cast<std::size_t>(a.edge) + dir;
        if (stamp_[rp][slot] == round - 1) inbox.push_back({a.to, a.edge, box_[rp][slot]});
      }
      RunnerOutbox out(*g_, v, round, box_[wp], stamp_[wp], awake_.get(), woken_here, lo_, hi_,
                       remote_out, &remote_mu);
      prog_->step(v, round, inbox, out);
      sent_here += out.sent();
    }
    sent_total.fetch_add(sent_here, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(woken_mu);
    woken_.insert(woken_.end(), woken_here.begin(), woken_here.end());
  };

  if (pool_ != nullptr) {
    pool_->for_range(active_.size(), step_span);
  } else {
    step_span(0, active_.size());
  }
  return sent_total.load(std::memory_order_relaxed);
}

void BspRunner::deliver_remote(int round, EdgeId e, std::uint8_t dir, const Packet& msg) {
  DECK_CHECK_MSG(e >= 0 && e < g_->num_edges() && dir <= 1,
                 "congest engine: boundary message addresses a bogus edge");
  const Edge& ed = g_->edge(e);
  const VertexId to = dir == 0 ? ed.v : ed.u;
  DECK_CHECK_MSG(to >= lo_ && to < hi_,
                 "congest engine: boundary message delivered to the wrong owner");
  const int wp = round & 1;
  const std::size_t slot = 2 * static_cast<std::size_t>(e) + dir;
  DECK_CHECK_MSG(stamp_[wp][slot] != round,
                 "congest engine: duplicate boundary message on a directed edge");
  stamp_[wp][slot] = round;
  box_[wp][slot] = msg;
  awake_[static_cast<std::size_t>(to)].store(1, std::memory_order_relaxed);
  woken_.push_back(to);
}

void BspRunner::finish() {
  DECK_CHECK(prog_ != nullptr);
  prog_->finish_range(lo_, hi_);
}

}  // namespace detail

namespace {

/// Model-cost counters shared by every engine backend.
struct EngineMetrics {
  obs::Counter& rounds = obs::Registry::global().counter("congest.rounds");
  obs::Counter& messages = obs::Registry::global().counter("congest.messages");

  static EngineMetrics& get() {
    static EngineMetrics m;
    return m;
  }
};

/// Per-round spans are capped per execution: long executions (BFS on a path
/// graph) would otherwise dominate the trace with thousands of slivers.
constexpr int kMaxRoundSpans = 64;

/// In-process execution over the full vertex range: sequential when `pool`
/// is null, partitioned over the pool otherwise. Identical schedules either
/// way — the pool only splits the deterministic active list.
class LocalEngine : public Engine {
 public:
  LocalEngine(const Graph& g, ThreadPool* pool, std::string name)
      : g_(&g), pool_(pool), name_(std::move(name)), span_name_(name_ + ".execute") {}

  std::string name() const override { return name_; }

  ExecStats execute(VertexProgram& prog) override {
    obs::Span exec_span(span_name_.c_str());
    detail::BspRunner runner(*g_, 0, g_->num_vertices(), pool_);
    runner.start(prog);
    ExecStats stats;
    for (int round = 1;; ++round) {
      std::uint64_t sent = 0;
      if (obs::tracing() && round <= kMaxRoundSpans) {
        obs::Span round_span("round");
        round_span.arg("round", static_cast<std::uint64_t>(round));
        sent = runner.run_round(round, nullptr);
        round_span.arg("messages", sent);
      } else {
        sent = runner.run_round(round, nullptr);
      }
      if (sent == 0) break;  // first silent round = quiescence
      stats.rounds += 1;
      stats.messages += sent;
    }
    runner.finish();
    if (obs::enabled()) {
      EngineMetrics::get().rounds.add(stats.rounds);
      EngineMetrics::get().messages.add(stats.messages);
    }
    exec_span.arg("rounds", stats.rounds);
    exec_span.arg("messages", stats.messages);
    return stats;
  }

 private:
  const Graph* g_;
  ThreadPool* pool_;
  std::string name_;
  std::string span_name_;
};

class SequentialHub final : public EngineHub {
 public:
  std::string name() const override { return "seq"; }
  std::unique_ptr<Engine> engine_for(const Graph& g) override {
    return std::make_unique<LocalEngine>(g, nullptr, "seq");
  }
};

class ParallelHub final : public EngineHub {
 public:
  explicit ParallelHub(int threads) : owned_(std::make_unique<ThreadPool>(threads)) {}
  explicit ParallelHub(ThreadPool* pool) : borrowed_(pool) {
    DECK_CHECK_MSG(pool != nullptr, "parallel engine hub needs a pool");
  }

  std::string name() const override { return "pool"; }
  std::unique_ptr<Engine> engine_for(const Graph& g) override {
    return std::make_unique<LocalEngine>(g, pool(), "pool");
  }

 private:
  ThreadPool* pool() const { return borrowed_ != nullptr ? borrowed_ : owned_.get(); }

  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* borrowed_ = nullptr;
};

}  // namespace

std::shared_ptr<EngineHub> EngineHub::sequential() { return std::make_shared<SequentialHub>(); }

std::shared_ptr<EngineHub> EngineHub::parallel(int threads) {
  return std::make_shared<ParallelHub>(threads);
}

std::shared_ptr<EngineHub> EngineHub::parallel(ThreadPool* pool) {
  return std::make_shared<ParallelHub>(pool);
}

}  // namespace deck
