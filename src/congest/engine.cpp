#include "congest/engine.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace deck {

void VertexProgram::finish_range(VertexId, VertexId) {}

void VertexProgram::encode_state(VertexId, VertexId, std::vector<std::uint8_t>&) const {}

void VertexProgram::decode_state(VertexId, VertexId, std::span<const std::uint8_t> bytes) {
  DECK_CHECK_MSG(bytes.empty(), "program declared no mutable state but a checkpoint has some");
}

namespace detail {

namespace {

/// Stamps at or past this refill the mailboxes before the next execution,
/// leaving every later round (base_ + round) far from int32 overflow.
constexpr std::int32_t kRefillStamp = std::int32_t{1} << 30;

/// collect_candidates scans the flags densely once at least one vertex in
/// kDenseScanRatio of the owned range is awake, and sorts the wake list below
/// that.
constexpr std::size_t kDenseScanRatio = 16;

/// Marks v awake, recording it in `woken` only on the flag's 0 -> 1 edge.
void wake_once(std::uint8_t& flag, std::vector<VertexId>& woken, VertexId v) {
  if (flag != 0) return;
  flag = 1;
  woken.push_back(v);
}

}  // namespace

BspRunner::BspRunner(const Graph& g, VertexId lo, VertexId hi) : g_(&g), lo_(lo), hi_(hi) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto slots = 2 * static_cast<std::size_t>(g.num_edges());
  DECK_CHECK_MSG(slots < static_cast<std::size_t>(kRefillStamp),
                 "congest engine: graph too large for 32-bit mailbox positions");
  off_.resize(n + 1);
  in_pos_.resize(slots);
  std::int32_t pos = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    off_[static_cast<std::size_t>(v)] = pos;
    for (const Adj& a : g.neighbors(v)) {
      const std::uint8_t dir = g.edge(a.edge).u == a.to ? 0 : 1;  // a.to sends to v
      in_pos_[2 * static_cast<std::size_t>(a.edge) + dir] = pos++;
    }
  }
  off_[n] = pos;
  for (int p = 0; p < 2; ++p) {
    box_[p].resize(slots);
    stamp_[p].assign(slots, high_);  // below every stamp an execution reads
  }
  awake_.assign(n, 0);
}

void BspRunner::start(VertexProgram& prog) {
  attach(prog);
  prog.setup(*g_);
  activate_initial();
}

void BspRunner::attach(VertexProgram& prog) {
  // Retire the previous execution, however it ended: a silent last round or a
  // throwing step can leave flags behind, and woken_ records each of them.
  for (const VertexId v : woken_) awake_[static_cast<std::size_t>(v)] = 0;
  woken_.clear();
  if (high_ >= kRefillStamp) {
    high_ = -1;
    for (auto& stamps : stamp_) std::fill(stamps.begin(), stamps.end(), high_);
  }
  base_ = high_ + 1;  // every stamp written so far is now stale
  prog_ = &prog;
}

void BspRunner::wake(VertexId v) { wake_once(awake_[static_cast<std::size_t>(v)], woken_, v); }

void BspRunner::activate_initial() {
  DECK_CHECK(prog_ != nullptr);
  for (VertexId v = lo_; v < hi_; ++v)
    if (prog_->starts_active(v)) wake(v);
}

void BspRunner::save_resume(int round, std::vector<VertexId>& awake_out,
                            std::vector<RemoteSend>& pending_out) const {
  // woken_ holds every awake vertex exactly once; sorted, it is the schedule
  // run_round would compute, without consuming it.
  awake_out = woken_;
  std::sort(awake_out.begin(), awake_out.end());
  // Live mailboxes: positions written in `round` (parity round & 1, stamp
  // base_ + round) whose receiving endpoint this runner owns — exactly what
  // run_round(round + 1, ...) will read — listed in (edge, dir) order.
  const int wp = round & 1;
  const std::int32_t sent_at = base_ + round;
  pending_out.clear();
  for (EdgeId e = 0; e < g_->num_edges(); ++e) {
    const Edge& ed = g_->edge(e);
    for (std::uint8_t dir = 0; dir <= 1; ++dir) {
      const VertexId to = dir == 0 ? ed.v : ed.u;
      if (to < lo_ || to >= hi_) continue;
      const auto p = static_cast<std::size_t>(in_pos_[2 * static_cast<std::size_t>(e) + dir]);
      if (stamp_[wp][p] == sent_at) pending_out.push_back({e, dir, box_[wp][p]});
    }
  }
}

void BspRunner::restore_resume(int round, std::span<const VertexId> awake,
                               std::span<const RemoteSend> pending) {
  DECK_CHECK(prog_ != nullptr);
  DECK_CHECK_MSG(round >= 0 && round < kRefillStamp, "checkpoint round is out of range");
  for (VertexId v : awake) {
    DECK_CHECK_MSG(v >= lo_ && v < hi_, "checkpoint wakes a vertex outside the owned range");
    wake(v);
  }
  const int wp = round & 1;
  const std::int32_t sent_at = base_ + round;
  high_ = std::max(high_, sent_at);
  for (const RemoteSend& s : pending) {
    DECK_CHECK_MSG(s.edge >= 0 && s.edge < g_->num_edges() && s.dir <= 1,
                   "checkpoint mailbox entry addresses a bogus edge");
    const Edge& ed = g_->edge(s.edge);
    const VertexId to = s.dir == 0 ? ed.v : ed.u;
    DECK_CHECK_MSG(to >= lo_ && to < hi_,
                   "checkpoint mailbox entry delivered to the wrong owner");
    const auto p = static_cast<std::size_t>(in_pos_[2 * static_cast<std::size_t>(s.edge) + s.dir]);
    stamp_[wp][p] = sent_at;
    box_[wp][p] = s.msg;
  }
}

/// Outbox of one round, rebound to each stepping vertex. Writes go straight
/// into the runner's mailboxes and wake list.
class BspRunner::RoundOutbox final : public Outbox {
 public:
  RoundOutbox(BspRunner& r, int round, std::vector<RemoteSend>* remote)
      : edges_(r.g_->edges().data()),
        num_edges_(r.g_->num_edges()),
        in_pos_(r.in_pos_.data()),
        awake_(r.awake_.data()),
        lo_(r.lo_),
        hi_(r.hi_),
        sent_at_(r.base_ + round),
        box_(r.box_[round & 1].data()),
        stamp_(r.stamp_[round & 1].data()),
        woken_(&r.woken_),
        remote_(remote) {}

  void bind(VertexId self) { self_ = self; }

  void send(VertexId to, EdgeId e, const Packet& msg) override {
    DECK_CHECK_MSG(e >= 0 && e < num_edges_, "congest engine: send on a bogus edge id");
    const Edge& ed = edges_[e];
    DECK_CHECK_MSG((ed.u == self_ && ed.v == to) || (ed.v == self_ && ed.u == to),
                   "congest engine: send must cross one incident graph edge");
    const std::uint8_t dir = ed.u == self_ ? 0 : 1;
    const auto p = static_cast<std::size_t>(in_pos_[2 * static_cast<std::size_t>(e) + dir]);
    DECK_CHECK_MSG(stamp_[p] != sent_at_,
                   "congest engine: one message per directed edge per round");
    stamp_[p] = sent_at_;
    ++sent_;
    if (to >= lo_ && to < hi_) {
      box_[p] = msg;
      wake_once(awake_[to], *woken_, to);
    } else {
      DECK_CHECK_MSG(remote_ != nullptr, "congest engine: send leaves the owned vertex range");
      remote_->push_back({e, dir, msg});
    }
  }

  void stay_awake() override { wake_once(awake_[self_], *woken_, self_); }

  std::uint64_t sent() const { return sent_; }

 private:
  const Edge* edges_;
  EdgeId num_edges_;
  const std::int32_t* in_pos_;
  std::uint8_t* awake_;
  VertexId lo_, hi_;
  VertexId self_ = kNoVertex;
  std::int32_t sent_at_;
  Packet* box_;
  std::int32_t* stamp_;
  std::vector<VertexId>* woken_;
  std::vector<RemoteSend>* remote_;
  std::uint64_t sent_ = 0;
};

void BspRunner::collect_candidates() {
  // Everything woken since the last round (sends, stay_awake, boundary
  // deliveries; starts_active for round 1), each vertex once, in wake order;
  // both branches yield the ascending schedule. A crowded round scans the
  // flags instead of sorting the list.
  active_.clear();
  if (woken_.size() * kDenseScanRatio >= static_cast<std::size_t>(hi_ - lo_)) {
    for (VertexId v = lo_; v < hi_; ++v) {
      std::uint8_t& flag = awake_[static_cast<std::size_t>(v)];
      if (flag != 0) {
        flag = 0;
        active_.push_back(v);
      }
    }
  } else {
    std::sort(woken_.begin(), woken_.end());
    for (const VertexId v : woken_) awake_[static_cast<std::size_t>(v)] = 0;
    active_.swap(woken_);
  }
  woken_.clear();
}

std::uint64_t BspRunner::run_round(int round, std::vector<RemoteSend>* remote_out) {
  DECK_CHECK(prog_ != nullptr);
  DECK_CHECK_MSG(round >= 1 && round < std::numeric_limits<std::int32_t>::max() - base_,
                 "congest engine: round out of range");
  high_ = std::max(high_, base_ + round);
  collect_candidates();
  if (active_.empty()) return 0;

  const int rp = (round & 1) ^ 1;  // sent last round, read now
  const std::int32_t live = base_ + round - 1;
  const std::int32_t* stamps = stamp_[rp].data();
  const Packet* boxes = box_[rp].data();
  RoundOutbox out(*this, round, remote_out);
  for (const VertexId v : active_) {
    const std::span<const Adj> nbrs = g_->neighbors(v);
    const auto first = static_cast<std::size_t>(off_[static_cast<std::size_t>(v)]);
    inbox_.clear();
    for (std::size_t j = 0; j < nbrs.size(); ++j)
      if (stamps[first + j] == live)
        inbox_.push_back({nbrs[j].to, nbrs[j].edge, boxes[first + j]});
    out.bind(v);
    prog_->step(v, round, inbox_, out);
  }
  return out.sent();
}

void BspRunner::deliver_remote(int round, EdgeId e, std::uint8_t dir, const Packet& msg) {
  DECK_CHECK_MSG(e >= 0 && e < g_->num_edges() && dir <= 1,
                 "congest engine: boundary message addresses a bogus edge");
  const Edge& ed = g_->edge(e);
  const VertexId to = dir == 0 ? ed.v : ed.u;
  DECK_CHECK_MSG(to >= lo_ && to < hi_,
                 "congest engine: boundary message delivered to the wrong owner");
  const int wp = round & 1;
  const std::int32_t sent_at = base_ + round;
  const auto p = static_cast<std::size_t>(in_pos_[2 * static_cast<std::size_t>(e) + dir]);
  DECK_CHECK_MSG(stamp_[wp][p] != sent_at,
                 "congest engine: duplicate boundary message on a directed edge");
  stamp_[wp][p] = sent_at;
  box_[wp][p] = msg;
  wake(to);
}

void BspRunner::finish() {
  DECK_CHECK(prog_ != nullptr);
  prog_->finish_range(lo_, hi_);
}

}  // namespace detail

namespace {

/// Model-cost counters of the seq engine (the net engine keeps its own).
struct EngineMetrics {
  obs::Counter& rounds = obs::Registry::global().counter("congest.rounds");
  obs::Counter& messages = obs::Registry::global().counter("congest.messages");
  // Runner reuse: one build per seq engine, however many executions.
  obs::Counter& executions = obs::Registry::global().counter("congest.executions");
  obs::Counter& runner_builds = obs::Registry::global().counter("congest.runner_builds");

  static EngineMetrics& get() {
    static EngineMetrics m;
    return m;
  }
};

/// Per-round spans are capped per execution: long executions (BFS on a path
/// graph) would otherwise dominate the trace with thousands of slivers.
constexpr int kMaxRoundSpans = 64;

/// The seq engine: single-threaded execution over the full vertex range.
/// One runner, built on the first execution, serves every later one on this
/// graph.
class SeqEngine : public Engine {
 public:
  explicit SeqEngine(const Graph& g) : g_(&g) {}

  std::string name() const override { return "seq"; }

  ExecStats execute(VertexProgram& prog) override {
    obs::Span exec_span("seq.execute");
    if (runner_ == nullptr) {
      runner_ = std::make_unique<detail::BspRunner>(*g_, 0, g_->num_vertices());
      if (obs::enabled()) EngineMetrics::get().runner_builds.inc();
    }
    if (obs::enabled()) EngineMetrics::get().executions.inc();
    detail::BspRunner& runner = *runner_;
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
  std::unique_ptr<detail::BspRunner> runner_;
};

class SequentialHub final : public EngineHub {
 public:
  std::string name() const override { return "seq"; }
  std::unique_ptr<Engine> engine_for(const Graph& g) override {
    return std::make_unique<SeqEngine>(g);
  }
};

}  // namespace

std::shared_ptr<EngineHub> EngineHub::sequential() { return std::make_shared<SequentialHub>(); }

}  // namespace deck
