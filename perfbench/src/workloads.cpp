#include "workloads.hpp"

#include <cstdio>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "congest/distributed_engine.hpp"
#include "congest/network.hpp"
#include "cycles/verify.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "ecss/distributed_kecss.hpp"
#include "ecss/lower_bounds.hpp"
#include "graph/bridges.hpp"
#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_io.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace deck;

namespace {

// ---------------------------------------------------------------------------
// Exact checks (outside the timed region)

/// 2-edge-connectivity of the subgraph `edges` of g: one bridgeless block
/// spanning every vertex.
bool two_edge_connected(const Graph& g, const std::vector<EdgeId>& edges) {
  const BridgeInfo bi = find_bridges(g, edge_mask(g, edges));
  return bi.bridges.empty() && bi.num_blocks == 1;
}

std::vector<EdgeId> all_edges(const Graph& g) {
  std::vector<EdgeId> all(static_cast<std::size_t>(g.num_edges()));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<EdgeId>(i);
  return all;
}

/// A k-forest certificate is exact iff forest i is a maximal spanning forest
/// of `live` minus forests 1..i-1, and the certificate is their union.
bool forests_exact(const Graph& live, const SparsifyResult& r) {
  const int n = live.num_vertices();
  auto key = [n](VertexId u, VertexId v) {
    return u < v ? std::uint64_t(u) * std::uint64_t(n) + std::uint64_t(v)
                 : std::uint64_t(v) * std::uint64_t(n) + std::uint64_t(u);
  };
  std::set<std::uint64_t> used;
  std::size_t total = 0;
  for (const auto& forest : r.forests) {
    UnionFind in_forest(n);
    for (const SketchEdge& e : forest) {
      if (!live.has_edge(e.u, e.v) || used.count(key(e.u, e.v)) != 0) return false;
      if (!in_forest.unite(e.u, e.v)) return false;  // cycle
    }
    UnionFind rest(n);  // components of live minus the earlier forests
    for (const Edge& e : live.edges())
      if (used.count(key(e.u, e.v)) == 0) rest.unite(e.u, e.v);
    if (rest.num_components() != in_forest.num_components()) return false;  // not maximal
    for (const SketchEdge& e : forest) used.insert(key(e.u, e.v));
    total += forest.size();
  }
  return static_cast<std::size_t>(r.certificate.num_edges()) == total;
}

// ---------------------------------------------------------------------------
// Registry reads (zero when obs is off, i.e. in untraced passes)

double hist_sum(const obs::Snapshot& s, const char* name) {
  const auto* h = s.histogram(name);
  return h != nullptr ? static_cast<double>(h->sum) : 0.0;
}

double hist_count(const obs::Snapshot& s, const char* name) {
  const auto* h = s.histogram(name);
  return h != nullptr ? static_cast<double>(h->count) : 0.0;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Network::phases() folded by name into the benchmark's phase groups.
std::string phase_group(const std::string& name) {
  if (name == "tap.iteration") return "tap.iteration";
  if (name.rfind("tap.", 0) == 0) return "tap.setup";
  for (const char* g : {"2ecss", "mst", "decomp", "kecss"})
    if (name.rfind(std::string(g) + ".", 0) == 0) return g;
  return "";
}

// ---------------------------------------------------------------------------
// The CONGEST stage shared by the solver workloads: Network setup, the
// distributed k-ECSS solve, and the distributed verifier on its output.

struct Solved {
  std::vector<EdgeId> edges;
  Weight weight = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t verify_rounds = 0;
  EngineTally tally;
};

/// Solves one instance and adds its metrics to the pass; finish_solves()
/// turns the sums into the reported ratios once every instance is in.
Solved solve_and_verify(Pass& p, Ledger& ledger, const Graph& g, int k, Weight lower_bound,
                        std::shared_ptr<EngineHub> inner, std::uint64_t seed) {
  auto hub = std::make_shared<TimingHub>(std::move(inner));
  std::optional<Network> net;
  {
    Section s(p, "bench.congest.setup", &p.setup_s);
    net.emplace(g, hub);
    net->engine();
  }
  Solved out;
  int tap_iterations = 0, kecss_iterations = 0;
  double solver_s = 0;
  {
    Section s(p, "bench.ecss.solve", &solver_s);
    if (k == 2) {
      Ecss2Result r = distributed_2ecss(*net, TapOptions{});
      out.edges = std::move(r.edges);
      out.weight = r.weight;
      tap_iterations = r.tap_iterations;
    } else {
      KecssResult r = distributed_kecss(*net, k, KecssOptions{});
      out.edges = std::move(r.edges);
      out.weight = r.weight;
      kecss_iterations = r.iterations;
    }
    net->end_phase();
  }
  const double solve_busy = hub->tally().busy_s;
  out.rounds = net->rounds();
  out.messages = net->messages();

  double verify_s = 0;
  bool verified = false;
  {
    Section s(p, "bench.cycles.verify", &verify_s);
    const Graph h = g.edge_subgraph(out.edges);
    Network vnet(h, hub);
    const VerifyResult v = k == 2 ? verify_2_edge_connected(vnet, seed)
                                  : verify_3_edge_connected(vnet, seed);
    verified = v.is_k_connected;
    out.verify_rounds = vnet.rounds();
  }
  out.tally = hub->tally();

  ledger.check(verified, "distributed verifier rejected the " + std::to_string(k) + "-ECSS");
  ledger.check(k == 2 ? two_edge_connected(g, out.edges)
                      : is_k_edge_connected_subset(g, out.edges, k),
               "output is not " + std::to_string(k) + "-edge-connected");

  auto& v = p.values;
  // The decorator must agree with the engine's own counters, which count
  // the whole pass. (It need not agree with Network::rounds()/messages():
  // drivers charge some steps by formula without an execution, and charge
  // pipelined broadcasts under the library's older end-of-stream convention.)
  if (obs::enabled()) {
    const obs::Snapshot snap = obs::Registry::global().scrape();
    const bool net_engine = hub->name() == "net";
    const auto obs_rounds = static_cast<double>(
        snap.counter(net_engine ? "congest.net.rounds" : "congest.rounds"));
    const auto obs_msgs = static_cast<double>(
        snap.counter(net_engine ? "congest.net.messages" : "congest.messages"));
    ledger.check(obs_rounds == v["engine.rounds"] + static_cast<double>(out.tally.rounds) &&
                     obs_msgs == v["engine.messages"] + static_cast<double>(out.tally.messages),
                 "engine decorator totals differ from the engine's own obs counters");
  }
  v["rounds"] += static_cast<double>(out.rounds);
  v["messages"] += static_cast<double>(out.messages);
  v["weight"] += static_cast<double>(out.weight);
  v["lower_bound"] += static_cast<double>(lower_bound);
  v["solver_s"] += solver_s;
  v["driver.self_s"] += solver_s - solve_busy;
  v["tap.iterations"] += tap_iterations;
  v["kecss.iterations"] += kecss_iterations;
  v["verify_s"] += verify_s;
  v["verify.rounds"] += static_cast<double>(out.verify_rounds);
  v["engine.builds"] += static_cast<double>(out.tally.builds);
  v["engine.executions"] += static_cast<double>(out.tally.executions);
  v["engine.busy_s"] += out.tally.busy_s;
  v["engine.rounds"] += static_cast<double>(out.tally.rounds);
  v["engine.messages"] += static_cast<double>(out.tally.messages);
  for (const auto& ph : net->phases()) {
    const std::string grp = phase_group(ph.name);
    if (grp.empty()) continue;
    v["phase." + grp + ".rounds"] += static_cast<double>(ph.rounds);
    v["phase." + grp + ".messages"] += static_cast<double>(ph.messages);
    v["phase." + grp + ".wall_s"] += static_cast<double>(ph.wall_ns) * 1e-9;
  }
  return out;
}

/// The ratios of the solver sums, once every instance of the pass is in.
void finish_solves(Pass& p) {
  auto& v = p.values;
  v["weight_ratio"] = ratio(v["weight"], v["lower_bound"]);
  v["engine.ns_per_message"] = ratio(v["engine.busy_s"] * 1e9, v["engine.messages"]);
  v["engine.ns_per_round"] = ratio(v["engine.busy_s"] * 1e9, v["engine.rounds"]);
}

/// The net-layer counters since the last registry reset.
void record_net(Pass& p) {
  const obs::Snapshot s = obs::Registry::global().scrape();
  auto& v = p.values;
  const double delta = static_cast<double>(s.counter("congest.net.delta_frames"));
  const double full = static_cast<double>(s.counter("congest.net.full_frames"));
  v["net.round_wire_bytes"] =
      ratio(hist_sum(s, "congest.net.round_wire_bytes"), hist_count(s, "congest.net.round_wire_bytes"));
  v["net.delta_frame_share"] = ratio(delta, delta + full);
  v["net.barrier_wait_s"] = hist_sum(s, "congest.net.barrier_wait_ns") * 1e-9;
  v["net.send_thread_wait_s"] = hist_sum(s, "congest.net.send_thread_wait_ns") * 1e-9;
  v["net.recv_thread_wait_s"] = hist_sum(s, "congest.net.recv_thread_wait_ns") * 1e-9;
  v["net.tx_bytes"] = static_cast<double>(s.counter("net.tx.bytes"));
  v["net.tx_frames"] = static_cast<double>(s.counter("net.tx.frames"));
  v["net.reassigns"] = static_cast<double>(s.counter("congest.net.reassigns"));
}

/// The sketch-recovery counters of one pass, and the shape of its queries.
void record_recovery(Pass& p, double cert_edges, int copies_used, std::size_t bank_bytes,
                     int copies_per_vertex) {
  const obs::Snapshot s = obs::Registry::global().scrape();
  auto& v = p.values;
  const double samples = static_cast<double>(s.counter("recovery.samples"));
  v["recovery.rounds"] = static_cast<double>(s.counter("recovery.rounds"));
  v["recovery.samples"] = samples;
  v["recovery.failures"] = static_cast<double>(s.counter("recovery.failures"));
  v["recovery.merge_ratio"] = ratio(static_cast<double>(s.counter("recovery.merges")), samples);
  v["recovery.attempts"] = static_cast<double>(s.counter("recovery.attempts"));
  v["recovery.cert_edges"] = cert_edges;
  v["sketch.copies_used"] = copies_used;
  v["sketch.bank_bytes"] = static_cast<double>(bank_bytes);
  v["serve.gutter.flushes"] = static_cast<double>(s.counter("serve.gutter.flushes"));
  const double apply_ns = hist_sum(s, "serve.gutter.flush_ns");
  v["sketch.apply_busy_s"] = apply_ns * 1e-9;
  // Each flushed half-update is applied to every sketch copy of its source.
  v["sketch.apply_ns_per_update_copy"] =
      ratio(apply_ns, static_cast<double>(s.counter("serve.gutter.flushed_halves")) *
                          static_cast<double>(copies_per_vertex));
}

double apply_ns_so_far() {
  return obs::enabled() ? hist_sum(obs::Registry::global().scrape(), "serve.gutter.flush_ns") : 0.0;
}

/// Bytes of the sketch_io encoding of an empty bank shaped like a session's
/// live bank (the session's k, default sketch options).
std::pair<std::size_t, int> bank_shape(int n, int k) {
  SketchOptions opt;
  opt.max_forests = k;
  const SketchConnectivity bank(n, opt);
  return {encode_bank(bank).size(), bank.copies_total()};
}

// ---------------------------------------------------------------------------

/// stream → sketch → certificate → 2-ECSS → distributed verifier, over a
/// batch of independent streams (one session each).
class StreamChurn final : public Workload {
 public:
  static constexpr int kStreams = 8;
  static constexpr int kN = 256;
  static constexpr int kExtra = 16 * kN;
  static constexpr int kChurnPerEdge = 4;

  std::string describe() const override {
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "%d streams, each random_kec(%d, 2, %d) as %zu shuffled updates (%d churn pairs "
                  "per edge); each: ingest, flush, query k=2, 2-ECSS, verify",
                  kStreams, kN, kExtra, streams_[0].size(), kChurnPerEdge);
    return buf;
  }

  void prepare(std::uint64_t seed) override {
    Rng rng(seed);
    for (int i = 0; i < kStreams; ++i) {
      const Graph g = random_kec(kN, 2, kExtra, rng);
      GraphStream s = GraphStream::from_graph(g, rng);
      s.churn(kChurnPerEdge * g.num_edges(), rng);
      live_.push_back(s.materialize());
      streams_.push_back(std::move(s));
    }
    seed_ = seed;
    std::tie(bank_bytes_, copies_) = bank_shape(kN, 2);
  }

  Pass run_pass(Ledger& ledger) override {
    Pass p;
    double ingest_s = 0, flush_s = 0, query_s = 0, apply_ingest_s = 0, cert_edges = 0;
    std::size_t updates = 0;
    int copies_used = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      std::optional<GraphSession> session;
      {
        Section s(p, "bench.serve.open", &p.setup_s);
        session.emplace(kN, 2);
      }
      const double apply_before = apply_ns_so_far();
      {
        Section s(p, "bench.serve.ingest", &ingest_s);
        session->ingest(streams_[i]);
      }
      {
        Section s(p, "bench.serve.flush", &flush_s);
        session->flush();
      }
      apply_ingest_s += (apply_ns_so_far() - apply_before) * 1e-9;
      updates += streams_[i].size();
      SparsifyResult cert;
      double q = 0;
      {
        Section s(p, "bench.serve.query", &q);
        cert = session->query();
      }
      query_s += q;
      p.query_ms.push_back(q * 1e3);
      cert_edges += cert.certificate.num_edges();
      copies_used = cert.copies_used;
      ledger.check(forests_exact(live_[i], cert), "certificate forests are not exact");
      ledger.check(two_edge_connected(cert.certificate, all_edges(cert.certificate)),
                   "certificate is not 2-edge-connected");
      solve_and_verify(p, ledger, cert.certificate, 2, kecss_lower_bound(cert.certificate, 2),
                       EngineHub::sequential(), seed_);
    }
    finish_solves(p);
    record_recovery(p, cert_edges, copies_used, bank_bytes_, copies_);
    auto& v = p.values;
    v["serve.ingest_s"] = ingest_s;
    v["serve.flush_s"] = flush_s;
    v["serve.query_s"] = query_s;
    v["serve.gutter_self_s"] = ingest_s + flush_s - apply_ingest_s;
    v["serve.ingest_updates_per_s"] = ratio(static_cast<double>(updates), ingest_s + flush_s);
    return p;
  }

 private:
  std::vector<GraphStream> streams_;
  std::vector<Graph> live_;
  std::uint64_t seed_ = 1;
  std::size_t bank_bytes_ = 0;
  int copies_ = 0;
};

/// A batch of weighted graphs straight into the CONGEST solvers on seq (no
/// sketch stage): 2-ECSS instances (Thm 1.1) and 3-ECSS instances (Thm 1.2).
/// --trace 1 runs add the net probe: the first graph is also solved on a
/// 2-worker in-process CongestWorkerFleet (default options), which must
/// reproduce the seq output and counters.
class WeightedEcss final : public Workload {
 public:
  struct Family {
    int count, n, k, extra;
  };
  // 2-ECSS: message-bound, with MST, decomposition and TAP on top. 3-ECSS:
  // round-bound, thousands of short executions with small frontiers.
  static constexpr Family kFamilies[] = {{8, 1024, 2, 4096}, {4, 192, 3, 192}};

  std::string describe() const override {
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "%d x random_kec(%d, 2, %d) -> distributed_2ecss and %d x random_kec(%d, 3, %d) -> "
                  "distributed_kecss(3), uniform weights, on seq; verify each",
                  kFamilies[0].count, kFamilies[0].n, kFamilies[0].extra, kFamilies[1].count,
                  kFamilies[1].n, kFamilies[1].extra);
    return buf;
  }

  void prepare(std::uint64_t seed) override {
    Rng rng(seed);
    seed_ = seed;
    for (const Family& f : kFamilies) {
      for (int i = 0; i < f.count; ++i) {
        const Graph g = with_weights(random_kec(f.n, f.k, f.extra, rng), WeightModel::kUniform, rng);
        instances_.push_back({f.n, f.k, g.edges(), kecss_lower_bound(g, f.k)});
      }
    }
  }

  Pass run_pass(Ledger& ledger) override {
    Pass p;
    for (const Instance& inst : instances_) solve(p, ledger, inst, EngineHub::sequential());
    finish_solves(p);
    return p;
  }

  void probe(Ledger& ledger, Pass& out) override {
    const Instance& inst = instances_.front();
    obs::Registry::global().reset();
    Pass seq;
    const Solved ref = solve(seq, ledger, inst, EngineHub::sequential());
    obs::Registry::global().reset();
    Solved got;
    {
      std::unique_ptr<CongestWorkerFleet> fleet;
      {
        Section s(out, "bench.net.setup", &out.setup_s);
        fleet = std::make_unique<CongestWorkerFleet>(2);
      }
      got = solve(out, ledger, inst, fleet->hub());
    }
    record_net(out);
    out.values["net.total_s"] = out.total_s;
    out.values["net.slowdown"] = ratio(out.total_s, seq.total_s);
    ledger.check(got.edges == ref.edges && got.weight == ref.weight,
                 "net engine output differs from seq");
    ledger.check(got.rounds == ref.rounds && got.messages == ref.messages &&
                     got.verify_rounds == ref.verify_rounds,
                 "net engine Network counters differ from seq");
    ledger.check(got.tally.executions == ref.tally.executions &&
                     got.tally.rounds == ref.tally.rounds && got.tally.messages == ref.tally.messages,
                 "net engine executions differ from seq");
  }

 private:
  struct Instance {
    int n, k;
    std::vector<Edge> edges;
    Weight lower_bound;
  };

  Solved solve(Pass& p, Ledger& ledger, const Instance& inst, std::shared_ptr<EngineHub> hub) {
    // The input arrives as an edge list; loading it into a Graph is setup.
    Graph g(inst.n);
    {
      Section s(p, "bench.graph.load", &p.setup_s);
      for (const Edge& e : inst.edges) g.add_edge(e.u, e.v, e.w);
    }
    return solve_and_verify(p, ledger, g, inst.k, inst.lower_bound, std::move(hub), seed_);
  }

  std::vector<Instance> instances_;
  std::uint64_t seed_ = 1;
};

/// Closed loop, one client: bursts of inserts and deletes, then a query.
class ServeMixed final : public Workload {
 public:
  static constexpr int kN = 512;
  static constexpr int kExtra = 8 * kN;
  static constexpr int kCycles = 60;
  static constexpr int kBurst = 100;  // inserts, and as many deletes, per cycle

  std::string describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "random_kec(%d, 2, %d) base; %d cycles of %d inserts + %d deletes then query k=2",
                  kN, kExtra, kCycles, kBurst, kBurst);
    return buf;
  }

  void prepare(std::uint64_t seed) override {
    Rng rng(seed);
    base_ = random_kec(kN, 2, kExtra, rng);
    // The circulant ring random_kec starts from is the backbone that keeps
    // every intermediate graph 2-edge-connected; only other edges churn.
    auto key = [](VertexId u, VertexId v) {
      return u < v ? std::pair{u, v} : std::pair{v, u};
    };
    auto backbone = [](std::pair<VertexId, VertexId> e) {
      return e.second - e.first == 1 || (e.first == 0 && e.second == kN - 1);
    };
    std::set<std::pair<VertexId, VertexId>> live;
    std::vector<std::pair<VertexId, VertexId>> churnable;
    for (const Edge& e : base_.edges()) {
      live.insert(key(e.u, e.v));
      if (!backbone(key(e.u, e.v))) churnable.push_back(key(e.u, e.v));
    }
    cycles_.assign(kCycles, {});
    for (auto& burst : cycles_) {
      for (int i = 0; i < kBurst; ++i) {
        std::pair<VertexId, VertexId> e;
        do {
          e = key(static_cast<VertexId>(rng.next_below(kN)), static_cast<VertexId>(rng.next_below(kN)));
        } while (e.first == e.second || live.count(e) != 0);
        live.insert(e);
        churnable.push_back(e);
        burst.push_back({e.first, e.second, true});

        const std::size_t pick = rng.next_below(churnable.size());
        std::swap(churnable[pick], churnable.back());
        const auto gone = churnable.back();
        churnable.pop_back();
        live.erase(gone);
        burst.push_back({gone.first, gone.second, false});
      }
    }
    std::tie(bank_bytes_, copies_) = bank_shape(kN, 2);
    base_stream_ = GraphStream::from_graph(base_);
  }

  Pass run_pass(Ledger& ledger) override {
    Pass p;
    std::optional<GraphSession> session;
    {
      Section s(p, "bench.serve.open", &p.setup_s);
      session.emplace(kN, 2);
      session->ingest(base_stream_);
      session->query();
    }
    double update_s = 0, apply_in_updates_s = 0;
    double rounds = 0, samples = 0, cert_edges = 0, lower_bounds = 0;
    std::size_t updates = 0;
    SparsifyResult cert;
    for (const auto& burst : cycles_) {
      const double apply_before = apply_ns_so_far();
      {
        Section s(p, "bench.serve.update", &update_s);
        for (const StreamUpdate& u : burst) session->apply(u);
      }
      apply_in_updates_s += (apply_ns_so_far() - apply_before) * 1e-9;
      updates += burst.size();
      double q = 0;
      {
        Section s(p, "bench.serve.query", &q);
        cert = session->query();
      }
      p.query_ms.push_back(q * 1e3);
      rounds += cert.stats.rounds;
      samples += static_cast<double>(cert.stats.samples);
      const Graph live = session->stream().materialize();
      ledger.check(forests_exact(live, cert), "query forests are not exact");
      ledger.check(two_edge_connected(cert.certificate, all_edges(cert.certificate)),
                   "certificate is not 2-edge-connected");
      cert_edges += cert.certificate.num_edges();
      lower_bounds += static_cast<double>(kecss_lower_bound(live, 2));
    }
    auto& v = p.values;
    // This workload runs no CONGEST: its rounds and messages are those of
    // the sketch recovery that answers the queries, and its output is the
    // certificate itself (a 2-ECSS of the live graph).
    v["rounds"] = rounds;
    v["messages"] = samples;
    v["weight_ratio"] = ratio(cert_edges, lower_bounds);
    record_recovery(p, cert_edges, cert.copies_used, bank_bytes_, copies_);
    double query_s = 0;
    for (double ms : p.query_ms) query_s += ms * 1e-3;
    v["serve.ingest_s"] = update_s;
    v["serve.query_s"] = query_s;
    v["serve.gutter_self_s"] = update_s - apply_in_updates_s;
    v["serve.ingest_updates_per_s"] = ratio(static_cast<double>(updates), update_s);
    return p;
  }

 private:
  Graph base_;
  GraphStream base_stream_{1};
  std::vector<std::vector<StreamUpdate>> cycles_;
  std::size_t bank_bytes_ = 0;
  int copies_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"stream-churn", "weighted-ecss", "serve-mixed"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "stream-churn") return std::make_unique<StreamChurn>();
  if (name == "weighted-ecss") return std::make_unique<WeightedEcss>();
  if (name == "serve-mixed") return std::make_unique<ServeMixed>();
  return nullptr;
}

}  // namespace perfbench
