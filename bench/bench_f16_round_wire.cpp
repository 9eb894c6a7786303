// F16 — net-engine round wire cost: coordinator wire bytes per round and
// wall time per round, at 4 workers. Each run
// also reports what its round frames would have cost in the fixed packet
// format (congest.net.round_fixed_bytes), so the delta codec's reduction
// comes from the same run.
//
// Two workload shapes bracket the delta codec's operating range:
//   * frontier-sparse — BFS on a vertex-shuffled circulant (chords 1..4).
//     The shuffle spreads every chord across worker ranges, so each round
//     ships a thin slice of boundary traffic whose payloads are the BFS
//     flood's near-constant packets: the delta format's best case, and the
//     shape the >= 5x reduction gate (`delta_reduction_ok`) is scored on:
//     fixed-format bytes over wire bytes.
//   * frontier-dense — the 2-ECSS pipeline on a random 2-edge-connected
//     graph: broad rounds with novel payloads (upcast keys, priorities),
//     the delta format's adversarial case; the gate only asks that bytes
//     never exceed the fixed format's (the codec falls back per frame;
//     `not_above_fixed` per row).
//
// Wire bytes, rounds, and messages are deterministic and gated per
// workload; every row's output must stay bit-identical to the
// sequential engine (identical_to_seq feeds the gate). Wall time is
// host-dependent and never gated.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/distributed_engine.hpp"
#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/rng.hpp"

using namespace deck;

namespace {

/// Circulant with chords 1..r under a seeded vertex shuffle: same topology,
/// but vertex ids — and therefore contiguous worker ranges — are spread
/// around the ring, so nearly every edge crosses a range boundary.
Graph shuffled_circulant(int n, int r, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> perm(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  const Graph ring = circulant(n, r);
  Graph g(n);
  for (const Edge& e : ring.edges())
    g.add_edge(perm[static_cast<std::size_t>(e.u)], perm[static_cast<std::size_t>(e.v)], e.w);
  return with_weights(g, WeightModel::kUniform, rng);
}

std::vector<EdgeId> bfs_digest(Network& net) {
  const RootedTree t = distributed_bfs(net, 0);
  std::vector<EdgeId> digest;
  for (VertexId v = 0; v < net.n(); ++v) digest.push_back(t.parent_edge(v));
  return digest;
}

struct SeqBase {
  std::vector<EdgeId> edges;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

struct WireRun {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_rounds = 0;  // barrier count: round_wire_bytes samples
  std::uint64_t fixed_bytes = 0;  // the same frames in the fixed packet format
  std::uint64_t delta_frames = 0;
  std::uint64_t full_frames = 0;
  bool identical = false;
  double wall_ms = 0;
};

template <typename Algo>
WireRun run_config(const Graph& g, Algo&& algo, const SeqBase& base) {
  obs::Registry::global().reset();
  WireRun r;
  const auto t0 = std::chrono::steady_clock::now();
  {
    CongestWorkerFleet fleet(4);
    Network net(g, fleet.hub());
    const std::vector<EdgeId> edges = algo(net);
    r.rounds = net.rounds();
    r.messages = net.messages();
    r.identical = edges == base.edges && r.rounds == base.rounds && r.messages == base.messages;
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
  const obs::Snapshot snap = obs::Registry::global().scrape();
  if (const obs::Histogram::Snap* h = snap.histogram("congest.net.round_wire_bytes");
      h != nullptr) {
    r.wire_bytes = h->sum;
    r.wire_rounds = h->count;
  }
  r.fixed_bytes = snap.counter("congest.net.round_fixed_bytes");
  r.delta_frames = snap.counter("congest.net.delta_frames");
  r.full_frames = snap.counter("congest.net.full_frames");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool large = bench::flag(argc, argv, "--large");
  const bool smoke = bench::flag(argc, argv, "--smoke");
  const int n = smoke ? 48 : large ? 192 : 96;

  obs::set_enabled(true);

  struct Workload {
    std::string name;
    Graph g;
    std::vector<EdgeId> (*algo)(Network&);
  };
  Rng rng(1600 + n);
  const std::vector<Workload> workloads = {
      {"frontier-sparse", shuffled_circulant(n, 4, 1601), bfs_digest},
      {"frontier-dense", with_weights(random_kec(n, 2, n, rng), WeightModel::kUniform, rng),
       [](Network& net) { return distributed_2ecss(net, TapOptions{}).edges; }},
  };

  Table t({"workload", "rounds", "wire bytes", "fixed bytes", "bytes/round",
           "delta/full", "identical", "wall ms"});
  Json rows = Json::array();
  bool all_ok = true;
  double sparse_fixed_bytes = 0, sparse_wire_bytes = 0;
  for (const Workload& w : workloads) {
    SeqBase base;
    {
      Network net(w.g);
      base.edges = w.algo(net);
      base.rounds = net.rounds();
      base.messages = net.messages();
    }
    const WireRun r = run_config(w.g, w.algo, base);
    const bool not_above_fixed = r.wire_bytes <= r.fixed_bytes;
    all_ok = all_ok && r.identical && not_above_fixed;
    if (w.name == "frontier-sparse") {
      sparse_fixed_bytes = static_cast<double>(r.fixed_bytes);
      sparse_wire_bytes = static_cast<double>(r.wire_bytes);
    }
    const double per_round =
        r.wire_rounds == 0 ? 0 : static_cast<double>(r.wire_bytes) /
                                     static_cast<double>(r.wire_rounds);
    t.add(w.name, r.rounds, r.wire_bytes, r.fixed_bytes, per_round,
          std::to_string(r.delta_frames) + "/" + std::to_string(r.full_frames),
          r.identical ? "yes" : "NO", r.wall_ms);
    Json row = Json::object();
    row.set("workload", w.name)
        .set("workers", 4)
        .set("n", n)
        .set("rounds", r.rounds)
        .set("messages", r.messages)
        .set("wire_bytes", r.wire_bytes)
        .set("round_fixed_bytes", r.fixed_bytes)
        .set("delta_frames", r.delta_frames)
        .set("full_frames", r.full_frames)
        .set("identical_to_seq", r.identical)
        .set("not_above_fixed", not_above_fixed)
        .set("wall_ms", r.wall_ms)
        .set("wall_ms_per_round", r.rounds == 0 ? 0 : r.wall_ms / static_cast<double>(r.rounds));
    rows.push(std::move(row));
  }

  const double reduction = sparse_wire_bytes == 0 ? 0 : sparse_fixed_bytes / sparse_wire_bytes;
  t.print("F16: coordinator round wire cost, 4 workers, n=" + std::to_string(n));
  std::printf(
      "   frontier-sparse delta reduction (fixed-format bytes / wire bytes): %.1fx (gate: >= 5x);\n"
      "   wire bytes and counters are config-deterministic, wall time is not\n",
      reduction);

  Json doc = Json::object();
  doc.set("bench", "f16_round_wire")
      .set("all_ok", all_ok)
      .set("sparse_delta_reduction", reduction)
      .set("delta_reduction_ok", reduction >= 5.0)
      .set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok && reduction >= 5.0 ? 0 : 1;
}
