// F11 — CONGEST engine scaling curve: the same 2-ECSS pipeline executed on
// every backend (sequential, and the Transport-backed fleet with 1/2/4
// in-process workers). Round and message counters
// are part of the engine-identity contract — every row must match the
// sequential row exactly, and the `identical_to_seq` flag feeds the
// bench-regression gate (a false flag fails CI). Wall-clock per engine is
// reported for the scaling story but never gated.

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "congest/distributed_engine.hpp"
#include "congest/network.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "graph/edge_connectivity.hpp"

using namespace deck;

namespace {

struct EngineRun {
  std::string engine;
  int units = 1;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  Weight weight = 0;
  bool valid = false;
  double wall_ms = 0;
};

EngineRun run_once(const Graph& g, const std::string& engine, int units,
                   const std::shared_ptr<EngineHub>& hub) {
  EngineRun r;
  r.engine = engine;
  r.units = units;
  const auto t0 = std::chrono::steady_clock::now();
  Network net(g, hub);
  const Ecss2Result res = distributed_2ecss(net, TapOptions{});
  const auto t1 = std::chrono::steady_clock::now();
  r.rounds = net.rounds();
  r.messages = net.messages();
  r.weight = res.weight;
  r.valid = is_k_edge_connected_subset(g, res.edges, 2);
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool large = bench::flag(argc, argv, "--large");
  const bool smoke = bench::flag(argc, argv, "--smoke");
  const int n = smoke ? 48 : large ? 256 : 96;

  Rng rng(1100 + n);
  const Graph g = with_weights(random_kec(n, 2, n, rng), WeightModel::kUniform, rng);

  std::vector<EngineRun> runs;
  const EngineRun base = run_once(g, "seq", 1, EngineHub::sequential());
  runs.push_back(base);
  for (int workers : {1, 2, 4}) {
    CongestWorkerFleet fleet(workers);
    runs.push_back(run_once(g, "net", workers, fleet.hub()));
  }

  Table t({"engine", "units", "rounds", "messages", "identical", "wall ms", "speedup"});
  Json rows = Json::array();
  bool all_ok = true;
  for (const EngineRun& r : runs) {
    const bool identical =
        r.rounds == base.rounds && r.messages == base.messages && r.weight == base.weight;
    all_ok = all_ok && identical && r.valid;
    t.add(r.engine, r.units, r.rounds, r.messages, identical ? "yes" : "NO", r.wall_ms,
          base.wall_ms / r.wall_ms);
    Json row = Json::object();
    row.set("engine", r.engine)
        .set("units", r.units)
        .set("n", g.num_vertices())
        .set("rounds", r.rounds)
        .set("messages", r.messages)
        .set("output_2_edge_connected", r.valid)
        .set("identical_to_seq", identical)
        .set("wall_ms", r.wall_ms);
    rows.push(std::move(row));
  }
  t.print("F11: 2-ECSS engine scaling, " + g.summary());
  std::printf(
      "   counters must be engine-invariant; wall-clock shows the in-process cost of each "
      "backend\n");

  Json doc = Json::object();
  doc.set("bench", "f11_engine").set("all_ok", all_ok).set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok ? 0 : 1;
}
