#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/checkpoint.hpp"
#include "congest/distributed_engine.hpp"
#include "congest/engine.hpp"
#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "congest/programs.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "ecss/distributed_kecss.hpp"
#include "graph/generators.hpp"
#include "mst/distributed_mst.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "tap/distributed_tap.hpp"
#include "tap/tap_instance.hpp"

namespace deck {
namespace {

// Fault-tolerance property of the net engine (protocol v5): killing any
// worker at any protocol moment — mid-phase, at a checkpoint boundary, or
// between quiescence and collect — leaves the algorithm output and the
// solver-visible round/message counters bit-identical to the sequential
// engine. Kill points are named by coordinator-side receive frame indices
// (net/fault.hpp), so every test here is deterministic. Delta round frames
// are always on, so every sweep below exercises them.

struct RunRecord {
  std::vector<EdgeId> edges;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

Graph weighted_graph(int n, int k, std::uint64_t seed) {
  Rng rng(seed);
  return with_weights(random_kec(n, k, n, rng), WeightModel::kUniform, rng);
}

template <typename Algo>
RunRecord run_seq(const Graph& g, Algo&& algo) {
  Network net(g);
  RunRecord r;
  r.edges = algo(net);
  r.rounds = net.rounds();
  r.messages = net.messages();
  return r;
}

/// Runs `algo` on a faulted fleet and returns (record, workers still alive).
template <typename Algo>
std::pair<RunRecord, int> run_fleet(const Graph& g, Algo&& algo, int workers,
                                    FleetOptions options) {
  CongestWorkerFleet fleet(workers, std::move(options));
  RunRecord r;
  int alive = 0;
  {
    Network net(g, fleet.hub());
    r.edges = algo(net);
    r.rounds = net.rounds();
    r.messages = net.messages();
    alive = fleet.hub()->num_alive();
  }
  return {r, alive};
}

FleetOptions kill_at(int workers, int victim, std::size_t frame, int checkpoint_interval) {
  FleetOptions o;
  o.hub.checkpoint_interval = checkpoint_interval;
  o.coordinator_faults.resize(static_cast<std::size_t>(workers));
  o.coordinator_faults[static_cast<std::size_t>(victim)] = {
      FaultRule{frame, FaultRule::Kind::kKill, 0}};
  return o;
}

std::vector<EdgeId> bfs_digest(Network& net) {
  const RootedTree t = distributed_bfs(net, 0);
  std::vector<EdgeId> digest;
  for (VertexId v = 0; v < net.n(); ++v) digest.push_back(t.parent_edge(v));
  return digest;
}

TEST(Failover, EveryKillPointOfAPhaseIsBitIdentical) {
  // Exhaustive: kill worker `victim` at EVERY coordinator-side frame index
  // past the Hello, for both victims of a 2-worker fleet, with and without
  // checkpoints. The sweep self-terminates when the kill index runs past
  // the phase (the fleet then finishes with nobody dead).
  const Graph g = weighted_graph(24, 2, 4001);
  const auto algo = [](Network& net) { return bfs_digest(net); };
  const RunRecord base = run_seq(g, algo);
  for (int checkpoint_interval : {0, 1, 2}) {
    for (int victim : {0, 1}) {
      for (std::size_t frame = 1;; ++frame) {
        const auto [got, alive] =
            run_fleet(g, algo, 2, kill_at(2, victim, frame, checkpoint_interval));
        EXPECT_EQ(got, base) << "victim " << victim << " killed at frame " << frame
                             << " with checkpoint interval " << checkpoint_interval;
        if (alive == 2) break;  // the kill never fired: the sweep is done
        EXPECT_EQ(alive, 1);
      }
    }
  }
}

TEST(Failover, KillMidPipelineIsBitIdenticalForEveryAlgorithm) {
  // The acceptance matrix: 2-ECSS / k-ECSS / MST / TAP, workers in {2, 4},
  // checkpoint interval in {1, 8}, early and late kill points.
  struct Case {
    const char* what;
    Graph g;
    std::function<std::vector<EdgeId>(Network&)> algo;
  };
  Rng tap_rng(4004);
  TapInstance inst = random_tap_instance(30, 20, 1, tap_rng);
  const std::vector<Case> cases = {
      {"2-ecss", weighted_graph(24, 2, 4002),
       [](Network& net) { return distributed_2ecss(net, TapOptions{}).edges; }},
      {"k-ecss", weighted_graph(20, 3, 4003),
       [](Network& net) {
         KecssOptions opt;
         opt.seed = 7;
         return distributed_kecss(net, 3, opt).edges;
       }},
      {"mst", weighted_graph(28, 2, 4005),
       [](Network& net) {
         const RootedTree bfs = distributed_bfs(net, 0);
         return distributed_mst(net, bfs).mst_edges;
       }},
      {"tap", inst.g,
       [&inst](Network& net) {
         return distributed_tap_standalone(net, inst, TapOptions{}).augmentation;
       }},
  };
  for (const Case& c : cases) {
    const RunRecord base = run_seq(c.g, c.algo);
    for (int workers : {2, 4}) {
      for (int checkpoint_interval : {1, 8}) {
        for (const auto& [victim, frame] : {std::pair<int, std::size_t>{0, 7},
                                            {workers - 1, 4}}) {
          const auto [got, alive] =
              run_fleet(c.g, c.algo, workers, kill_at(workers, victim, frame, checkpoint_interval));
          EXPECT_EQ(got, base) << c.what << ": " << workers << " workers, interval "
                               << checkpoint_interval << ", victim " << victim << " at frame "
                               << frame;
          EXPECT_EQ(alive, workers - 1) << c.what;
        }
      }
    }
  }
}

TEST(Failover, EveryKillPointSurvivesEveryHotPathConfig) {
  // Every coordinator-side kill frame of a phase with checkpoints on.
  // Recovery replays coordinator logs as fixed-format frames whatever
  // format the live delta codec chose, so the outcome must match the
  // sequential run.
  const Graph g = weighted_graph(24, 2, 4020);
  const auto algo = [](Network& net) { return bfs_digest(net); };
  const RunRecord base = run_seq(g, algo);
  for (std::size_t frame = 1;; ++frame) {
    const auto [got, alive] =
        run_fleet(g, algo, 2, kill_at(2, 0, frame, /*checkpoint_interval=*/2));
    EXPECT_EQ(got, base) << "killed at frame " << frame;
    if (alive == 2) break;  // the kill never fired: the sweep is done
    EXPECT_EQ(alive, 1);
  }
}

TEST(Failover, TwoDeathsInOnePhaseCascadeOntoSurvivors) {
  const Graph g = weighted_graph(32, 2, 4006);
  const auto algo = [](Network& net) { return distributed_2ecss(net, TapOptions{}).edges; };
  const RunRecord base = run_seq(g, algo);
  FleetOptions o;
  o.hub.checkpoint_interval = 2;
  o.coordinator_faults.resize(4);
  o.coordinator_faults[1] = {FaultRule{3, FaultRule::Kind::kKill, 0}};
  o.coordinator_faults[3] = {FaultRule{6, FaultRule::Kind::kKill, 0}};
  const auto [got, alive] = run_fleet(g, algo, 4, o);
  EXPECT_EQ(got, base);
  EXPECT_EQ(alive, 2);
}

TEST(Failover, SpareWorkerAdoptsTheOrphanedRange) {
  // With a rangeless spare in the fleet, the spare is the preferred
  // adoption target (least-loaded); output identity is unchanged.
  const Graph g = weighted_graph(26, 2, 4007);
  const auto algo = [](Network& net) { return bfs_digest(net); };
  const RunRecord base = run_seq(g, algo);
  FleetOptions o = kill_at(3, 0, 2, 1);
  o.hub.spares = 1;
  const auto [got, alive] = run_fleet(g, algo, 3, o);
  EXPECT_EQ(got, base);
  EXPECT_EQ(alive, 2);
}

TEST(Failover, DroppedFrameBecomesADeathUnderARecvDeadline) {
  // A dropped RoundDone leaves the worker alive but the coordinator deaf to
  // it; with a recv deadline the silence is declared a death and the phase
  // recovers. (Without a deadline this would stall forever — deadlines are
  // what make drop faults survivable.)
  const Graph g = weighted_graph(24, 2, 4008);
  const auto algo = [](Network& net) { return bfs_digest(net); };
  const RunRecord base = run_seq(g, algo);
  FleetOptions o;
  o.hub.recv.timeout_ms = 200;
  o.hub.checkpoint_interval = 1;
  o.coordinator_faults.resize(2);
  o.coordinator_faults[1] = {FaultRule{2, FaultRule::Kind::kDrop, 0}};
  const auto [got, alive] = run_fleet(g, algo, 2, o);
  EXPECT_EQ(got, base);
  EXPECT_EQ(alive, 1);
}

TEST(Failover, DelaysAndHeartbeatsNeverChangeTheOutcome) {
  // A slow worker under a recv deadline survives: delays stretch the wall
  // clock, heartbeats prove liveness, retries absorb the rest. Nobody dies
  // and the output is identical.
  const Graph g = weighted_graph(24, 2, 4009);
  const auto algo = [](Network& net) { return bfs_digest(net); };
  const RunRecord base = run_seq(g, algo);
  FleetOptions o;
  o.hub.recv.timeout_ms = 150;
  o.hub.recv.retries = 3;
  o.hub.recv.backoff_ms = 10;
  o.worker.heartbeat_ms = 25;
  o.coordinator_faults.resize(2);
  o.coordinator_faults[0] = {FaultRule{2, FaultRule::Kind::kDelay, 120},
                             FaultRule{4, FaultRule::Kind::kDelay, 120}};
  const auto [got, alive] = run_fleet(g, algo, 2, o);
  EXPECT_EQ(got, base);
  EXPECT_EQ(alive, 2);
}

TEST(Failover, ScheduledWorkerSuicideIsRecoveredLikeAnyDeath) {
  // kill_after_rounds makes the *worker* die (transport close from its
  // side), the deployment-shaped twin of the coordinator-side kill rule.
  // Worker options are per-link, so the fleet is hand-built over loopback.
  const Graph g = weighted_graph(24, 2, 4010);
  const auto algo = [](Network& net) { return bfs_digest(net); };
  const RunRecord base = run_seq(g, algo);

  std::vector<std::unique_ptr<Transport>> coordinator_side;
  std::vector<Transport*> raw;
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    auto [coord, work] = loopback_pair();
    coordinator_side.push_back(std::move(coord));
    raw.push_back(coordinator_side.back().get());
    WorkerOptions wo;
    if (w == 0) wo.kill_after_rounds = 2;  // only worker 0 is suicidal
    threads.emplace_back([t = std::shared_ptr<Transport>(std::move(work)), wo] {
      try {
        run_congest_worker(*t, wo);
      } catch (const NetError&) {
      }
    });
  }
  {
    DistributedHubOptions ho;
    ho.checkpoint_interval = 1;
    auto hub = make_distributed_hub(raw, ho);
    {
      Network net(g, hub);
      RunRecord got;
      got.edges = algo(net);
      got.rounds = net.rounds();
      got.messages = net.messages();
      EXPECT_EQ(got, base);
      EXPECT_EQ(hub->num_alive(), 1);
    }
    hub->shutdown();
  }
  for (auto& t : coordinator_side) t->close();
  for (auto& th : threads) th.join();
}

TEST(Failover, Ecss2SurvivesAMidPhaseKill) {
  // The 2-ECSS pipeline with worker 1 killed mid-phase under an 8-round
  // checkpoint interval: the survivor adopts its range bit-identically.
  const Graph g = weighted_graph(28, 2, 4011);
  const auto algo = [](Network& net) { return distributed_2ecss(net, TapOptions{}).edges; };
  const RunRecord base = run_seq(g, algo);
  const auto [got, alive] = run_fleet(g, algo, 2, kill_at(2, 1, 5, 8));
  EXPECT_EQ(got, base);
  EXPECT_EQ(alive, 1);
}

TEST(Failover, CheckpointCadenceAloneNeverPerturbsAnything) {
  // Checkpointing with no faults: pure overhead, zero behavior change.
  const Graph g = weighted_graph(24, 2, 4012);
  const auto algo = [](Network& net) { return distributed_2ecss(net, TapOptions{}).edges; };
  const RunRecord base = run_seq(g, algo);
  for (int checkpoint_interval : {1, 8, 64}) {
    FleetOptions o;
    o.hub.checkpoint_interval = checkpoint_interval;
    const auto [got, alive] = run_fleet(g, algo, 2, o);
    EXPECT_EQ(got, base) << "interval " << checkpoint_interval;
    EXPECT_EQ(alive, 2);
  }
}

TEST(Failover, KillingTheLastWorkerIsATypedError) {
  const Graph g = weighted_graph(16, 2, 4013);
  FleetOptions o = kill_at(1, 0, 2, 1);
  CongestWorkerFleet fleet(1, o);
  Network net(g, fleet.hub());
  EXPECT_THROW((void)distributed_bfs(net, 0), NetError);
}

TEST(Failover, FailoverRunsOverRealTcpSockets) {
  // The same recovery over real sockets: one worker dies by schedule
  // (closing its TCP end), the other absorbs its range.
  const Graph g = weighted_graph(24, 2, 4014);
  Network seq(g);
  const Ecss2Result base = distributed_2ecss(seq, TapOptions{});

  TcpListener listener;
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([w, port = listener.port()] {
      const std::unique_ptr<Transport> t = tcp_connect("127.0.0.1", port);
      WorkerOptions wo;
      if (w == 0) wo.kill_after_rounds = 3;
      try {
        run_congest_worker(*t, wo);
      } catch (const NetError&) {
      }
    });
  }
  std::vector<std::unique_ptr<Transport>> accepted;
  std::vector<Transport*> raw;
  for (int w = 0; w < 2; ++w) {
    accepted.push_back(listener.accept());
    raw.push_back(accepted.back().get());
  }
  // The two TCP connections race to accept(); kill_after_rounds fires on
  // whichever slot the killer landed in, which recovery makes irrelevant.
  {
    DistributedHubOptions ho;
    ho.checkpoint_interval = 4;
    auto hub = make_distributed_hub(raw, ho);
    {
      Network net(g, hub);
      const Ecss2Result got = distributed_2ecss(net, TapOptions{});
      EXPECT_EQ(got.edges, base.edges);
      EXPECT_EQ(net.rounds(), seq.rounds());
      EXPECT_EQ(net.messages(), seq.messages());
      EXPECT_EQ(hub->num_alive(), 1);
    }
    hub->shutdown();
  }
  for (auto& th : threads) th.join();
}

TEST(Failover, FleetRunsOverIpv6WithAMidPhaseDeath) {
  // Same protocol, AF_INET6 sockets ("::1"), one scheduled worker death.
  const Graph g = weighted_graph(20, 2, 4016);
  Network seq(g);
  const Ecss2Result base = distributed_2ecss(seq, TapOptions{});

  TcpListener listener(0, "::1");
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([w, port = listener.port()] {
      const std::unique_ptr<Transport> t = tcp_connect("::1", port);
      WorkerOptions wo;
      if (w == 0) wo.kill_after_rounds = 2;
      try {
        run_congest_worker(*t, wo);
      } catch (const NetError&) {
      }
    });
  }
  std::vector<std::unique_ptr<Transport>> accepted;
  std::vector<Transport*> raw;
  for (int w = 0; w < 2; ++w) {
    accepted.push_back(listener.accept());
    raw.push_back(accepted.back().get());
  }
  {
    DistributedHubOptions ho;
    ho.checkpoint_interval = 1;
    auto hub = make_distributed_hub(raw, ho);
    {
      Network net(g, hub);
      const Ecss2Result got = distributed_2ecss(net, TapOptions{});
      EXPECT_EQ(got.edges, base.edges);
      EXPECT_EQ(net.rounds(), seq.rounds());
      EXPECT_EQ(net.messages(), seq.messages());
      EXPECT_EQ(hub->num_alive(), 1);
    }
    hub->shutdown();
  }
  for (auto& th : threads) th.join();
}

TEST(Failover, CiFaultMatrixLeg) {
  // The CI fault-injection wall drives this test through a matrix of
  // (fault kind, fleet size) via environment variables; each leg sweeps a
  // handful of scripted schedules of that kind. Locally (no env) it runs
  // the kill leg at 2 workers.
  const char* kind_env = std::getenv("DECK_FAULT_KIND");
  const char* workers_env = std::getenv("DECK_FAULT_WORKERS");
  const std::string kind = kind_env != nullptr ? kind_env : "kill";
  const int workers = workers_env != nullptr ? std::atoi(workers_env) : 2;
  ASSERT_GE(workers, 2) << "DECK_FAULT_WORKERS must be >= 2";

  const Graph g = weighted_graph(28, 2, 4017);
  const auto algo = [](Network& net) { return distributed_2ecss(net, TapOptions{}).edges; };
  const RunRecord base = run_seq(g, algo);

  for (int checkpoint_interval : {1, 8}) {
    for (const std::size_t frame : {std::size_t{2}, std::size_t{5}, std::size_t{9}}) {
      FleetOptions o;
      o.hub.checkpoint_interval = checkpoint_interval;
      o.coordinator_faults.resize(static_cast<std::size_t>(workers));
      const int victim = static_cast<int>(frame) % workers;
      int expect_alive = workers;
      if (kind == "kill") {
        o.coordinator_faults[static_cast<std::size_t>(victim)] = {
            FaultRule{frame, FaultRule::Kind::kKill, 0}};
        expect_alive = workers - 1;
      } else if (kind == "drop") {
        o.hub.recv.timeout_ms = 500;
        o.coordinator_faults[static_cast<std::size_t>(victim)] = {
            FaultRule{frame, FaultRule::Kind::kDrop, 0}};
        expect_alive = workers - 1;  // silence past the deadline is death
      } else if (kind == "delay") {
        o.hub.recv.timeout_ms = 200;
        o.hub.recv.retries = 4;
        o.worker.heartbeat_ms = 25;
        o.coordinator_faults[static_cast<std::size_t>(victim)] = {
            FaultRule{frame, FaultRule::Kind::kDelay, 120}};
        expect_alive = workers;  // slow is not dead
      } else {
        FAIL() << "unknown DECK_FAULT_KIND '" << kind << "'";
      }
      const auto [got, alive] = run_fleet(g, algo, workers, std::move(o));
      EXPECT_EQ(got, base) << kind << " at frame " << frame << ", " << workers
                           << " workers, interval " << checkpoint_interval;
      EXPECT_EQ(alive, expect_alive) << kind << " at frame " << frame;
    }
  }
}

// ---------------------------------------------------------------------------
// Program state restore, per primitive family. Each CONGEST primitive runs
// a different VertexProgram with different mutable state (pipeline queues,
// frontiers, received lists); a kill after a checkpoint forces that
// program's decode_state + resume path. Sweep every kill point of every
// primitive's phase with checkpoints on.

TEST(Failover, EveryPrimitiveProgramRestoresItsStateMidPhase) {
  const Graph g = weighted_graph(16, 2, 4040);
  using Digest = std::vector<EdgeId>;
  const auto fold = [](Digest& d, std::uint64_t x) {
    d.push_back(static_cast<EdgeId>(x % 1000003));
  };
  const auto forest_of = [](Network& net) {
    return CommForest::from_tree(distributed_bfs(net, 0));
  };
  const auto fold_items = [&fold](Digest& d, const std::vector<KeyedItem>& items) {
    for (const KeyedItem& it : items) {
      fold(d, it.key);
      fold(d, it.prio);
      fold(d, it.payload);
    }
  };

  std::vector<std::pair<const char*, std::function<Digest(Network&)>>> prims;
  prims.emplace_back("convergecast", [&](Network& net) {
    const CommForest f = forest_of(net);
    std::vector<std::uint64_t> vals(static_cast<std::size_t>(net.n()));
    for (VertexId v = 0; v < net.n(); ++v)
      vals[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(v) * 3 + 1;
    Digest d;
    for (std::uint64_t x : convergecast(net, f, std::move(vals), CombineOp::kSum)) fold(d, x);
    return d;
  });
  prims.emplace_back("broadcast", [&](Network& net) {
    const CommForest f = forest_of(net);
    std::vector<std::uint64_t> root_value(static_cast<std::size_t>(net.n()));
    for (VertexId v = 0; v < net.n(); ++v)
      root_value[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(v) * 2 + 5;
    Digest d;
    for (std::uint64_t x : broadcast(net, f, std::move(root_value))) fold(d, x);
    return d;
  });
  prims.emplace_back("keyed-upcast", [&](Network& net) {
    const CommForest f = forest_of(net);
    std::vector<std::vector<KeyedItem>> items(static_cast<std::size_t>(net.n()));
    for (VertexId v = 0; v < net.n(); ++v)
      items[static_cast<std::size_t>(v)].push_back(
          KeyedItem{static_cast<std::uint64_t>(v % 3), static_cast<std::uint64_t>(100 - v),
                    static_cast<std::uint64_t>(v)});
    Digest d;
    for (const auto& fin : keyed_min_upcast(net, f, std::move(items))) fold_items(d, fin);
    return d;
  });
  prims.emplace_back("ancestor-merge", [&](Network& net) {
    const CommForest f = forest_of(net);
    std::vector<std::vector<KeyedItem>> items(static_cast<std::size_t>(net.n()));
    for (VertexId v = 0; v < net.n(); ++v) {
      // Valid ancestor-edge keys for v are forest depths 0 .. depth(v) - 1.
      for (int k = 0; k < std::min(2, f.depth[static_cast<std::size_t>(v)]); ++k)
        items[static_cast<std::size_t>(v)].push_back(
            KeyedItem{static_cast<std::uint64_t>(k), static_cast<std::uint64_t>((v * 5) % 17),
                      static_cast<std::uint64_t>(v)});
    }
    Digest d;
    for (const auto& fin : ancestor_min_merge(net, f, std::move(items))) {
      if (fin.has_value()) {
        fold(d, fin->key);
        fold(d, fin->prio);
        fold(d, fin->payload);
      } else {
        fold(d, 0xDEADu);
      }
    }
    return d;
  });
  prims.emplace_back("pipelined-broadcast", [&](Network& net) {
    // Runs the program itself rather than the wrapper so the digest sees
    // the per-vertex counts a mid-broadcast restore has to bring back.
    const CommForest f = forest_of(net);
    std::vector<KeyedItem> list;
    for (int i = 0; i < 5; ++i)
      list.push_back(KeyedItem{static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(9 - i),
                               static_cast<std::uint64_t>(i * i)});
    PipelinedBroadcastProgram prog(ForestData::from_comm_forest(f), 0, std::move(list));
    const ExecStats stats = net.engine().execute(prog);
    net.charge(stats.rounds, stats.messages);
    Digest d;
    fold_items(d, prog.list());
    for (std::uint32_t got : prog.count) fold(d, got);
    return d;
  });
  prims.emplace_back("path-downcast", [&](Network& net) {
    const CommForest f = forest_of(net);
    std::vector<KeyedItem> own(static_cast<std::size_t>(net.n()));
    for (VertexId v = 0; v < net.n(); ++v)
      own[static_cast<std::size_t>(v)] =
          KeyedItem{static_cast<std::uint64_t>(v) * 10, static_cast<std::uint64_t>(v), 0};
    Digest d;
    for (const auto& got : path_downcast(net, f, std::move(own))) fold_items(d, got);
    return d;
  });
  prims.emplace_back("edge-exchange", [&](Network& net) {
    std::vector<EdgeId> edges;
    std::vector<std::vector<std::uint64_t>> fu, fv;
    for (EdgeId e = 0; e < 6; ++e) {
      edges.push_back(e);
      fu.push_back({static_cast<std::uint64_t>(e) + 1, static_cast<std::uint64_t>(e) * 2});
      fv.push_back({static_cast<std::uint64_t>(e) + 100});
    }
    const ExchangeResult r = edge_exchange(net, edges, fu, fv);
    Digest d;
    for (const auto& xs : r.at_u)
      for (std::uint64_t x : xs) fold(d, x);
    for (const auto& xs : r.at_v)
      for (std::uint64_t x : xs) fold(d, x);
    return d;
  });

  for (const auto& [what, algo] : prims) {
    const RunRecord base = run_seq(g, algo);
    for (std::size_t frame = 1;; ++frame) {
      const auto [got, alive] = run_fleet(g, algo, 2, kill_at(2, 0, frame, /*interval=*/2));
      EXPECT_EQ(got, base) << what << ": kill at frame " << frame;
      if (alive == 2) break;  // the kill never fired: the sweep is done
    }
  }
}

// ---------------------------------------------------------------------------
// Observability across a failover: the merged trace and the metrics
// registry must describe the run that actually happened — survivor lanes
// present, the death and the reassignment counted, checkpoints priced.

TEST(Failover, TracesAndMetricsFollowTheFleetThroughAFailover) {
  obs::set_enabled(true);
  obs::set_tracing(true);
  obs::set_trace_id(0xF00D);
  obs::Registry::global().reset();
  obs::TraceSink::global().clear();

  const Graph g = weighted_graph(24, 2, 4050);
  const auto algo = [](Network& net) { return distributed_2ecss(net, TapOptions{}).edges; };
  const RunRecord base = run_seq(g, algo);  // traced too: covers the seq engine's spans
  obs::TraceSink::global().clear();

  const auto [got, alive] = run_fleet(g, algo, 2, kill_at(2, 0, 5, /*interval=*/1));
  EXPECT_EQ(got, base);
  EXPECT_EQ(alive, 1);

  const obs::Snapshot snap = obs::Registry::global().scrape();
  EXPECT_EQ(snap.counter("congest.net.worker_deaths"), 1u);
  EXPECT_GE(snap.counter("congest.net.reassigns"), 1u);
  const obs::Histogram::Snap* cp = snap.histogram("congest.net.checkpoint_bytes");
  ASSERT_NE(cp, nullptr);
  EXPECT_GE(cp->count, 1u);

  // The survivor (worker 1, trace lane pid 2) shipped its span buffer; the
  // dead worker's lane is simply absent — a death must never corrupt or
  // stall the merged trace.
  bool survivor_lane = false, dead_lane = false;
  for (const obs::TraceEvent& ev : obs::TraceSink::global().drain()) {
    if (ev.name == "worker.execute") {
      survivor_lane = survivor_lane || ev.pid == 2;
      dead_lane = dead_lane || ev.pid == 1;
    }
  }
  EXPECT_TRUE(survivor_lane);
  EXPECT_FALSE(dead_lane);

  obs::set_tracing(false);
  obs::set_enabled(false);
  obs::TraceSink::global().clear();
  obs::Registry::global().reset();
}

// ---------------------------------------------------------------------------
// Worker-side protocol validation: a malformed coordinator frame must kill
// the worker with a typed NetError naming the defect — never undefined
// behavior, never a silently wrong state.

std::vector<std::uint8_t> frame_head(CongestMsg type) {
  std::vector<std::uint8_t> f;
  net::put_u32(f, static_cast<std::uint32_t>(type));
  return f;
}

std::vector<std::uint8_t> load_graph_frame(
    std::uint32_t id, std::uint32_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges, std::uint32_t lo,
    std::uint32_t hi) {
  std::vector<std::uint8_t> f = frame_head(CongestMsg::kLoadGraph);
  net::put_u32(f, id);
  net::put_u32(f, n);
  net::put_u32(f, static_cast<std::uint32_t>(edges.size()));
  for (const auto& [u, v] : edges) {
    net::put_u32(f, u);
    net::put_u32(f, v);
    net::put_u64(f, 1);
  }
  net::put_u32(f, lo);
  net::put_u32(f, hi);
  return f;
}

/// Feeds `frames` to a fresh worker (after consuming its Hello) and returns
/// the typed error message the worker died with.
std::string worker_rejects(const std::vector<std::vector<std::uint8_t>>& frames) {
  auto [coord, work] = loopback_pair();
  std::string what;
  std::thread t([&what, &work] {
    try {
      run_congest_worker(*work);
    } catch (const NetError& e) {
      what = e.what();
    }
  });
  coord->recv();  // Hello
  for (const auto& f : frames) coord->send(f);
  t.join();
  coord->close();
  return what;
}

std::vector<std::uint8_t> square_graph_frame() {
  return load_graph_frame(1, 4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 0, 4);
}

TEST(WorkerProtocol, MalformedLoadAndDropFramesAreTypedErrors) {
  EXPECT_NE(worker_rejects({load_graph_frame(1, 4, {{0, 9}}, 0, 4)})
                .find("edge endpoint out of range"),
            std::string::npos);
  EXPECT_NE(worker_rejects({load_graph_frame(1, 4, {{0, 1}}, 3, 2)}).find("range is malformed"),
            std::string::npos);
  EXPECT_NE(worker_rejects({square_graph_frame(), square_graph_frame()})
                .find("reuses live graph id"),
            std::string::npos);
  std::vector<std::uint8_t> drop = frame_head(CongestMsg::kDropGraph);
  net::put_u32(drop, 9);
  EXPECT_NE(worker_rejects({drop}).find("unknown graph id"), std::string::npos);
}

TEST(WorkerProtocol, MalformedRestoreFramesAreTypedErrors) {
  // kRestore body: mode, graph id, program id, lo, hi, cp_present
  // [, len + checkpoint blob], replay entries, spec.
  const auto restore = [](std::uint32_t mode, std::uint32_t gid, std::uint32_t pid,
                          std::uint32_t lo, std::uint32_t hi, const std::vector<std::uint8_t>& cp,
                          const std::vector<std::uint8_t>& tail) {
    std::vector<std::uint8_t> f = frame_head(CongestMsg::kRestore);
    net::put_u32(f, mode);
    net::put_u32(f, gid);
    net::put_u32(f, pid);
    net::put_u32(f, lo);
    net::put_u32(f, hi);
    net::put_u32(f, cp.empty() ? 0 : 1);
    if (!cp.empty()) {
      net::put_u64(f, cp.size());
      net::put_bytes(f, cp);
    }
    f.insert(f.end(), tail.begin(), tail.end());
    return f;
  };
  const std::vector<std::uint8_t> no_replay = {0, 0, 0, 0};  // replay_rounds = 0, no spec

  EXPECT_NE(worker_rejects({square_graph_frame(), restore(0, 1, 1, 0, 4, {}, no_replay)})
                .find("outside a phase"),
            std::string::npos);
  EXPECT_NE(worker_rejects({square_graph_frame(), restore(1, 9, 1, 0, 4, {}, no_replay)})
                .find("unknown graph id"),
            std::string::npos);
  EXPECT_NE(worker_rejects({square_graph_frame(), restore(1, 1, 1, 0, 9, {}, no_replay)})
                .find("Restore range is malformed"),
            std::string::npos);

  CheckpointBlob foreign;  // a valid blob for a different program
  foreign.program_id = 999;
  foreign.lo = 0;
  foreign.hi = 4;
  foreign.round = 1;
  std::vector<std::uint8_t> foreign_bytes;
  encode_checkpoint(foreign, foreign_bytes);
  EXPECT_NE(worker_rejects({square_graph_frame(), restore(1, 1, 1, 0, 4, foreign_bytes, {})})
                .find("checkpoint does not match"),
            std::string::npos);

  std::vector<std::uint8_t> forged_rounds;  // 2^32 - 1 replay rounds, none carried
  net::put_u32(forged_rounds, 0xffffffffu);
  EXPECT_NE(worker_rejects({square_graph_frame(), restore(1, 1, 1, 0, 4, {}, forged_rounds)})
                .find("replay round count longer than frame"),
            std::string::npos);

  std::vector<std::uint8_t> oversized;  // one replay round claiming 2^20 packets
  net::put_u32(oversized, 1);
  net::put_u32(oversized, 1);
  net::put_u32(oversized, 1u << 20);
  EXPECT_NE(worker_rejects({square_graph_frame(), restore(1, 1, 1, 0, 4, {}, oversized)})
                .find("replay longer than frame"),
            std::string::npos);

  BfsProgram bfs(4, 0);
  std::vector<std::uint8_t> spec;
  bfs.encode_spec(spec);
  const std::uint32_t bfs_id = bfs.program_id();

  std::vector<std::uint8_t> bogus_edge;  // round 1 delivers on edge 99 of a 4-edge graph
  net::put_u32(bogus_edge, 1);
  net::put_u32(bogus_edge, 1);
  net::put_u32(bogus_edge, 1);
  net::put_u32(bogus_edge, 99);  // edge
  net::put_u32(bogus_edge, 0);   // dir
  net::put_u32(bogus_edge, 0);   // tag
  net::put_u64(bogus_edge, 0);
  net::put_u64(bogus_edge, 0);
  net::put_u64(bogus_edge, 0);
  net::put_bytes(bogus_edge, spec);
  EXPECT_NE(worker_rejects({square_graph_frame(), restore(1, 1, bfs_id, 0, 4, {}, bogus_edge)})
                .find("bogus edge id"),
            std::string::npos);

  // A structurally valid finish-Restore of a range that still wants to send
  // (a fresh BFS root) contradicts the phase-over contract.
  std::vector<std::uint8_t> fresh;
  net::put_u32(fresh, 0);  // no replay
  net::put_bytes(fresh, spec);
  EXPECT_NE(worker_rejects({square_graph_frame(), restore(1, 1, bfs_id, 0, 4, {}, fresh)})
                .find("was not quiescent"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Checkpoint codec.

CheckpointBlob sample_blob() {
  CheckpointBlob cp;
  cp.program_id = 7;
  cp.lo = 4;
  cp.hi = 12;
  cp.round = 9;
  cp.state = {1, 2, 3, 250, 0, 17};
  cp.awake = {5, 7, 11};
  cp.pending = {
      detail::BspRunner::RemoteSend{3, 0, Packet{10, 20, 30, 2}},
      detail::BspRunner::RemoteSend{8, 1, Packet{0, 0, 0, 0}},
  };
  return cp;
}

TEST(CheckpointCodec, RoundTripIsExact) {
  const CheckpointBlob cp = sample_blob();
  std::vector<std::uint8_t> bytes;
  encode_checkpoint(cp, bytes);
  EXPECT_EQ(decode_checkpoint(bytes), cp);

  // Determinism: equal blobs encode to equal bytes.
  std::vector<std::uint8_t> again;
  encode_checkpoint(cp, again);
  EXPECT_EQ(bytes, again);

  // Empty sections round-trip too.
  CheckpointBlob empty;
  empty.program_id = 1;
  std::vector<std::uint8_t> ebytes;
  encode_checkpoint(empty, ebytes);
  EXPECT_EQ(decode_checkpoint(ebytes), empty);
}

TEST(CheckpointCodec, EveryTruncationIsATypedError) {
  std::vector<std::uint8_t> bytes;
  encode_checkpoint(sample_blob(), bytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_THROW((void)decode_checkpoint(prefix), NetError) << "prefix length " << len;
  }
}

TEST(CheckpointCodec, BadMagicIsATypedError) {
  std::vector<std::uint8_t> bytes;
  encode_checkpoint(sample_blob(), bytes);
  bytes[0] ^= 0xff;
  EXPECT_THROW((void)decode_checkpoint(bytes), NetError);
}

TEST(CheckpointCodec, FutureVersionIsATypedError) {
  // A blob written by a newer build must be rejected, not misparsed.
  std::vector<std::uint8_t> bytes;
  encode_checkpoint(sample_blob(), bytes);
  bytes[4] = static_cast<std::uint8_t>(kCheckpointVersion + 1);
  EXPECT_THROW((void)decode_checkpoint(bytes), NetError);
}

TEST(CheckpointCodec, CorruptSectionLengthsAreTypedErrors) {
  const CheckpointBlob cp = sample_blob();
  {
    // state length pointing past the end of the blob
    std::vector<std::uint8_t> bytes;
    encode_checkpoint(cp, bytes);
    bytes[24] = 0xff;  // low byte of the u64 state length
    EXPECT_THROW((void)decode_checkpoint(bytes), NetError);
  }
  {
    // awake vertex outside [lo, hi)
    CheckpointBlob bad = cp;
    bad.awake = {1};
    std::vector<std::uint8_t> bytes;
    encode_checkpoint(bad, bytes);
    EXPECT_THROW((void)decode_checkpoint(bytes), NetError);
  }
  {
    // awake list not strictly ascending
    CheckpointBlob bad = cp;
    bad.awake = {7, 7};
    std::vector<std::uint8_t> bytes;
    encode_checkpoint(bad, bytes);
    EXPECT_THROW((void)decode_checkpoint(bytes), NetError);
  }
  {
    // trailing garbage after a well-formed blob
    std::vector<std::uint8_t> bytes;
    encode_checkpoint(cp, bytes);
    bytes.push_back(0);
    EXPECT_THROW((void)decode_checkpoint(bytes), NetError);
  }
}

TEST(CheckpointCodec, ResumeEquivalenceOnAFreshRunner) {
  // The resume contract at the BspRunner level, no transports involved: run
  // BFS for three rounds, capture (encode_state + save_resume), rebuild on
  // a fresh program + runner, and finish both. Outputs must be identical.
  const Graph g = weighted_graph(30, 2, 4015);
  const int n = g.num_vertices();

  BfsProgram original(n, 0);
  detail::BspRunner runner(g, 0, n);
  runner.start(original);
  int round = 1;
  for (; round <= 3; ++round)
    if (runner.run_round(round, nullptr) == 0) break;
  const int captured_round = round - 1;

  CheckpointBlob cp;
  cp.program_id = original.program_id();
  cp.lo = 0;
  cp.hi = n;
  cp.round = captured_round;
  original.encode_state(0, n, cp.state);
  runner.save_resume(captured_round, cp.awake, cp.pending);

  std::vector<std::uint8_t> bytes;
  encode_checkpoint(cp, bytes);
  const CheckpointBlob back = decode_checkpoint(bytes);

  BfsProgram restored(n, 0);
  restored.setup(g);
  restored.decode_state(0, n, back.state);
  detail::BspRunner fresh(g, 0, n);
  fresh.attach(restored);
  fresh.restore_resume(back.round, back.awake, back.pending);

  for (int r = captured_round + 1;; ++r) {
    const std::uint64_t a = runner.run_round(r, nullptr);
    const std::uint64_t b = fresh.run_round(r, nullptr);
    ASSERT_EQ(a, b) << "round " << r;
    if (a == 0) break;
  }
  runner.finish();
  fresh.finish();
  EXPECT_EQ(restored.parent, original.parent);
  EXPECT_EQ(restored.parent_edge, original.parent_edge);

  std::vector<std::uint8_t> out_a, out_b;
  original.encode_outputs(0, n, out_a);
  restored.encode_outputs(0, n, out_b);
  EXPECT_EQ(out_a, out_b);
}

}  // namespace
}  // namespace deck
