// Multi-process sketch ingest + distributed CONGEST execution, end to end:
// four *real* worker processes (fork) each ingest a disjoint slice of the
// update stream into a private ℓ₀ bank and stream it over TCP to the
// coordinator as framed sketch_io chunks; the coordinator merges chunks as
// they arrive (BankAssembler — it never buffers a whole shard bank), peels
// the k forests on a shared thread pool, and feeds the Thurimella
// certificate to the paper's CONGEST algorithms — first on the sequential
// engine, then on the DistributedEngine with a second fleet of forked
// worker processes each owning a vertex range of the certificate network.
//
//   worker process 0..3                     coordinator process
//   ───────────────────                     ───────────────────
//   updates[w::4] ─► bank_w ─► chunks ──TCP──► BankAssembler (merge on
//                                              arrival) ─► recover
//   congest worker 0..1                        │
//   vertex range step ◄──TCP rounds/msgs──► distributed_2ecss / k-ECSS
//
//   cmake -B build -G Ninja && cmake --build build && ./build/distributed_ingest
//
// With --trace-out PATH the run records the obs tracing layer end to end
// and writes one merged chrome://tracing JSON file: coordinator phases and
// engine rounds on pid 0, each forked CONGEST worker's execution on its own
// pid lane, parented under the coordinator's net.execute spans via the
// trace context the Start message carries (docs/tracing.md).
//
// The certificate is bit-identical to single-process sharded ingest
// (deck::ingest() draining its gutters on a lent ThreadPool) on the same
// seeded stream — linearity makes any disjoint stream partition merge to
// the same bank, and split_seed lets every process derive the same
// per-copy sampler seeds with zero shared state. The 2-ECSS run on the
// DistributedEngine must match the sequential engine edge for edge, round
// for round (the engine-identity property).

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "congest/distributed_engine.hpp"
#include "congest/network.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "ecss/distributed_kecss.hpp"
#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "net/ingest.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"
#include "sketch/stream.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace deck;
  const int n = 96, k = 3, workers = 4;

  std::string trace_out;
  int kill_worker = -1, kill_round = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--kill-worker") == 0 && i + 1 < argc) {
      // --kill-worker N@R: SIGKILL congest worker process N at its R-th
      // engine round — a real mid-phase process death the coordinator must
      // absorb with zero output change.
      const char* spec = argv[++i];
      const char* at = std::strchr(spec, '@');
      if (at == nullptr || std::sscanf(spec, "%d@%d", &kill_worker, &kill_round) != 2 ||
          kill_worker < 0 || kill_round < 1) {
        std::fprintf(stderr, "--kill-worker wants N@R (worker index @ round), got '%s'\n", spec);
        return 1;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--trace-out PATH] [--kill-worker N@R]\n", argv[0]);
      return 1;
    }
  }
  const bool tracing = !trace_out.empty();
  if (tracing) {
    obs::set_enabled(true);
    obs::set_tracing(true);
    obs::set_trace_id(0x5eed);  // any nonzero id names the trace
  }

  // A k-edge-connected graph arrives as a churned dynamic stream. Every
  // process rebuilds the identical seeded stream; in a real deployment each
  // worker would read its slice from its own ingest source instead.
  Rng rng(19);
  Graph g = random_kec(n, k, /*extra=*/2 * n, rng);
  GraphStream stream = GraphStream::from_graph(g, rng);
  stream.churn(/*pairs=*/g.num_edges(), rng);
  std::printf("stream: %zu updates over n=%d, sliced across %d worker processes\n", stream.size(),
              n, workers);

  SketchOptions opt;
  opt.seed = 42;
  opt.max_forests = k;

  // The coordinator listens on an ephemeral loopback port; workers are
  // forked before any thread exists and connect back over TCP.
  TcpListener listener;
  for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(workers); ++w) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      try {
        const std::unique_ptr<Transport> t = tcp_connect("127.0.0.1", listener.port());
        IngestWorkerOptions wopt;
        wopt.target_chunk_bytes = 64 * 1024;  // bounds the coordinator's per-chunk staging
        run_ingest_worker(*t, stream, w, static_cast<std::uint32_t>(workers), wopt);
        _exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "worker %u: %s\n", w, e.what());
        _exit(1);
      }
    }
  }

  std::vector<std::unique_ptr<Transport>> accepted;
  std::vector<Transport*> raw;
  for (int w = 0; w < workers; ++w) {
    accepted.push_back(listener.accept());
    raw.push_back(accepted.back().get());
  }

  // A coordinated session queries the fleet once. Its shared pool (4
  // threads) overlaps the four workers' chunk streams with assembly, then
  // runs the Borůvka recovery fan-out; the session (and its pool) is gone
  // before the CONGEST workers are forked below.
  IngestOptions coordinated;
  coordinated.sketch = opt;
  coordinated.workers = raw;
  coordinated.coordinator.threads = 4;
  const SparsifyResult remote = [&] {
    GraphSession session(n, k, coordinated);
    SparsifyResult r = session.query();
    session.close();
    return r;
  }();
  std::printf("coordinator: assembled %d-vertex bank from %d chunk streams, %d forest(s), "
              "%d copies used\n",
              n, workers, static_cast<int>(remote.forests.size()), remote.copies_used);

  bool children_ok = true;
  for (int w = 0; w < workers; ++w) {
    int status = 0;
    if (wait(&status) < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) children_ok = false;
  }
  std::printf("worker processes exited cleanly: %s\n", children_ok ? "yes" : "NO");

  const bool cert_ok = remote.certificate.num_edges() <= k * (n - 1) &&
                       is_k_edge_connected(remote.certificate, k);
  std::printf("certificate: %d edges (bound %d), %d-edge-connected: %s\n",
              remote.certificate.num_edges(), k * (n - 1), k, cert_ok ? "yes" : "NO");

  // The acceptance bar: the multi-process flow must equal single-process
  // sharded ingestion (and therefore sequential ingestion) edge for edge.
  // The lent drain pool is gone before the CONGEST workers are forked.
  const SparsifyResult local = [&] {
    ThreadPool pool(workers);
    return ingest(stream, k, {.sketch = opt, .gutter = {.pool = &pool}});
  }();
  bool identical = local.certificate.num_edges() == remote.certificate.num_edges();
  if (identical)
    for (const Edge& e : local.certificate.edges())
      identical = identical && remote.certificate.has_edge(e.u, e.v);
  std::printf("identical to single-process sharded ingest: %s\n", identical ? "yes" : "NO");

  // The CONGEST pipeline runs on the sparsifier.
  Network cert_net(remote.certificate);
  KecssOptions kopt;
  kopt.seed = 42;
  const KecssResult result = distributed_kecss(cert_net, k, kopt);
  const bool out_ok = is_k_edge_connected_subset(remote.certificate, result.edges, k);
  std::printf("k-ECSS on certificate: %zu edges in %llu rounds, %s\n", result.edges.size(),
              static_cast<unsigned long long>(cert_net.rounds()),
              out_ok ? "verified" : "NOT k-edge-connected");

  // Finale: the 2-ECSS pipeline on the certificate, executed by the
  // DistributedEngine over a second fleet of forked worker processes — each
  // owns a contiguous vertex range and exchanges boundary messages through
  // the coordinator's per-round barrier over TCP.
  Network seq_net(remote.certificate);
  const Ecss2Result seq2 = distributed_2ecss(seq_net, TapOptions{});

  TcpListener congest_listener;
  const int congest_workers = 4;
  for (int w = 0; w < congest_workers; ++w) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      try {
        const std::unique_ptr<Transport> t = tcp_connect("127.0.0.1", congest_listener.port());
        WorkerOptions wopt;
        if (w == kill_worker) {
          wopt.kill_after_rounds = kill_round;
          wopt.hard_kill = true;  // a real SIGKILL, not a polite close
        }
        run_congest_worker(*t, wopt);
        _exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "congest worker %d: %s\n", w, e.what());
        _exit(1);
      }
    }
  }
  std::vector<std::unique_ptr<Transport>> congest_accepted;
  std::vector<Transport*> congest_raw;
  for (int w = 0; w < congest_workers; ++w) {
    congest_accepted.push_back(congest_listener.accept());
    congest_raw.push_back(congest_accepted.back().get());
  }
  bool engine_identical = false;
  {
    // Checkpoint every 4 rounds so a SIGKILLed worker's ranges resume from
    // a bounded replay instead of round 1.
    DistributedHubOptions hub_opts;
    hub_opts.checkpoint_interval = 4;
    const std::shared_ptr<DistributedEngineHub> hub =
        make_distributed_hub(congest_raw, hub_opts);
    std::uint64_t net_rounds = 0, net_messages = 0;
    std::vector<EdgeId> net_edges;
    {
      Network dist_net(remote.certificate, hub);
      const Ecss2Result dist2 = distributed_2ecss(dist_net, TapOptions{});
      net_rounds = dist_net.rounds();
      net_messages = dist_net.messages();
      net_edges = dist2.edges;
    }
    hub->shutdown();
    engine_identical = net_edges == seq2.edges && net_rounds == seq_net.rounds() &&
                       net_messages == seq_net.messages();
    std::printf("2-ECSS over %d congest worker processes%s: %zu edges in %llu rounds — "
                "identical to the sequential engine: %s\n",
                congest_workers, kill_worker >= 0 ? " (one SIGKILLed mid-phase)" : "",
                net_edges.size(), static_cast<unsigned long long>(net_rounds),
                engine_identical ? "yes" : "NO");
  }
  // With --kill-worker, exactly one child must have died of SIGKILL; every
  // other child exits cleanly.
  int clean_children = 0, sigkilled_children = 0;
  for (int w = 0; w < congest_workers; ++w) {
    int status = 0;
    if (wait(&status) < 0) continue;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) ++clean_children;
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ++sigkilled_children;
  }
  const int want_killed = kill_worker >= 0 ? 1 : 0;
  const bool congest_children_ok =
      clean_children == congest_workers - want_killed && sigkilled_children == want_killed;
  std::printf("congest worker processes: %d exited cleanly, %d SIGKILLed (wanted %d): %s\n",
              clean_children, sigkilled_children, want_killed,
              congest_children_ok ? "ok" : "NOT ok");

  // With tracing on, drain the merged timeline (coordinator spans plus the
  // worker spans shipped back as kTraceData) into one chrome://tracing
  // file, and verify the cross-process parenting: every forked worker's
  // execution span must hang under a coordinator net.execute span.
  bool trace_ok = true;
  if (tracing) {
    const std::vector<obs::TraceEvent> events = obs::TraceSink::global().drain();
    std::set<std::uint64_t> exec_spans;
    for (const obs::TraceEvent& ev : events)
      if (ev.pid == 0 && ev.name == "net.execute") exec_spans.insert(ev.span_id);
    std::set<std::uint32_t> worker_pids;
    std::size_t worker_execs = 0, orphans = 0;
    for (const obs::TraceEvent& ev : events) {
      if (ev.pid == 0 || ev.name != "worker.execute") continue;
      ++worker_execs;
      worker_pids.insert(ev.pid);
      if (exec_spans.count(ev.parent_id) == 0) ++orphans;
    }
    // A SIGKILLed worker may die before shipping any trace frame, so its
    // lane is allowed to be missing from the merged timeline.
    trace_ok = worker_pids.size() >= static_cast<std::size_t>(congest_workers - want_killed) &&
               orphans == 0 && worker_execs > 0;
    std::printf("trace: %zu events, %zu worker execution span(s) across %zu worker lane(s), "
                "all parented under coordinator phases: %s\n",
                events.size(), worker_execs, worker_pids.size(),
                trace_ok && orphans == 0 ? "yes" : "NO");
    const std::string json = obs::chrome_trace_json(events);
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr || std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
      trace_ok = false;
    }
    if (f != nullptr) std::fclose(f);
    if (trace_ok) std::printf("trace written to %s\n", trace_out.c_str());

    const obs::Snapshot snap = obs::Registry::global().scrape();
    std::printf("metrics: sketch.updates=%llu net.tx.frames=%llu congest.net.rounds=%llu\n",
                static_cast<unsigned long long>(snap.counter("sketch.updates")),
                static_cast<unsigned long long>(snap.counter("net.tx.frames")),
                static_cast<unsigned long long>(snap.counter("congest.net.rounds")));
  }

  return (children_ok && cert_ok && identical && out_ok && engine_identical &&
          congest_children_ok && trace_ok)
             ? 0
             : 1;
}
