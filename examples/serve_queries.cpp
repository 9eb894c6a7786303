// Continuous query serving: a long-lived GraphSession ingests a live
// insert/delete stream through the guttering stage while a SessionServer
// answers certificate queries from concurrent remote clients — the
// open → ingest → query → resume → close lifecycle of GraphSession, the one
// ingest entry point (deck::ingest() is its one-call form).
//
//   cmake -B build -G Ninja && cmake --build build && ./build/serve_queries

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "net/transport.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sketch/stream.hpp"
#include "support/rng.hpp"

int main() {
  using namespace deck;
  const int n = 96, k = 3;

  // 1. A live workload: a k-edge-connected graph arriving as updates,
  //    split round-robin across two ingest clients.
  Rng rng(7);
  const Graph g = random_kec(n, k, /*extra=*/2 * n, rng);
  std::vector<std::vector<StreamUpdate>> slices(2);
  int i = 0;
  for (const Edge& e : g.edges()) slices[i++ % 2].push_back({e.u, e.v, /*insert=*/true});
  std::printf("workload: %d edges over n=%d, 2 ingest clients\n", g.num_edges(), n);

  // 2. The serving session. Updates buffer in per-vertex-range gutters
  //    (flushed as sorted cache-resident batches into the live ℓ₀ bank);
  //    a query drains the gutters and peels the certificate straight
  //    from the live bank, read-only — ingest resumes untouched afterwards.
  IngestOptions opt;
  opt.sketch.seed = 42;
  opt.gutter.policy.max_halves = 512;
  GraphSession session(n, k, opt);
  SessionServer server(session);

  // 3. Two clients over loopback transports, served concurrently. Client 0
  //    also queries mid-stream and at the end.
  std::vector<std::unique_ptr<Transport>> owned;
  std::vector<Transport*> server_ends, client_ends;
  for (int c = 0; c < 2; ++c) {
    auto [s, cl] = loopback_pair();
    server_ends.push_back(s.get());
    client_ends.push_back(cl.get());
    owned.push_back(std::move(s));
    owned.push_back(std::move(cl));
  }
  std::thread serving([&] { server.serve_all(server_ends); });

  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client(*client_ends[static_cast<std::size_t>(c)]);
      client.hello();
      const std::vector<StreamUpdate>& mine = slices[static_cast<std::size_t>(c)];
      const std::size_t half = mine.size() / 2;
      client.update(std::span<const StreamUpdate>(mine.data(), half));
      if (c == 0) {
        // Mid-stream query: pause/flush/recover/resume on a partial graph.
        const ServeCertificate cert = client.query();
        std::printf("client 0 mid-stream query: %zu certificate edges after ~half the stream\n",
                    cert.edges.size());
      }
      client.update(std::span<const StreamUpdate>(mine.data() + half, mine.size() - half));
      client.bye();
    });
  }
  for (std::thread& t : clients) t.join();
  serving.join();

  // 4. Final query straight on the session (the server has released it):
  //    every client's updates are in the bank — linearity makes the result
  //    identical to a one-shot over the whole stream in any order.
  const SparsifyResult sp = session.query();
  std::printf("final certificate: %d edges (bound k(n-1) = %d), %d-edge-connected: %s\n",
              sp.certificate.num_edges(), k * (n - 1), k,
              is_k_edge_connected(sp.certificate, k) ? "yes" : "NO");

  const SessionStats stats = session.stats();
  std::printf("session: %llu updates, %llu queries, %llu gutter flushes "
              "(%llu size-triggered), %llu live-bank reads, %llu replays\n",
              static_cast<unsigned long long>(stats.updates),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.gutter.flushes),
              static_cast<unsigned long long>(stats.gutter.size_flushes),
              static_cast<unsigned long long>(stats.bank_reuses),
              static_cast<unsigned long long>(stats.bank_replays));
  session.close();
  return 0;
}
