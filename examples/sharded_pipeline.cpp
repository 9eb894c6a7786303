// Sharded distributed ingestion, end to end: the update stream is split
// across four simulated ingest machines, each machine sketches its slice
// into a private ℓ₀ bank, serializes the bank (sketch_io wire format), and
// "ships" the bytes to a coordinator that decodes, merges by sketch
// addition, and recovers the Thurimella certificate — which then feeds the
// paper's CONGEST k-ECSS exactly as in examples/streaming_sparsify.
//
//   stream slices        ingest machines            coordinator
//   ────────────         ──────────────             ───────────
//   updates[0::4] ──►  bank₀ ──encode──► bytes ──►  decode ─┐
//   updates[1::4] ──►  bank₁ ──encode──► bytes ──►  decode ─┼─ merge(+) ─► recover
//   ...                                                     │
//
//   cmake -B build -G Ninja && cmake --build build && ./build/sharded_pipeline

#include <cstdio>
#include <vector>

#include "congest/network.hpp"
#include "ecss/distributed_kecss.hpp"
#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

int main() {
  using namespace deck;
  const int n = 96, k = 3, machines = 4;

  // A k-edge-connected graph arrives as a churned dynamic stream.
  Rng rng(19);
  Graph g = random_kec(n, k, /*extra=*/2 * n, rng);
  GraphStream stream = GraphStream::from_graph(g, rng);
  stream.churn(/*pairs=*/g.num_edges(), rng);
  std::printf("stream: %zu updates over n=%d, sliced across %d ingest machines\n", stream.size(), n,
              machines);

  SketchOptions opt;
  opt.seed = 42;
  opt.max_forests = k;

  // 1. Each "machine" sees only every machines-th update (an arbitrary
  //    partition — linearity makes any split equivalent) and sketches it
  //    into a private bank. Banks agree on per-copy seeds because every
  //    machine splits them deterministically from opt.seed — no shared
  //    state, no coordination.
  std::vector<std::vector<std::uint8_t>> shipped;
  for (int m = 0; m < machines; ++m) {
    SketchConnectivity bank(n, opt);
    std::size_t i = 0;
    for (const StreamUpdate& u : stream.updates())
      if (static_cast<int>(i++ % machines) == m) bank.update(u.u, u.v, u.insert ? 1 : -1);
    shipped.push_back(encode_bank(bank));  // 2. serialize and ship
  }
  std::printf("shipped: %d banks, %zu bytes each (endian-stable, checksummed)\n", machines,
              shipped[0].size());

  // 3. The coordinator decodes and folds the shipped banks by sketch
  //    addition — arrival order is irrelevant (merge is associative and
  //    commutative) — then peels the k forests.
  SketchConnectivity global = decode_bank(shipped[0]);
  for (int m = 1; m < machines; ++m) merge_encoded(global, shipped[m]);
  const auto forests = global.k_spanning_forests(k);
  Graph cert(n);
  for (const auto& forest : forests)
    for (const SketchEdge& e : forest) cert.add_edge(e.u, e.v, /*w=*/1);
  const bool cert_ok = cert.num_edges() <= k * (n - 1) && is_k_edge_connected(cert, k);
  std::printf("certificate: %d edges (bound %d), %d-edge-connected: %s\n", cert.num_edges(),
              k * (n - 1), k, cert_ok ? "yes" : "NO");

  // Sanity: the distributed flow must equal the in-process sharded flow —
  // a session whose gutters drain in parallel on a lent pool, one thread
  // per machine (and therefore the sequential one) — edge for edge.
  ThreadPool pool(machines);
  const SparsifyResult local = ingest(stream, k, {.sketch = opt, .gutter = {.pool = &pool}});
  bool identical = local.certificate.num_edges() == cert.num_edges();
  if (identical)
    for (const Edge& e : local.certificate.edges())
      identical = identical && cert.has_edge(e.u, e.v);
  std::printf("identical to in-process sharded ingestion: %s\n", identical ? "yes" : "NO");

  // 4. The CONGEST pipeline runs on the sparsifier.
  Network cert_net(cert);
  KecssOptions kopt;
  kopt.seed = 42;
  const KecssResult result = distributed_kecss(cert_net, k, kopt);
  const bool out_ok = is_k_edge_connected_subset(cert, result.edges, k);
  std::printf("k-ECSS on certificate: %zu edges in %llu rounds, %s\n", result.edges.size(),
              static_cast<unsigned long long>(cert_net.rounds()),
              out_ok ? "verified" : "NOT k-edge-connected");

  return (cert_ok && identical && out_ok) ? 0 : 1;
}
