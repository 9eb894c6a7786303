// Streaming front-end: ingest a dynamic edge stream (insertions *and*
// deletions), recover a Thurimella sparse certificate from ℓ₀ sketches, and
// run the paper's CONGEST k-ECSS on the O(kn)-edge sparsifier instead of
// the raw graph.
//
//   cmake -B build -G Ninja && cmake --build build && ./build/streaming_sparsify

#include <cstdio>

#include "congest/network.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "ecss/distributed_kecss.hpp"
#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "serve/session.hpp"
#include "sketch/stream.hpp"
#include "support/rng.hpp"

int main() {
  using namespace deck;
  const int n = 96, k = 3;

  // 1. A k-edge-connected graph arrives as a shuffled stream of insertions
  //    with transient churn edges (inserted, later deleted) mixed in — the
  //    net graph is exactly g, but the front-end only ever sees updates.
  Rng rng(7);
  Graph g = random_kec(n, k, /*extra=*/2 * n, rng);
  GraphStream stream = GraphStream::from_graph(g, rng);
  stream.churn(/*pairs=*/g.num_edges(), rng);
  std::printf("stream: %zu updates (%d net edges, %d churn pairs) over n=%d\n", stream.size(),
              g.num_edges(), g.num_edges(), n);

  // 2. Sketch-and-peel: per-vertex ℓ₀ sketches ingest the stream in
  //    batches; Borůvka on merged sketches peels k edge-disjoint spanning
  //    forests — a Thurimella certificate recovered without storing edges.
  //    Adaptive sizing starts from a small bank and grows only on observed
  //    sampler failures; recovery itself fans supernode aggregation out
  //    over 4 threads (bit-identical to 1 thread for this seed).
  IngestOptions opt;
  opt.sketch.seed = 42;
  opt.sketch.auto_size.enabled = true;
  opt.recovery.threads = 4;
  const SparsifyResult sp = ingest(stream, k, opt);
  std::printf("certificate: %d edges (bound k(n-1) = %d), %d sketch copies used\n",
              sp.certificate.num_edges(), k * (n - 1), sp.copies_used);
  std::printf("auto-sizing: %d attempt(s), settled on columns=%d rounds_slack=%d "
              "(%lld samples, %lld failed)\n",
              sp.attempts, sp.columns_used, sp.rounds_slack_used, sp.stats.samples,
              sp.stats.failures);
  const bool cert_ok = is_k_edge_connected(sp.certificate, k);
  std::printf("certificate %d-edge-connected: %s\n", k, cert_ok ? "yes" : "NO");

  // 3. The expensive CONGEST pipeline runs on the sparsifier. Any k-ECSS of
  //    the certificate is a k-ECSS of the streamed graph, because the
  //    certificate preserves all cuts up to size k.
  Network raw_net(g);
  KecssOptions kopt;
  kopt.seed = 42;
  const KecssResult raw = distributed_kecss(raw_net, k, kopt);
  Network cert_net(sp.certificate);
  const KecssResult sparsified = distributed_kecss(cert_net, k, kopt);
  const bool out_ok = is_k_edge_connected_subset(sp.certificate, sparsified.edges, k);
  std::printf("k-ECSS rounds: raw %llu (m=%d) vs sparsified %llu (m=%d), output %zu edges, %s\n",
              static_cast<unsigned long long>(raw_net.rounds()), g.num_edges(),
              static_cast<unsigned long long>(cert_net.rounds()), sp.certificate.num_edges(),
              sparsified.edges.size(), out_ok ? "verified" : "NOT k-edge-connected");

  // 4. The same front-end feeds the 2-ECSS pipeline: a k >= 2 certificate
  //    is 2-edge-connected, so Theorem 1.1 machinery runs unchanged.
  Network two_net(sp.certificate);
  const Ecss2Result two = distributed_2ecss(two_net, TapOptions{});
  const bool two_ok = is_k_edge_connected_subset(sp.certificate, two.edges, 2);
  std::printf("2-ECSS on certificate: %zu edges in %llu rounds, %s\n", two.edges.size(),
              static_cast<unsigned long long>(two_net.rounds()),
              two_ok ? "verified" : "NOT 2-edge-connected");

  return (cert_ok && out_ok && two_ok) ? 0 : 1;
}
