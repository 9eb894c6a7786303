// F7 — streaming sketch front-end: sparsify-then-solve vs raw.
//
// A dynamic stream (shuffled insertions + transient churn) is ingested by
// the ℓ₀-sketch subsystem, which peels k spanning forests — a Thurimella
// certificate with <= k(n-1) edges. We verify the certificate is
// k-edge-connected and compare end-to-end distributed k-ECSS rounds on the
// sparsifier against the raw graph. Dense inputs should show the sparsifier
// paying for itself; the certificate bound is checked on every row. A
// machine-readable JSON document follows the tables.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "congest/network.hpp"
#include "ecss/distributed_kecss.hpp"
#include "graph/edge_connectivity.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"

using namespace deck;

int main(int argc, char** argv) {
  const bool large = bench::flag(argc, argv, "--large");
  // --smoke: sanitizer-friendly sizes (ASan/UBSan cost ~10x wall clock);
  // correctness flags and exit status are unchanged, rows are not gated.
  const bool smoke = bench::flag(argc, argv, "--smoke");
  const std::vector<int> sizes = smoke    ? std::vector<int>{16, 32}
                                 : large  ? std::vector<int>{48, 96, 160, 256}
                                          : std::vector<int>{24, 48, 96};

  Json rows = Json::array();
  bool all_ok = true;

  for (int k : {2, 3, 4}) {
    Table t({"n", "m_raw", "updates", "m_cert", "k(n-1)", "cert_ok", "rounds_raw", "rounds_cert",
             "w_raw", "w_cert"});
    for (int n : sizes) {
      Rng rng(7000 + n * k);
      // Dense-ish input: the raw graph has ~3n + kn/2 edges, the certificate
      // at most k(n-1).
      Graph g = random_kec(n, k, 3 * n, rng);
      GraphStream stream = GraphStream::from_graph(g, rng);
      stream.churn(g.num_edges() / 2, rng);

      SketchOptions sopt;
      sopt.seed = static_cast<std::uint64_t>(n) * 31 + static_cast<std::uint64_t>(k);
      const SparsifyResult sp = ingest(stream, k, {.sketch = sopt});
      const int bound = k * (n - 1);
      const bool cert_ok =
          sp.certificate.num_edges() <= bound && is_k_edge_connected(sp.certificate, k);

      KecssOptions kopt;
      kopt.seed = static_cast<std::uint64_t>(n) * k;
      Network raw_net(g);
      const KecssResult raw = distributed_kecss(raw_net, k, kopt);
      Network cert_net(sp.certificate);
      const KecssResult sparsified = distributed_kecss(cert_net, k, kopt);
      const bool out_ok = is_k_edge_connected_subset(g, raw.edges, k) &&
                          is_k_edge_connected_subset(sp.certificate, sparsified.edges, k);
      all_ok = all_ok && cert_ok && out_ok;

      t.add(n, g.num_edges(), stream.size(), sp.certificate.num_edges(), bound,
            cert_ok ? "yes" : "NO", raw_net.rounds(), cert_net.rounds(), raw.weight,
            sparsified.weight);

      Json row = Json::object();
      row.set("family", "random")
          .set("n", n)
          .set("k", k)
          .set("m_raw", g.num_edges())
          .set("stream_updates", static_cast<std::uint64_t>(stream.size()))
          .set("m_certificate", sp.certificate.num_edges())
          .set("certificate_bound", bound)
          .set("certificate_k_connected", cert_ok)
          .set("sketch_copies_used", sp.copies_used)
          .set("rounds_raw", raw_net.rounds())
          .set("rounds_sparsified", cert_net.rounds())
          .set("messages_raw", raw_net.messages())
          .set("messages_sparsified", cert_net.messages())
          .set("kecss_weight_raw", static_cast<std::int64_t>(raw.weight))
          .set("kecss_weight_sparsified", static_cast<std::int64_t>(sparsified.weight))
          .set("outputs_k_connected", out_ok);
      rows.push(std::move(row));
    }
    t.print("F7: streaming sparsify vs raw, k = " + std::to_string(k));
    std::printf("\n");
  }

  std::printf("   sparsified pipeline valid on all rows: %s\n\n", all_ok ? "yes" : "NO");
  Json doc = Json::object();
  doc.set("bench", "f7_sketch").set("all_ok", all_ok).set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok ? 0 : 1;
}
