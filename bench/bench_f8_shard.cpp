// F8 — sharded parallel ingestion: throughput scaling and exactness.
//
// The f8 workload is a dense churned stream over a k-edge-connected graph,
// ingested through a GraphSession's one sharded path: gutters (4 per pool
// thread, contiguous source ranges) flushing into
// SketchConnectivity::apply_batch, drained in parallel on a lent pool of
// shards ∈ {1, 2, 4, 8} threads. Parallel flushes write disjoint slices of
// one bank, so there is no merge step. Per row we report wall-clock
// ingestion throughput (push + drain, bank construction excluded) and
// speedup over 1 thread. Exactness is verified two ways on every row: the
// bank's serialized bytes equal the 1-thread bank's (bit-identical sketch
// state), and deck::ingest()'s certificate with the same lent pool equals
// the 1-thread certificate edge for edge. Exit status reflects only
// exactness and certificate validity — throughput depends on the host's
// core count (CI machines vary), so scaling is reported, not gated. A
// machine-readable JSON document follows the tables; the bench-regression
// CI gate diffs its deterministic fields (certificate size, copies used)
// against bench/baselines/f8_shard.json.

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "graph/edge_connectivity.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_ingest.hpp"
#include "support/thread_pool.hpp"

using namespace deck;

int main(int argc, char** argv) {
  const bool large = bench::flag(argc, argv, "--large");
  // --smoke: sanitizer-friendly sizes (ASan/UBSan cost ~10x wall clock);
  // correctness flags and exit status are unchanged, rows are not gated.
  const bool smoke = bench::flag(argc, argv, "--smoke");
  const std::vector<int> sizes = smoke   ? std::vector<int>{48}
                                 : large ? std::vector<int>{192, 320}
                                         : std::vector<int>{96, 160};
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const int k = 2;

  Json rows = Json::array();
  bool all_ok = true;

  for (int n : sizes) {
    Rng rng(8800 + n);
    Graph g = random_kec(n, k, 5 * n, rng);
    GraphStream stream = GraphStream::from_graph(g, rng);
    stream.churn(g.num_edges(), rng);
    const auto halves = static_cast<double>(2 * stream.size());

    SketchOptions sopt;
    sopt.seed = 8000 + static_cast<std::uint64_t>(n);
    sopt.max_forests = k;

    // 1-thread reference: bank bytes and certificate every other pool size
    // must reproduce exactly.
    std::vector<std::uint8_t> ref_bank;
    SparsifyResult ref_cert;
    bool cert_ok = false;

    Table t({"shards", "updates", "ms", "halves/s", "speedup", "identical", "m_cert"});
    double base_ms = 0;
    for (int shards : shard_counts) {
      ThreadPool pool(shards);
      GutterOptions gopt;
      gopt.pool = &pool;

      SketchConnectivity bank(n, sopt);
      const auto start = std::chrono::steady_clock::now();
      bench::gutter_ingest(bank, stream, gopt);
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
              .count();
      const SparsifyResult sp = ingest(stream, k, {.sketch = sopt, .gutter = gopt});
      if (shards == shard_counts.front()) {
        ref_bank = encode_bank(bank);
        ref_cert = sp;
        cert_ok = ref_cert.certificate.num_edges() <= k * (n - 1) &&
                  is_k_edge_connected(ref_cert.certificate, k);
        all_ok = all_ok && cert_ok;
        base_ms = ms;
      }
      const bool identical = encode_bank(bank) == ref_bank;
      bool cert_identical = sp.certificate.num_edges() == ref_cert.certificate.num_edges();
      if (cert_identical)
        for (const Edge& e : ref_cert.certificate.edges())
          cert_identical = cert_identical && sp.certificate.has_edge(e.u, e.v);
      all_ok = all_ok && identical && cert_identical;

      const double speedup = ms > 0 ? base_ms / ms : 0;
      t.add(shards, stream.size(), ms, halves / (ms / 1000.0), speedup,
            (identical && cert_identical) ? "yes" : "NO", sp.certificate.num_edges());

      Json row = Json::object();
      row.set("n", n)
          .set("k", k)
          .set("shards", shards)
          .set("stream_updates", static_cast<std::uint64_t>(stream.size()))
          .set("ingest_ms", ms)
          .set("halves_per_sec", halves / (ms / 1000.0))
          .set("speedup_vs_1shard", speedup)
          .set("bank_identical_to_1shard", identical)
          .set("certificate_identical_to_1shard", cert_identical)
          .set("m_certificate", sp.certificate.num_edges())
          .set("certificate_bound", k * (n - 1))
          .set("certificate_k_connected", cert_ok)
          .set("sketch_copies_used", sp.copies_used);
      rows.push(std::move(row));
    }
    t.print("F8: parallel gutter drains, n = " + std::to_string(n) + ", k = " + std::to_string(k));
    std::printf("\n");
  }

  std::printf("   sharded ingestion exact on all rows: %s\n\n", all_ok ? "yes" : "NO");
  Json doc = Json::object();
  doc.set("bench", "f8_shard").set("all_ok", all_ok).set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok ? 0 : 1;
}
