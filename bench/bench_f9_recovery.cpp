// F9 — parallel Borůvka-on-sketches recovery: scaling and exactness, plus
// the adaptive-sizing path.
//
// The f9 workload is a churned dynamic stream over a k-edge-connected
// graph. The bank is ingested once (parallel gutter drains, untimed),
// then certificate recovery — per-round supernode aggregation + ℓ₀
// sampling over the contraction forest — runs with threads ∈ {1, 2, 4, 8} on identical
// copies of the bank. Per row we report recovery wall clock and speedup
// over 1 thread; exactness is verified on every row by comparing the
// recovered forests edge-for-edge (in order) against the 1-thread run —
// the parallel reduction must be bit-identical, not merely equivalent. An
// "adaptive" row per size runs the AutoSizePolicy attempt loop and reports
// the sizing it settled on. Exit status reflects only exactness and
// certificate validity — wall clock depends on the host's core count (CI
// machines vary), so scaling is reported, not gated. A machine-readable
// JSON document follows the tables; the bench-regression CI gate diffs its
// deterministic fields (certificate size, copies used) against
// bench/baselines/f9_recovery.json.
//
// Flags: --smoke (tiny sizes + fewer thread counts, for sanitizer runs),
//        --large (adds n = 20000).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/edge_connectivity.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"
#include "sketch_ingest.hpp"
#include "support/thread_pool.hpp"

using namespace deck;

namespace {

double ms_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

bool same_forests(const std::vector<std::vector<SketchEdge>>& a,
                  const std::vector<std::vector<SketchEdge>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t f = 0; f < a.size(); ++f) {
    if (a[f].size() != b[f].size()) return false;
    for (std::size_t i = 0; i < a[f].size(); ++i)
      if (a[f][i].u != b[f][i].u || a[f][i].v != b[f][i].v) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::flag(argc, argv, "--smoke");
  const bool large = bench::flag(argc, argv, "--large");
  std::vector<int> sizes = smoke ? std::vector<int>{256, 512} : std::vector<int>{2000, 10000};
  if (large) sizes.push_back(20000);
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const int k = 2;
  // The full connectivity check is n-1 max-flows — affordable only on the
  // small rows; the property tests cover it exhaustively at small n.
  const int verify_limit = 1024;

  Json rows = Json::array();
  bool all_ok = true;

  for (int n : sizes) {
    Rng rng(9900 + n);
    Graph g = random_kec(n, k, 2 * n, rng);
    GraphStream stream = GraphStream::from_graph(g, rng);
    stream.churn(g.num_edges() / 2, rng);

    SketchOptions sopt;
    sopt.seed = 9000 + static_cast<std::uint64_t>(n);
    sopt.max_forests = k;
    ThreadPool drain_pool(4);
    GutterOptions gopt;
    gopt.pool = &drain_pool;

    // Ingest once (untimed — bench_f8 owns ingestion scaling); every thread
    // count recovers from a pristine copy of this bank.
    SketchConnectivity ingested(n, sopt);
    bench::gutter_ingest(ingested, stream, gopt);

    Table t({"threads", "recover_ms", "speedup", "identical", "m_cert", "copies", "rounds",
             "fail_rate"});
    std::vector<std::vector<SketchEdge>> reference;
    double base_ms = 0;
    for (int threads : thread_counts) {
      SketchConnectivity bank = ingested;  // fresh copies for every run
      RecoveryStats stats;
      const auto start = std::chrono::steady_clock::now();
      KForests r = bank.try_k_spanning_forests(k, {.threads = threads});
      const double ms = ms_since(start);
      stats = std::move(r.stats);
      const bool converged = r.converged;

      if (threads == thread_counts.front()) {
        reference = r.forests;
        base_ms = ms;
      }
      const bool identical = same_forests(r.forests, reference);
      int m_cert = 0;
      Graph cert(n);
      for (const auto& forest : r.forests)
        for (const SketchEdge& e : forest) {
          cert.add_edge(e.u, e.v, 1);
          ++m_cert;
        }
      const bool cert_ok =
          converged && m_cert <= k * (n - 1) && (n > verify_limit || is_k_edge_connected(cert, k));
      all_ok = all_ok && identical && cert_ok;

      const double speedup = ms > 0 ? base_ms / ms : 0;
      const double fail_rate =
          stats.samples > 0
              ? static_cast<double>(stats.failures) / static_cast<double>(stats.samples)
              : 0;
      t.add(threads, ms, speedup, identical ? "yes" : "NO", m_cert, bank.copies_used(),
            stats.rounds, fail_rate);

      Json row = Json::object();
      row.set("n", n)
          .set("k", k)
          .set("mode", "fixed")
          .set("threads", threads)
          .set("stream_updates", static_cast<std::uint64_t>(stream.size()))
          .set("recover_ms", ms)
          .set("speedup_vs_1thread", speedup)
          .set("identical_to_1thread", identical)
          .set("m_certificate", m_cert)
          .set("certificate_bound", k * (n - 1))
          .set("certificate_ok", cert_ok)
          .set("sketch_copies_used", bank.copies_used())
          .set("recovery_rounds", stats.rounds)
          .set("sample_failure_rate", fail_rate);
      rows.push(std::move(row));
    }
    t.print("F9: parallel recovery scaling, n = " + std::to_string(n) + ", k = " +
            std::to_string(k) + ", m = " + std::to_string(g.num_edges()));

    // Adaptive sizing: the attempt loop re-ingests, so it is timed end to
    // end (ingest + recover per attempt) and reported separately.
    {
      SketchOptions aopt;
      aopt.seed = sopt.seed;
      aopt.auto_size.enabled = true;
      const int threads = thread_counts.back();
      const auto start = std::chrono::steady_clock::now();
      const SparsifyResult sp =
          ingest(stream, k, {.sketch = aopt, .recovery = {.threads = threads}, .gutter = gopt});
      const double ms = ms_since(start);
      const bool cert_ok = sp.certificate.num_edges() <= k * (n - 1) &&
                           (n > verify_limit || is_k_edge_connected(sp.certificate, k));
      all_ok = all_ok && cert_ok;
      std::printf("   adaptive: %d attempts -> columns %d, slack %d, %d edges, %.1f ms\n\n",
                  sp.attempts, sp.columns_used, sp.rounds_slack_used, sp.certificate.num_edges(),
                  ms);

      Json row = Json::object();
      row.set("n", n)
          .set("k", k)
          .set("mode", "adaptive")
          .set("threads", threads)
          .set("stream_updates", static_cast<std::uint64_t>(stream.size()))
          .set("recover_ms", ms)
          .set("attempts", sp.attempts)
          .set("columns_used", sp.columns_used)
          .set("rounds_slack_used", sp.rounds_slack_used)
          .set("m_certificate", sp.certificate.num_edges())
          .set("certificate_bound", k * (n - 1))
          .set("certificate_ok", cert_ok)
          .set("sketch_copies_used", sp.copies_used);
      rows.push(std::move(row));
    }
  }

  std::printf("   parallel recovery exact on all rows: %s\n\n", all_ok ? "yes" : "NO");
  Json doc = Json::object();
  doc.set("bench", "f9_recovery").set("all_ok", all_ok).set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok ? 0 : 1;
}
