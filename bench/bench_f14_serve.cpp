// F14 — continuous query serving (src/serve/). Three sections, one churned
// dynamic stream:
//
//   ingest    — steady-state update throughput through a GraphSession by
//               gutter flush policy (max_halves in {1, 256, 1024, 4096}).
//               The certificate after the full stream is deterministic and
//               gated (m_certificate, copies_used, identical_to_oneshot);
//               updates/sec and wall-clock are reported, never gated.
//   midstream — query at 1/3, 2/3, and end of the stream: each point's
//               certificate must be bit-identical to a one-shot
//               sparsify over the prefix (the pause/flush/recover/resume
//               contract), with the query latency visible per point.
//   latency   — a mixed workload (update batch, then query, repeated):
//               p50/p99 query latency and updates/sec against a live
//               session. The final certificate is gated like the others.
//
//   ./bench_f14_serve [--smoke|--large]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"

using namespace deck;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The pre-facade one-shot pipeline, inlined as the bit-identity reference.
SparsifyResult reference_sparsify(const GraphStream& stream, int k, const SketchOptions& opt) {
  std::optional<SketchConnectivity> bank;
  return recover_certificate(k, opt, {},
                             [&](const SketchOptions& aopt) -> const SketchConnectivity& {
                               SketchConnectivity& sk = bank.emplace(stream.num_vertices(), aopt);
                               for (const StreamUpdate& u : stream.updates())
                                 sk.update(u.u, u.v, u.insert ? 1 : -1);
                               return sk;
                             });
}

bool same_result(const SparsifyResult& a, const SparsifyResult& b) {
  if (a.certificate.num_edges() != b.certificate.num_edges() || a.copies_used != b.copies_used ||
      a.attempts != b.attempts || a.forests.size() != b.forests.size())
    return false;
  for (std::size_t f = 0; f < a.forests.size(); ++f) {
    if (a.forests[f].size() != b.forests[f].size()) return false;
    for (std::size_t e = 0; e < a.forests[f].size(); ++e)
      if (a.forests[f][e].u != b.forests[f][e].u || a.forests[f][e].v != b.forests[f][e].v)
        return false;
  }
  return true;
}

GraphStream prefix_stream(const GraphStream& s, std::size_t count) {
  GraphStream out(s.num_vertices());
  std::size_t i = 0;
  for (const StreamUpdate& u : s.updates()) {
    if (i++ >= count) break;
    if (u.insert)
      out.insert(u.u, u.v);
    else
      out.erase(u.u, u.v);
  }
  return out;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const bool large = bench::flag(argc, argv, "--large");
  const bool smoke = bench::flag(argc, argv, "--smoke");
  const int n = smoke ? 48 : large ? 256 : 128;
  const int k = 2;

  Rng rng(1400 + n);
  Graph g = random_kec(n, k, 2 * n, rng);
  GraphStream stream = GraphStream::from_graph(g, rng);
  stream.churn(g.num_edges() / 2, rng);

  SketchOptions opt;
  opt.seed = 1401;
  const SparsifyResult oneshot = reference_sparsify(stream, k, opt);

  Table t({"case", "policy", "point", "m_cert", "copies", "identical", "upd/s", "q ms"});
  Json rows = Json::array();
  bool all_ok = true;

  const auto add_row = [&](const std::string& kind, const std::string& policy,
                           const std::string& point, const SparsifyResult& got,
                           const SparsifyResult& want, double updates_per_sec, double query_ms,
                           double p50, double p99) {
    const bool identical = same_result(got, want);
    all_ok = all_ok && identical;
    t.add(kind, policy, point, got.certificate.num_edges(), got.copies_used,
          identical ? "yes" : "NO", updates_per_sec, query_ms);
    Json row = Json::object();
    row.set("case", kind)
        .set("policy", policy)
        .set("point", point)
        .set("n", n)
        .set("k", k)
        .set("m_certificate", got.certificate.num_edges())
        .set("copies_used", got.copies_used)
        .set("identical_to_oneshot", identical)
        .set("updates_per_sec", updates_per_sec)
        .set("query_ms", query_ms)
        .set("p50_query_ms", p50)
        .set("p99_query_ms", p99);
    rows.push(std::move(row));
  };

  // ingest: throughput by flush policy, certificate gated at the end.
  for (const std::size_t max_halves : {std::size_t{1}, std::size_t{256}, std::size_t{1024},
                                       std::size_t{4096}}) {
    IngestOptions io;
    io.sketch = opt;
    io.gutter.policy.max_halves = max_halves;
    GraphSession session(n, k, io);
    const double t0 = now_ms();
    for (const StreamUpdate& u : stream.updates()) session.apply(u);
    session.flush();
    const double ingest_ms = now_ms() - t0;
    const double t1 = now_ms();
    const SparsifyResult got = session.query();
    const double query_ms = now_ms() - t1;
    const double ups = ingest_ms > 0 ? 1000.0 * static_cast<double>(stream.size()) / ingest_ms
                                     : 0;
    add_row("ingest", "h" + std::to_string(max_halves), "end", got, oneshot, ups, query_ms, 0, 0);
    session.close();
  }

  // midstream: the pause/flush/recover/resume contract at three points.
  {
    IngestOptions io;
    io.sketch = opt;
    io.gutter.policy.max_halves = 1024;
    GraphSession session(n, k, io);
    const std::vector<std::pair<std::string, std::size_t>> points = {
        {"third", stream.size() / 3},
        {"twothirds", 2 * stream.size() / 3},
        {"end", stream.size()},
    };
    std::size_t fed = 0;
    for (const auto& [label, point] : points) {
      while (fed < point) session.apply(stream.updates()[fed++]);
      const double t0 = now_ms();
      const SparsifyResult got = session.query();
      const double query_ms = now_ms() - t0;
      add_row("midstream", "h1024", label, got, reference_sparsify(prefix_stream(stream, point), k, opt),
              0, query_ms, 0, 0);
    }
    session.close();
  }

  // latency: mixed update/query workload, p50/p99 over the query stream.
  {
    IngestOptions io;
    io.sketch = opt;
    io.gutter.policy.max_halves = 1024;
    GraphSession session(n, k, io);
    const std::size_t batches = smoke ? 8 : large ? 64 : 24;
    const std::size_t batch = stream.size() / batches;
    std::vector<double> query_ms;
    std::size_t fed = 0;
    const double t0 = now_ms();
    double in_query = 0;
    SparsifyResult last;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t until = b + 1 == batches ? stream.size() : (b + 1) * batch;
      while (fed < until) session.apply(stream.updates()[fed++]);
      const double q0 = now_ms();
      last = session.query();
      const double q = now_ms() - q0;
      in_query += q;
      query_ms.push_back(q);
    }
    const double total_ms = now_ms() - t0;
    const double ingest_ms = total_ms - in_query;
    const double ups = ingest_ms > 0 ? 1000.0 * static_cast<double>(stream.size()) / ingest_ms
                                     : 0;
    add_row("latency", "h1024", "mixed", last, oneshot, ups, 0, percentile(query_ms, 0.50),
            percentile(query_ms, 0.99));
    session.close();
  }

  t.print("F14: continuous serving, churned k=" + std::to_string(k) + " stream (" +
          std::to_string(stream.size()) + " updates) over n=" + std::to_string(n));
  std::printf(
      "   every row's certificate must be bit-identical to the one-shot pipeline at that "
      "point; throughput and latency are reported, never gated\n");

  Json doc = Json::object();
  doc.set("bench", "f14_serve").set("all_ok", all_ok).set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok ? 0 : 1;
}
