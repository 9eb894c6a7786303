// F10 — chunked vs monolithic bank shipping: coordinator peak memory and
// ship time.
//
// The f10 workload ships W workers' private ℓ₀ banks to a coordinator over
// loopback transports under the two shipping disciplines:
//   - monolithic (the PR-2 flow): each worker encodes its whole bank as one
//     buffer; the coordinator must stage the full buffer *and* the decoded
//     temporary bank before merging — per-arrival staging is ~2 bank
//     footprints, independent of any knob.
//   - chunked (this PR): workers stream framed per-vertex-range chunks
//     (sketch_io v3) and the coordinator folds each into the global bank on
//     arrival (BankAssembler) — staging is one chunk buffer, bounded by
//     ChunkOptions::target_chunk_bytes no matter how large the bank grows.
// Per row we report wire bytes, message count, deterministic peak staging
// bytes (gated), and wall-clock ship+merge time (volatile, never gated).
// Exactness is verified on every row: the composed bank's serialized bytes
// equal the single-process bank's, and the recovered certificate matches
// deck::ingest()'s edge for edge. A machine-readable JSON document follows
// the tables; the bench-regression CI gate diffs the deterministic fields
// against bench/baselines/f10_transport.json.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "graph/edge_connectivity.hpp"
#include "net/transport.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_ingest.hpp"

using namespace deck;

namespace {

struct ShipResult {
  SketchConnectivity bank;
  std::size_t wire_bytes = 0;
  std::size_t messages = 0;
  std::size_t peak_staging_bytes = 0;  // deterministic: buffers held during one merge
  double ship_ms = 0;
};

/// In-memory footprint of a decoded bank's buckets — what the monolithic
/// path stages *in addition to* the encoded buffer while merging.
std::size_t bank_bucket_bytes(int n, const SketchOptions& opt) {
  const std::uint64_t universe =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
  return static_cast<std::size_t>(n) *
         static_cast<std::size_t>(SketchConnectivity::total_copies_for(n, opt)) *
         static_cast<std::size_t>(opt.columns) *
         static_cast<std::size_t>(L0Sampler::levels_for(universe)) * 24;
}

/// Ships every worker's slice bank over loopback transports and composes
/// the global bank at the coordinator, chunked or monolithic.
ShipResult ship(const GraphStream& stream, const SketchOptions& sopt, int workers, bool chunked,
                std::size_t target_chunk_bytes) {
  const int n = stream.num_vertices();
  std::vector<std::unique_ptr<Transport>> coordinator_side;
  std::vector<std::thread> senders;
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < workers; ++w) {
    auto [c, wt] = loopback_pair();
    coordinator_side.push_back(std::move(c));
    senders.emplace_back([&stream, &sopt, n, w, workers, chunked, target_chunk_bytes,
                          t = std::shared_ptr<Transport>(std::move(wt))] {
      SketchConnectivity bank(n, sopt);
      std::size_t index = 0;
      for (const StreamUpdate& u : stream.updates())
        if (static_cast<int>(index++ % static_cast<std::size_t>(workers)) == w)
          bank.update(u.u, u.v, u.insert ? 1 : -1);
      ChunkOptions copt;
      copt.source_id = static_cast<std::uint32_t>(w);
      if (chunked) {
        copt.target_chunk_bytes = target_chunk_bytes;
      } else {
        copt.vertices_per_chunk = n;  // one whole-bank buffer, the PR-2 flow
      }
      for (const auto& chunk : encode_bank_chunks(bank, copt)) t->send(chunk);
      t->close();
    });
  }

  BankAssembler assembler(n, sopt);
  const std::size_t decoded_bytes = bank_bucket_bytes(n, sopt);
  std::size_t wire_bytes = 0, messages = 0, peak_staging_bytes = 0;
  for (auto& t : coordinator_side) {
    while (auto msg = t->recv()) {
      wire_bytes += msg->size();
      ++messages;
      // Staged while merging: just this chunk (it folds into the global bank
      // in place) — or, monolithic, the whole encoded bank plus the decoded
      // temporary a PR-2-style merge_encoded() would construct.
      peak_staging_bytes =
          std::max(peak_staging_bytes, chunked ? msg->size() : msg->size() + decoded_bytes);
      assembler.add_chunk(*msg);  // a whole v3 bank is its own single chunk
    }
  }
  for (auto& s : senders) s.join();
  const double ship_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  return {assembler.take(), wire_bytes, messages, peak_staging_bytes, ship_ms};
}

}  // namespace

int main(int argc, char** argv) {
  const bool large = bench::flag(argc, argv, "--large");
  // --smoke: sanitizer-friendly sizes (ASan/UBSan cost ~10x wall clock);
  // correctness flags and exit status are unchanged, rows are not gated.
  const bool smoke = bench::flag(argc, argv, "--smoke");
  const std::vector<int> sizes = smoke   ? std::vector<int>{48}
                                 : large ? std::vector<int>{192, 320}
                                         : std::vector<int>{96, 160};
  const int workers = 4;
  const int k = 2;
  const std::size_t target_chunk_bytes = 64 * 1024;

  Json rows = Json::array();
  bool all_ok = true;

  for (int n : sizes) {
    Rng rng(10100 + n);
    Graph g = random_kec(n, k, 5 * n, rng);
    GraphStream stream = GraphStream::from_graph(g, rng);
    stream.churn(g.num_edges(), rng);

    SketchOptions sopt;
    sopt.seed = 10000 + static_cast<std::uint64_t>(n);
    sopt.max_forests = k;

    // Single-process reference: the shipped-and-assembled bank and its
    // certificate must reproduce these exactly.
    SketchConnectivity local(n, sopt);
    bench::gutter_ingest(local, stream);
    const std::vector<std::uint8_t> ref_bank = encode_bank(local);
    const SparsifyResult ref_cert = ingest(stream, k, {.sketch = sopt});
    const bool cert_ok = ref_cert.certificate.num_edges() <= k * (n - 1) &&
                         is_k_edge_connected(ref_cert.certificate, k);
    all_ok = all_ok && cert_ok;

    Table t({"mode", "workers", "messages", "wire KiB", "peak KiB", "ms", "identical", "m_cert"});
    std::size_t monolithic_peak = 0;
    for (const bool chunked : {false, true}) {
      const char* mode = chunked ? "chunked" : "monolithic";
      ShipResult r = ship(stream, sopt, workers, chunked, target_chunk_bytes);
      const bool bank_identical = encode_bank(r.bank) == ref_bank;

      SketchConnectivity bank = std::move(r.bank);
      Graph cert(n);
      for (const auto& forest : bank.k_spanning_forests(k))
        for (const SketchEdge& e : forest) cert.add_edge(e.u, e.v, /*w=*/1);
      bool cert_identical = cert.num_edges() == ref_cert.certificate.num_edges();
      if (cert_identical)
        for (const Edge& e : ref_cert.certificate.edges())
          cert_identical = cert_identical && cert.has_edge(e.u, e.v);
      all_ok = all_ok && bank_identical && cert_identical;

      if (!chunked) monolithic_peak = r.peak_staging_bytes;
      t.add(mode, workers, r.messages, static_cast<double>(r.wire_bytes) / 1024.0,
            static_cast<double>(r.peak_staging_bytes) / 1024.0, r.ship_ms,
            (bank_identical && cert_identical) ? "yes" : "NO", cert.num_edges());

      Json row = Json::object();
      row.set("n", n)
          .set("k", k)
          .set("mode", mode)
          .set("workers", workers)
          .set("stream_updates", static_cast<std::uint64_t>(stream.size()))
          .set("messages", static_cast<std::uint64_t>(r.messages))
          .set("wire_bytes", static_cast<std::uint64_t>(r.wire_bytes))
          .set("peak_coordinator_bytes", static_cast<std::uint64_t>(r.peak_staging_bytes))
          .set("ship_ms", r.ship_ms)
          .set("bank_identical_to_1shard", bank_identical)
          .set("certificate_identical_to_1shard", cert_identical)
          .set("m_certificate", cert.num_edges())
          .set("certificate_k_connected", cert_ok);
      if (chunked) {
        const bool below = r.peak_staging_bytes < monolithic_peak;
        all_ok = all_ok && below;
        row.set("chunked_peak_below_monolithic", below)
            .set("peak_reduction_factor",
                 static_cast<double>(monolithic_peak) /
                     static_cast<double>(std::max<std::size_t>(1, r.peak_staging_bytes)));
      }
      rows.push(std::move(row));
    }
    t.print("F10: bank shipping, n = " + std::to_string(n) + ", k = " + std::to_string(k) +
            ", chunk target = " + std::to_string(target_chunk_bytes / 1024) + " KiB");
    std::printf("\n");
  }

  std::printf("   transport shipping exact and chunked peak below monolithic on all rows: %s\n\n",
              all_ok ? "yes" : "NO");
  Json doc = Json::object();
  doc.set("bench", "f10_transport").set("all_ok", all_ok).set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok ? 0 : 1;
}
