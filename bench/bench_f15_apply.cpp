// F15 — batched apply throughput: the session's gutter path vs the
// per-update loop.
//
// The f15 workload is a dense churned stream over a k-edge-connected graph,
// ingested the way a GraphSession ingests it: gutters (the default layout)
// flushing per-source runs into SketchConnectivity::apply_batch →
// L0Sampler::update_run, drained at the end. The batch axis is the gutter
// flush size, FlushPolicy::max_halves ∈ {16, 64, 256, 1024}. Per row we
// report wall-clock ingestion throughput (bank construction included,
// best-of-R timed passes) and its speedup over a timed loop of per-update
// SketchConnectivity::update calls on the same stream (best-of-R too).
// Exactness is verified untimed on every row: the bank's serialized bytes
// must equal the per-update loop's (bit-identical sketch state). Exit
// status reflects only exactness — throughput and speedup depend on the
// host (the AVX-512 update_run kernel needs an AVX512F+DQ build machine and
// the DECK_SIMD build knob), so they are reported, not gated. A
// machine-readable JSON document follows the tables; the bench-regression
// CI gate diffs its deterministic fields (bank bytes) against
// bench/baselines/f15_apply.json and fails on any false identity flag.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sketch/l0_sampler.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_ingest.hpp"

using namespace deck;

namespace {

/// Best-of-`reps` wall time of `pass` in milliseconds.
template <typename Pass>
double best_ms(int reps, Pass&& pass) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    pass();
    const auto stop = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(stop - start).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// The per-update reference: every update applied to both endpoints with
/// SketchConnectivity::update, in stream order.
SketchConnectivity update_loop_bank(const GraphStream& stream, const SketchOptions& sopt) {
  SketchConnectivity bank(stream.num_vertices(), sopt);
  for (const StreamUpdate& u : stream.updates()) bank.update(u.u, u.v, u.insert ? 1 : -1);
  return bank;
}

/// The session's path: gutters flushing at `batch` halves into apply_batch.
SketchConnectivity gutter_bank(const GraphStream& stream, const SketchOptions& sopt,
                               std::size_t batch) {
  SketchConnectivity bank(stream.num_vertices(), sopt);
  GutterOptions gopt;
  gopt.policy.max_halves = batch;
  bench::gutter_ingest(bank, stream, gopt);
  return bank;
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
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{64, 256} : std::vector<std::size_t>{16, 64, 256, 1024};
  const int reps = smoke ? 1 : 3;
  const int k = 2;

  Json rows = Json::array();
  bool all_ok = true;
  // Worst speedup over the per-update loop across all measured cells with
  // batch >= 256; 0 until one is measured.
  double min_speedup_256 = 0;
  bool have_speedup_256 = false;

  std::printf("apply kernel: %s\n\n", simd_apply_kernel());

  for (int n : sizes) {
    Rng rng(15000 + n);
    Graph g = random_kec(n, k, 5 * n, rng);
    GraphStream stream = GraphStream::from_graph(g, rng);
    stream.churn(3 * g.num_edges(), rng);
    const auto updates = static_cast<double>(stream.size());

    SketchOptions sopt;
    sopt.seed = 15500 + static_cast<std::uint64_t>(n);
    sopt.max_forests = k;

    // Per-update reference: the bank bytes every cell must reproduce, and
    // the time every cell's speedup is measured against.
    const std::vector<std::uint8_t> ref_bank = encode_bank(update_loop_bank(stream, sopt));
    const double loop_ms = best_ms(reps, [&] { (void)update_loop_bank(stream, sopt); });
    std::printf("per-update loop, n = %d: %.2f ms (%.0f updates/s)\n", n, loop_ms,
                updates / (loop_ms / 1000.0));

    Table t({"batch", "updates", "ms", "updates/s", "speedup", "identical"});
    for (std::size_t batch : batch_sizes) {
      // Exactness first (untimed), then the timed passes.
      const bool identical = encode_bank(gutter_bank(stream, sopt, batch)) == ref_bank;
      all_ok = all_ok && identical;

      const double ms = best_ms(reps, [&] { (void)gutter_bank(stream, sopt, batch); });
      const double speedup = ms > 0 ? loop_ms / ms : 1.0;
      if (batch >= 256) {
        min_speedup_256 = have_speedup_256 ? std::min(min_speedup_256, speedup) : speedup;
        have_speedup_256 = true;
      }
      t.add(batch, stream.size(), ms, updates / (ms / 1000.0), speedup, identical ? "yes" : "NO");

      Json row = Json::object();
      row.set("n", n)
          .set("k", k)
          .set("batch", static_cast<std::uint64_t>(batch))
          .set("stream_updates", static_cast<std::uint64_t>(stream.size()))
          .set("bank_bytes", static_cast<std::uint64_t>(ref_bank.size()))
          .set("bank_identical_to_scalar", identical)
          .set("ingest_ms", ms)
          .set("updates_per_sec", updates / (ms / 1000.0))
          .set("speedup_vs_update_loop", speedup);
      rows.push(std::move(row));
    }
    t.print("F15: batched apply, n = " + std::to_string(n) + ", k = " + std::to_string(k));
    std::printf("\n");
  }

  std::printf("   banks bit-identical to the per-update loop on all rows: %s\n",
              all_ok ? "yes" : "NO");
  if (have_speedup_256)
    std::printf("   min speedup over the per-update loop at batch >= 256: %.2fx\n",
                min_speedup_256);
  std::printf("\n");

  Json doc = Json::object();
  doc.set("bench", "f15_apply")
      .set("all_ok", all_ok)
      .set("kernel", simd_apply_kernel())
      .set("speedup_min_batch256plus", min_speedup_256)
      .set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok ? 0 : 1;
}
