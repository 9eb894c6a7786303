// Bit-identity property tests for the batched apply path
// (SketchConnectivity::apply_batch → L0Sampler::update_run): every surface
// that funnels through apply_batch (per-source runs of any size, gutter
// flush policies and parallel drains, session queries, coordinated net
// ingest) must build the bank a loop of per-update
// SketchConnectivity::update calls builds — down to
// encode_bank()/encode_sampler() bytes — plus an
// odd-sized/unaligned-run suite for both update_run bodies and the
// all-or-nothing validation of a batch.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "net/ingest.hpp"
#include "net/transport.hpp"
#include "serve/gutter.hpp"
#include "serve/session.hpp"
#include "sketch/l0_sampler.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_test_util.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {
namespace {

/// Sequential per-update reference bank for a stream: the oracle every
/// batched surface and regrouping must match byte-for-byte.
SketchConnectivity reference_bank(const GraphStream& stream, const SketchOptions& opt) {
  SketchConnectivity bank(stream.num_vertices(), opt);
  for (const StreamUpdate& u : stream.updates()) bank.update(u.u, u.v, u.insert ? 1 : -1);
  return bank;
}

/// The bank a GutteringSystem with `gopt` builds from `stream`, flushing
/// straight into apply_batch and drained at the end — the session's ingest
/// path without the session.
SketchConnectivity gutter_bank(const GraphStream& stream, const SketchOptions& opt,
                               const GutterOptions& gopt) {
  SketchConnectivity bank(stream.num_vertices(), opt);
  GutteringSystem gutters(stream.num_vertices(), gopt,
                          [&](VertexId src, std::span<const VertexDelta> deltas) {
                            bank.apply_batch(src, deltas);
                          });
  for (const StreamUpdate& u : stream.updates()) gutters.push(u.u, u.v, u.insert ? 1 : -1);
  gutters.drain();
  return bank;
}

/// One gutter per vertex, spilling at `batch` halves: per-source runs of
/// exactly `batch` halves as they fill, remainders at the drain.
GutterOptions per_source_runs(int n, std::size_t batch) {
  GutterOptions gopt;
  gopt.num_gutters = n;
  gopt.policy.max_halves = batch;
  return gopt;
}

SketchOptions small_options(std::uint64_t seed) {
  SketchOptions opt;
  opt.seed = seed;
  opt.max_forests = 2;
  return opt;
}

TEST(ApplyBatch, UpdateRunMatchesPerDeltaUpdates) {
  // The kernel-level identity, over odd/unaligned run lengths and column
  // counts covering both update_run bodies: 1..8 run the AVX-512 kernel
  // where it is compiled in (one masked zmm row), 9/31/33 always take the
  // per-delta update() loop.
  Rng rng(41);
  const std::uint64_t universe = 97 * 97;
  for (int columns : {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 33}) {
    for (std::size_t len : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
                            std::size_t{13}, std::size_t{63}, std::size_t{255}, std::size_t{257},
                            std::size_t{1000}}) {
      L0Sampler reference(universe, /*seed=*/7, columns);
      L0Sampler batched(universe, /*seed=*/7, columns);
      std::vector<RawDelta> run;
      run.reserve(len);
      for (std::size_t i = 0; i < len; ++i) {
        // Duplicate indices and cancelling ± deltas included by construction.
        const std::uint64_t index = rng.next_below(universe / 4);
        const std::int64_t delta = rng.next_bool(0.5) ? 1 : -1;
        run.push_back({index, delta});
        reference.update(index, static_cast<int>(delta));
      }
      batched.update_run(std::span<const RawDelta>(run.data(), run.size()));
      EXPECT_EQ(encode_sampler(reference), encode_sampler(batched))
          << "columns=" << columns << " len=" << len;
    }
  }
}

TEST(ApplyBatch, UpdateRunSkipsZeroDeltasAndEmptyRuns) {
  L0Sampler a(1024, 11, 6);
  L0Sampler b(1024, 11, 6);
  b.update_run({});
  const std::vector<RawDelta> zeros = {{5, 0}, {9, 0}};
  b.update_run(std::span<const RawDelta>(zeros.data(), zeros.size()));
  EXPECT_EQ(encode_sampler(a), encode_sampler(b));
  EXPECT_TRUE(b.empty());
}

TEST(ApplyBatch, ApplyBatchIdentityAcrossBatchSizes) {
  // Whole-bank identity for direct apply_batch at odd/unaligned batch
  // sizes, including batches far larger than any per-source run.
  const GraphStream stream = churned_stream(48, 2, 901);
  const SketchOptions opt = small_options(902);
  const std::vector<std::uint8_t> want = encode_bank(reference_bank(stream, opt));
  for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{17}, std::size_t{255},
                            std::size_t{256}, std::size_t{100000}}) {
    const GutterOptions gopt = per_source_runs(stream.num_vertices(), batch);
    EXPECT_EQ(encode_bank(gutter_bank(stream, opt, gopt)), want) << "batch=" << batch;
  }
}

TEST(ApplyBatch, RejectedBatchLeavesTheBankUntouched) {
  // A batch is validated in full before any copy is touched: a bad half
  // anywhere in it throws with the bank unchanged, even when valid halves
  // precede it.
  const SketchOptions opt = small_options(3);
  SketchConnectivity bank(8, opt);
  bank.update(0, 5, 1);
  const std::vector<std::uint8_t> before = encode_bank(bank);
  const std::vector<VertexDelta> self_loop = {{1, +1}, {3, +1}, {2, -1}};
  EXPECT_THROW(bank.apply_batch(2, std::span<const VertexDelta>(self_loop.data(), self_loop.size())),
               std::logic_error);
  EXPECT_EQ(encode_bank(bank), before) << "self-loop";
  const std::vector<VertexDelta> out_of_range = {{1, +1}, {3, +1}, {8, -1}};
  EXPECT_THROW(
      bank.apply_batch(2, std::span<const VertexDelta>(out_of_range.data(), out_of_range.size())),
      std::logic_error);
  EXPECT_EQ(encode_bank(bank), before) << "dst out of range";
}

TEST(ApplyBatch, TinyGraphIdentity) {
  // n = 2: a single possible edge, exercising the smallest universe.
  GraphStream s(2);
  s.insert(0, 1);
  s.erase(0, 1);
  s.insert(1, 0);
  const SketchOptions opt = small_options(77);
  EXPECT_EQ(encode_bank(gutter_bank(s, opt, per_source_runs(2, 2))),
            encode_bank(reference_bank(s, opt)));
}

TEST(ApplyBatch, GutterFlushPolicyIdentity) {
  // Gutter flush path, straight into apply_batch: every flush policy merges
  // to the oracle's bank bytes, flushed inline or drained in parallel on a
  // lent pool of 1/2/4/8 threads — the session's one sharded ingest path.
  const GraphStream stream = churned_stream(40, 2, 601);
  const SketchOptions opt = small_options(602);
  const std::vector<std::uint8_t> want = encode_bank(reference_bank(stream, opt));
  const FlushPolicy policies[] = {
      {/*max_halves=*/1024, /*max_age=*/0},
      {/*max_halves=*/7, /*max_age=*/0},
      {/*max_halves=*/64, /*max_age=*/16},
  };
  for (const FlushPolicy& policy : policies) {
    for (int threads : {0, 1, 2, 4, 8}) {
      std::optional<ThreadPool> pool;
      GutterOptions gopt;
      gopt.num_gutters = 4;
      gopt.policy = policy;
      if (threads > 0) {
        gopt.num_gutters = 0;  // derived: 4 per pool thread
        gopt.pool = &pool.emplace(threads);
      }
      EXPECT_EQ(encode_bank(gutter_bank(stream, opt, gopt)), want)
          << "max_halves=" << policy.max_halves << " max_age=" << policy.max_age
          << " threads=" << threads;
    }
  }
}

TEST(ApplyBatch, SessionQueryMatchesPerUpdateOracle) {
  // End-to-end through GraphSession: inline and pooled-drain sessions (with
  // small, unaligned gutter flushes) answer exactly what recovery on the
  // per-update oracle bank answers.
  const GraphStream stream = churned_stream(48, 2, 701);
  const SketchOptions sopt = small_options(702);
  const KForests want = reference_bank(stream, sopt).recover_forests(2);
  ASSERT_TRUE(want.converged);
  ThreadPool pool(3);
  for (ThreadPool* drain_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    IngestOptions io;
    io.sketch = sopt;
    io.gutter.pool = drain_pool;
    io.gutter.policy.max_halves = 11;
    const SparsifyResult got = ingest(stream, 2, io);
    EXPECT_EQ(sorted_pairs(got.forests), sorted_pairs(want.forests))
        << "pooled=" << (drain_pool != nullptr);
    EXPECT_EQ(got.copies_used, want.copies_used);
    EXPECT_EQ(got.attempts, 1);
  }
}

TEST(ApplyBatch, CoordinatedIngestIdentityDownToBankBytes) {
  // Multi-process protocol surface: workers ingesting with an unaligned
  // per-source batch limit must assemble to the oracle's bank bytes.
  const GraphStream stream = churned_stream(32, 2, 801);
  const SketchOptions opt = small_options(802);
  const std::vector<std::uint8_t> want = encode_bank(reference_bank(stream, opt));

  constexpr int kWorkers = 3;
  std::vector<std::unique_ptr<Transport>> ends;
  std::vector<Transport*> raw;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    auto [coordinator_end, worker_end] = loopback_pair();
    ends.push_back(std::move(coordinator_end));
    raw.push_back(ends.back().get());
    IngestWorkerOptions wopt;
    wopt.batch_halves = 13;
    threads.emplace_back(
        [&stream, w, wopt, t = std::shared_ptr<Transport>(std::move(worker_end))] {
          run_ingest_worker(*t, stream, static_cast<std::uint32_t>(w),
                            static_cast<std::uint32_t>(kWorkers), wopt);
        });
  }
  {
    ThreadPool pool(2);
    validate_ingest_roster(raw, stream.num_vertices());
    const SketchConnectivity merged =
        coordinated_ingest_attempt(raw, stream.num_vertices(), opt, pool);
    EXPECT_EQ(encode_bank(merged), want);
    shutdown_ingest_workers(raw);
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace
}  // namespace deck
