#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "graph/generators.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_test_util.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {
namespace {

TEST(SplitSeed, MatchesSplitMixStream) {
  // split_seed(base, i) is defined as the i-th SplitMix64 output — the O(1)
  // jump must agree with actually stepping the generator.
  const std::uint64_t base = 0xfeedULL;
  std::uint64_t state = base;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t stepped = splitmix64(state);
    EXPECT_EQ(split_seed(base, i), stepped) << i;
  }
}

TEST(SplitSeed, NearbyBasesAndIndicesDecorrelate) {
  // The failure mode of `base + f(index)` seeding: adjacent bases sharing an
  // arithmetic progression collide across streams. split_seed children must
  // all be distinct across a block of nearby (base, index) pairs.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 8; ++base)
    for (std::uint64_t i = 0; i < 64; ++i) seen.push_back(split_seed(base, i));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitRethrowsFirstJobError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("boom"); });
  EXPECT_THROW(pool.wait(), std::logic_error);
  // The pool stays usable after an error is collected.
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, ForRangeCoversRangeExactlyOnce) {
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.for_range(hits.size(), [&hits](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // Empty ranges are a no-op.
    pool.for_range(0, [](std::size_t, std::size_t) { FAIL() << "called on empty range"; });
  }
}

TEST(ThreadPool, ForRangeRethrowsBodyError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_range(100,
                              [](std::size_t b, std::size_t) {
                                if (b == 0) throw std::logic_error("boom");
                              }),
               std::logic_error);
  // Pool stays usable afterwards.
  std::atomic<int> ran{0};
  pool.for_range(10, [&ran](std::size_t b, std::size_t e) {
    ran.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ShardedIngest, ShardCountNeverChangesRecoveredForests) {
  // Property test for the seed-splitting fix: across seeds, drain-pool sizes
  // and gutter flush sizes, a session whose gutters drain in parallel on a
  // lent pool recovers the forest set of an inline session.
  for (std::uint64_t seed : {3u, 7u, 31u}) {
    const GraphStream s = churned_stream(40, 2, seed);
    IngestOptions io;
    io.sketch.seed = 1000 + seed;
    const SparsifyResult sequential = ingest(s, 2, io);
    const auto want = sorted_pairs(sequential.forests);
    for (int shards : {2, 4, 8}) {
      ThreadPool pool(shards);
      IngestOptions sharded = io;
      sharded.gutter.pool = &pool;
      // Also vary batching: every half spills on push, some do, or all wait
      // for the parallel drain.
      sharded.gutter.policy.max_halves = shards == 2 ? 1 : shards == 4 ? 64 : 1 << 20;
      const SparsifyResult got = ingest(s, 2, sharded);
      EXPECT_EQ(sorted_pairs(got.forests), want) << "seed=" << seed << " shards=" << shards;
      EXPECT_EQ(got.copies_used, sequential.copies_used);
    }
  }
}

TEST(ShardedIngest, CertificateMatchesSequentialSparsify) {
  const GraphStream s = churned_stream(64, 3, 5);
  IngestOptions io;
  io.sketch.seed = 4242;
  const SparsifyResult a = ingest(s, 3, io);
  ThreadPool pool(4);
  io.gutter.pool = &pool;
  const SparsifyResult b = ingest(s, 3, io);
  ASSERT_EQ(a.certificate.num_edges(), b.certificate.num_edges());
  for (const Edge& e : a.certificate.edges()) EXPECT_TRUE(b.certificate.has_edge(e.u, e.v));
}

TEST(SketchBankMerge, SplitStreamsMergeToWholeStream) {
  // Merge semantics directly: ingest even-indexed updates into one bank,
  // odd-indexed into another; the merged bank equals the whole-stream bank.
  const GraphStream s = churned_stream(32, 2, 13);
  SketchOptions sopt;
  sopt.seed = 7;

  SketchConnectivity whole(s.num_vertices(), sopt);
  SketchConnectivity even(s.num_vertices(), sopt);
  SketchConnectivity odd(s.num_vertices(), sopt);
  std::size_t i = 0;
  for (const StreamUpdate& u : s.updates()) {
    const int d = u.insert ? 1 : -1;
    whole.update(u.u, u.v, d);
    (i++ % 2 == 0 ? even : odd).update(u.u, u.v, d);
  }
  even.merge(odd);
  EXPECT_EQ(encode_bank(even), encode_bank(whole));
}

TEST(SketchBankMerge, RejectsIncompatibleBanks) {
  SketchOptions a, b;
  a.seed = 1;
  b.seed = 2;
  SketchConnectivity x(8, a), y(8, b), z(9, a);
  EXPECT_FALSE(x.compatible(y));  // seed mismatch
  EXPECT_FALSE(x.compatible(z));  // vertex-count mismatch
  EXPECT_THROW(x.merge(y), std::logic_error);
  EXPECT_THROW(x.merge(z), std::logic_error);
}

TEST(SketchBankMerge, RejectsMidRecoveryMerge) {
  Rng rng(3);
  Graph g = random_kec(16, 2, 16, rng);
  SketchOptions sopt;
  sopt.seed = 5;
  SketchConnectivity a(16, sopt), b(16, sopt);
  for (const Edge& e : g.edges()) {
    a.update(e.u, e.v, 1);
    b.update(e.u, e.v, 1);
  }
  (void)a.spanning_forest();  // consumes copies
  ASSERT_GT(a.copies_used(), 0);
  EXPECT_THROW(a.merge(b), std::logic_error);
}

}  // namespace
}  // namespace deck
