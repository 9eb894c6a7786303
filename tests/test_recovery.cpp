#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "serve/session.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_test_util.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {
namespace {

SketchConnectivity ingested_bank(const GraphStream& s, const SketchOptions& opt) {
  SketchConnectivity bank(s.num_vertices(), opt);
  for (const StreamUpdate& u : s.updates()) bank.update(u.u, u.v, u.insert ? 1 : -1);
  return bank;
}

TEST(ParallelRecovery, BitIdenticalToSequentialForEveryThreadCount) {
  // The tentpole property: parallel Borůvka-on-sketches recovery must be
  // *bit-identical* to the sequential path — same forests in the same order
  // — for every thread count, and recovery only reads the bank: its encoded
  // bytes afterwards are the ingested bytes.
  for (std::uint64_t seed : {5u, 19u}) {
    const GraphStream s = churned_stream(56, 2, seed);
    SketchOptions sopt;
    sopt.seed = 700 + seed;
    sopt.max_forests = 2;

    const SketchConnectivity sequential = ingested_bank(s, sopt);
    const std::vector<std::uint8_t> ingested = encode_bank(sequential);
    const KForests want = sequential.recover_forests(2, {.threads = 1});
    ASSERT_TRUE(want.converged);
    EXPECT_EQ(encode_bank(sequential), ingested);
    EXPECT_EQ(sequential.copies_used(), 0);

    for (int threads : {2, 4, 8}) {
      const SketchConnectivity bank = decode_bank(ingested);
      const KForests got = bank.recover_forests(2, {.threads = threads});
      ASSERT_EQ(got.forests.size(), want.forests.size()) << "threads=" << threads;
      for (std::size_t f = 0; f < got.forests.size(); ++f) {
        ASSERT_EQ(got.forests[f].size(), want.forests[f].size()) << "threads=" << threads;
        for (std::size_t i = 0; i < got.forests[f].size(); ++i) {
          EXPECT_EQ(got.forests[f][i].u, want.forests[f][i].u) << "threads=" << threads;
          EXPECT_EQ(got.forests[f][i].v, want.forests[f][i].v) << "threads=" << threads;
        }
      }
      EXPECT_EQ(got.copies_used, want.copies_used) << "threads=" << threads;
      EXPECT_EQ(encode_bank(bank), ingested) << "threads=" << threads;
    }

    // The consuming form recovers the same forests and only moves the
    // cursor, which sketch_io carries in the bank header.
    SketchConnectivity consumed = decode_bank(ingested);
    EXPECT_EQ(sorted_pairs(consumed.k_spanning_forests(2)), sorted_pairs(want.forests));
    EXPECT_EQ(consumed.copies_used(), want.copies_used);
    EXPECT_EQ(peek_chunk(encode_bank(consumed)).cursor, want.copies_used);
  }
}

TEST(ParallelRecovery, SpanningForestMatchesAcrossThreads) {
  const GraphStream s = churned_stream(48, 2, 3);
  SketchOptions sopt;
  sopt.seed = 81;
  SketchConnectivity sequential = ingested_bank(s, sopt);
  const std::vector<SketchEdge> want = sequential.spanning_forest({.threads = 1});
  for (int threads : {2, 4, 8}) {
    SketchConnectivity bank = ingested_bank(s, sopt);
    const std::vector<SketchEdge> got = bank.spanning_forest({.threads = threads});
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].u, want[i].u);
      EXPECT_EQ(got[i].v, want[i].v);
    }
    EXPECT_EQ(bank.copies_used(), sequential.copies_used());
  }
}

TEST(ParallelRecovery, ShardedPipelineEndToEndParallel) {
  // Parallel ingestion + parallel recovery together: certificate identical
  // to the fully sequential pipeline.
  const GraphStream s = churned_stream(64, 3, 9);
  SketchOptions sopt;
  sopt.seed = 4100;
  const SparsifyResult want = ingest(s, 3, {.sketch = sopt});
  ThreadPool drain_pool(4);
  const SparsifyResult got =
      ingest(s, 3, {.sketch = sopt, .recovery = {.threads = 4}, .gutter = {.pool = &drain_pool}});
  EXPECT_EQ(sorted_pairs(got.forests), sorted_pairs(want.forests));
  ASSERT_EQ(got.certificate.num_edges(), want.certificate.num_edges());
  for (const Edge& e : want.certificate.edges()) EXPECT_TRUE(got.certificate.has_edge(e.u, e.v));
}

TEST(ParallelRecovery, StatsAccountForEveryRound) {
  const GraphStream s = churned_stream(40, 2, 7);
  SketchOptions sopt;
  sopt.seed = 321;
  sopt.max_forests = 2;
  SketchConnectivity bank = ingested_bank(s, sopt);
  const KForests r = bank.try_k_spanning_forests(2, {.threads = 2});
  ASSERT_TRUE(r.converged);
  // copies_used also counts the rotation to each forest's group boundary,
  // so it dominates the rounds that actually sampled.
  EXPECT_LE(r.stats.rounds, bank.copies_used());
  EXPECT_GE(r.stats.rounds, 1);
  EXPECT_EQ(static_cast<int>(r.stats.per_round.size()), r.stats.rounds);
  long long samples = 0, failures = 0;
  int merges = 0;
  for (const RoundStats& rs : r.stats.per_round) {
    EXPECT_GE(rs.components, 1);
    EXPECT_LE(rs.failures, rs.components);
    samples += rs.components;
    failures += rs.failures;
    merges += rs.merges;
  }
  EXPECT_EQ(samples, r.stats.samples);
  EXPECT_EQ(failures, r.stats.failures);
  std::size_t edges = 0;
  for (const auto& f : r.forests) edges += f.size();
  EXPECT_EQ(static_cast<std::size_t>(merges), edges);
}

TEST(ParallelRecovery, ResumeRequiresFreshBank) {
  const GraphStream s = churned_stream(24, 2, 1);
  SketchOptions sopt;
  sopt.seed = 11;
  SketchConnectivity bank = ingested_bank(s, sopt);
  (void)bank.spanning_forest();
  ASSERT_GT(bank.copies_used(), 0);
  const KForests prior;  // even an empty prior demands an unconsumed bank
  EXPECT_THROW((void)bank.try_k_spanning_forests(1, {}, &prior), std::logic_error);
}

TEST(ParallelRecovery, ResumeKeepsCompletedForestsVerbatim) {
  // Simulate a failed attempt by hand: recover one forest, declare the
  // second "failed" with a few of its edges, and resume on a fresh bank.
  // The completed forest must come back verbatim and the union must still
  // be a valid 2-certificate of the streamed graph.
  Rng rng(77);
  Graph g = random_kec(40, 2, 80, rng);
  const GraphStream s = GraphStream::from_graph(g, rng);
  SketchOptions sopt;
  sopt.seed = 1234;
  sopt.max_forests = 2;

  SketchConnectivity first = ingested_bank(s, sopt);
  KForests attempt = first.try_k_spanning_forests(2, {});
  ASSERT_TRUE(attempt.converged);
  ASSERT_EQ(attempt.forests.size(), 2u);
  // Truncate forest 2 to fake a mid-forest failure.
  KForests failed;
  failed.converged = false;
  failed.forests = attempt.forests;
  failed.forests[1].resize(failed.forests[1].size() / 2);

  SketchOptions retry_opt = sopt;
  retry_opt.seed = 4321;  // fresh randomness, as the adaptive loop would use
  retry_opt.max_forests = 1;
  SketchConnectivity second = ingested_bank(s, retry_opt);
  const KForests resumed = second.try_k_spanning_forests(2, {}, &failed);
  ASSERT_TRUE(resumed.converged);
  ASSERT_EQ(resumed.forests.size(), 2u);
  // Forest 1 carried verbatim.
  ASSERT_EQ(resumed.forests[0].size(), attempt.forests[0].size());
  for (std::size_t i = 0; i < resumed.forests[0].size(); ++i) {
    EXPECT_EQ(resumed.forests[0][i].u, attempt.forests[0][i].u);
    EXPECT_EQ(resumed.forests[0][i].v, attempt.forests[0][i].v);
  }
  // The carried partial prefix survives in forest 2.
  ASSERT_GE(resumed.forests[1].size(), failed.forests[1].size());
  // Union is edge-disjoint, real, and 2-edge-connected.
  auto pairs = sorted_pairs(resumed.forests);
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  Graph cert(g.num_vertices());
  for (const auto& f : resumed.forests)
    for (const SketchEdge& e : f) {
      EXPECT_TRUE(g.has_edge(e.u, e.v));
      cert.add_edge(e.u, e.v, 1);
    }
  EXPECT_TRUE(is_k_edge_connected(cert, 2));
}

// ---------------------------------------------------------------------------
// Golden recovery. The thread-count and resume suites compare recovery with
// itself, so they cannot see a bug every path shares; these pin the exact
// forests and telemetry of reference runs instead. The values were captured
// from the eager-erasure recovery (every peeled edge written into every
// still-unused copy), an implementation that shares no code with today's
// lazy per-round peel.

std::uint64_t forests_digest(const std::vector<std::vector<SketchEdge>>& forests) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a over (size, u, v, u, v, …) per forest
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const auto& f : forests) {
    mix(f.size());
    for (const SketchEdge& e : f) {
      mix(static_cast<std::uint64_t>(e.u));
      mix(static_cast<std::uint64_t>(e.v));
    }
  }
  return h;
}

struct RecoveryGolden {
  std::uint64_t digest;
  int rounds;
  long long samples, failures;
  int copies_used;
};

void expect_recovery_golden(const std::vector<std::vector<SketchEdge>>& forests,
                            const RecoveryStats& stats, int copies_used,
                            const RecoveryGolden& want, const std::string& what) {
  EXPECT_EQ(forests_digest(forests), want.digest) << what;
  EXPECT_EQ(stats.rounds, want.rounds) << what;
  EXPECT_EQ(stats.samples, want.samples) << what;
  EXPECT_EQ(stats.failures, want.failures) << what;
  EXPECT_EQ(copies_used, want.copies_used) << what;
}

TEST(RecoveryGolden, KForestsMatchTheReference) {
  // Three columns instead of six so some samples fail and retry.
  const RecoveryGolden want[] = {
      {0x9cfa3bd8afd61819ull, 3, 106, 1, 11},
      {0x8a82a6c63f5b3c9full, 6, 213, 5, 22},
      {0xf7208a58ec16468bull, 10, 332, 5, 33},
  };
  for (int k : {1, 2, 3}) {
    const GraphStream s = churned_stream(80, k, 500 + static_cast<std::uint64_t>(k));
    SketchOptions sopt;
    sopt.seed = 9000 + static_cast<std::uint64_t>(k);
    sopt.max_forests = k;
    sopt.columns = 3;
    for (int threads : {1, 4}) {
      const std::string what = "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      const RecoveryGolden& g = want[k - 1];
      SketchConnectivity bank = ingested_bank(s, sopt);
      const KForests r = bank.try_k_spanning_forests(k, {.threads = threads});
      ASSERT_TRUE(r.converged) << what;
      expect_recovery_golden(r.forests, r.stats, bank.copies_used(), g, what);
      SketchConnectivity twin = ingested_bank(s, sopt);
      EXPECT_EQ(forests_digest(twin.k_spanning_forests(k, {.threads = threads})), g.digest) << what;
      EXPECT_EQ(twin.copies_used(), g.copies_used) << what;
    }
  }
}

TEST(RecoveryGolden, ResumedRecoveryMatchesTheReference) {
  // A completed forest and a partial one carried into a fresh bank, which
  // then finishes the partial forest and recovers a third.
  const GraphStream s = churned_stream(72, 3, 610);
  SketchOptions sopt;
  sopt.seed = 6100;
  sopt.max_forests = 3;
  SketchConnectivity first = ingested_bank(s, sopt);
  const KForests attempt = first.try_k_spanning_forests(3, {});
  ASSERT_TRUE(attempt.converged);
  KForests failed;
  failed.converged = false;
  failed.forests = {attempt.forests[0], attempt.forests[1]};
  failed.forests[1].resize(failed.forests[1].size() / 2);

  SketchOptions retry_opt = sopt;
  retry_opt.seed = 6200;
  retry_opt.max_forests = 2;
  for (int threads : {1, 4}) {
    SketchConnectivity second = ingested_bank(s, retry_opt);
    const KForests r = second.try_k_spanning_forests(3, {.threads = threads}, &failed);
    ASSERT_TRUE(r.converged);
    expect_recovery_golden(r.forests, r.stats, second.copies_used(),
                           {0x4fba4bb3eb0b8397ull, 6, 148, 0, 22},
                           "threads=" + std::to_string(threads));
  }
}

TEST(RecoveryGolden, GrownAutoSizeAttemptMatchesTheReference) {
  const GraphStream s = churned_stream(96, 2, 41);
  SketchOptions opt;
  opt.seed = 97;
  opt.auto_size.enabled = true;
  opt.auto_size.initial_columns = 1;
  opt.auto_size.initial_rounds_slack = 1;
  opt.auto_size.max_attempts = 8;
  for (int threads : {1, 4}) {
    const std::string what = "threads=" + std::to_string(threads);
    const SparsifyResult r = ingest(s, 2, {.sketch = opt, .recovery = {.threads = threads}});
    EXPECT_EQ(r.attempts, 2) << what;  // columns grew 1 → 2
    EXPECT_EQ(r.columns_used, 2) << what;
    EXPECT_EQ(r.rounds_slack_used, 1) << what;
    expect_recovery_golden(r.forests, r.stats, r.copies_used, {0xec234f12e771f83eull, 1, 2, 0, 8},
                           what);
  }
}

TEST(RecoveryGolden, DisconnectedGraphMatchesTheReference) {
  // Two 2-edge-connected components on disjoint vertex ranges plus four
  // isolated vertices: every forest must stop at maximal, not spanning.
  Rng rng(620);
  const Graph a = random_kec(30, 2, 40, rng);
  const Graph b = random_kec(26, 2, 30, rng);
  Graph g(60);
  for (const Edge& e : a.edges()) g.add_edge(e.u, e.v, 1);
  for (const Edge& e : b.edges()) g.add_edge(e.u + 30, e.v + 30, 1);
  GraphStream s = GraphStream::from_graph(g, rng);
  s.churn(g.num_edges() / 2, rng);
  SketchOptions sopt;
  sopt.seed = 6300;
  sopt.max_forests = 2;
  for (int threads : {1, 4}) {
    SketchConnectivity bank = ingested_bank(s, sopt);
    const KForests r = bank.try_k_spanning_forests(2, {.threads = threads});
    ASSERT_TRUE(r.converged);
    expect_recovery_golden(r.forests, r.stats, bank.copies_used(),
                           {0x12d4702bde7955caull, 7, 179, 0, 20},
                           "threads=" + std::to_string(threads));
  }
}

TEST(RecoveryGolden, SplitSupernodesMatchSequential) {
  // Parallel recovery splits a supernode into segments only above 256
  // members, so the partial-sum combine (and the peel applied after it)
  // needs n well past that: the late rounds of each forest hold
  // supernodes of several hundred members.
  const GraphStream s = churned_stream(600, 2, 630);
  SketchOptions sopt;
  sopt.seed = 6400;
  sopt.max_forests = 2;
  SketchConnectivity sequential = ingested_bank(s, sopt);
  const KForests want = sequential.try_k_spanning_forests(2, {.threads = 1});
  ASSERT_TRUE(want.converged);
  expect_recovery_golden(want.forests, want.stats, sequential.copies_used(),
                         {0xa9afd1f588ca18b1ull, 9, 1552, 0, 28}, "threads=1");
  for (int threads : {2, 4}) {
    const std::string what = "threads=" + std::to_string(threads);
    SketchConnectivity bank = ingested_bank(s, sopt);
    const KForests r = bank.try_k_spanning_forests(2, {.threads = threads});
    ASSERT_TRUE(r.converged) << what;
    EXPECT_EQ(forests_digest(r.forests), forests_digest(want.forests)) << what;
    EXPECT_EQ(r.stats.rounds, want.stats.rounds) << what;
    EXPECT_EQ(r.stats.samples, want.stats.samples) << what;
    EXPECT_EQ(r.stats.failures, want.stats.failures) << what;
    EXPECT_EQ(bank.copies_used(), sequential.copies_used()) << what;
  }
}

TEST(AutoSize, CertificateRemainsKEdgeConnected) {
  // The adaptive path must deliver the same guarantee as the fixed
  // worst-case sizing: <= k(n-1) real edges, k-edge-connected whenever the
  // input is, edge-disjoint forests — whatever sizing it settled on.
  for (int k : {2, 3}) {
    for (int n : {24, 48, 96}) {
      Rng rng(600 + n * k);
      Graph g = random_kec(n, k, n, rng);
      ASSERT_TRUE(is_k_edge_connected(g, k));
      GraphStream s = GraphStream::from_graph(g, rng);
      SketchOptions opt;
      opt.seed = 8100 + static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);
      opt.auto_size.enabled = true;
      const SparsifyResult r = ingest(s, k, {.sketch = opt});
      EXPECT_LE(r.certificate.num_edges(), k * (n - 1)) << "n=" << n << " k=" << k;
      EXPECT_TRUE(is_k_edge_connected(r.certificate, k)) << "n=" << n << " k=" << k;
      for (const Edge& e : r.certificate.edges()) EXPECT_TRUE(g.has_edge(e.u, e.v));
      auto pairs = sorted_pairs(r.forests);
      EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
      EXPECT_GE(r.attempts, 1);
      EXPECT_LE(r.attempts, opt.auto_size.max_attempts);
      EXPECT_GE(r.columns_used, opt.auto_size.initial_columns);
      // Spot-check the telemetry the policy acts on (copies_used includes
      // forest-group rotation, so it dominates the sampling rounds).
      EXPECT_GE(r.copies_used, r.stats.rounds);
      EXPECT_GE(r.stats.rounds, 1);
    }
  }
}

TEST(AutoSize, DeterministicGivenSeed) {
  const GraphStream s = churned_stream(40, 2, 13);
  SketchOptions opt;
  opt.seed = 2024;
  opt.auto_size.enabled = true;
  const SparsifyResult a = ingest(s, 2, {.sketch = opt});
  const SparsifyResult b = ingest(s, 2, {.sketch = opt});
  EXPECT_EQ(sorted_pairs(a.forests), sorted_pairs(b.forests));
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.columns_used, b.columns_used);
  EXPECT_EQ(a.rounds_slack_used, b.rounds_slack_used);
  EXPECT_EQ(a.copies_used, b.copies_used);
}

TEST(AutoSize, ShardedMatchesSequentialAdaptive) {
  // Parallel gutter drains must not change any attempt: the adaptive
  // session holds its live bank at the attempt-0 sizing whatever pool
  // drains it, and grown attempts replay the same retained stream, so its
  // result is identical to the inline one.
  const GraphStream s = churned_stream(48, 2, 29);
  SketchOptions opt;
  opt.seed = 555;
  opt.auto_size.enabled = true;
  const SparsifyResult want = ingest(s, 2, {.sketch = opt});
  for (int threads : {2, 4}) {
    ThreadPool drain_pool(threads);
    const SparsifyResult got =
        ingest(s, 2, {.sketch = opt, .recovery = {.threads = 2}, .gutter = {.pool = &drain_pool}});
    EXPECT_EQ(sorted_pairs(got.forests), sorted_pairs(want.forests)) << "threads=" << threads;
    EXPECT_EQ(got.attempts, want.attempts);
    EXPECT_EQ(got.columns_used, want.columns_used);
  }
}

TEST(AutoSize, UndersizedFirstAttemptStillConverges) {
  // Force attempt-0 failures with a pathologically small sizing; the
  // geometric growth must still land on a valid certificate.
  const GraphStream s = churned_stream(96, 2, 41);
  SketchOptions opt;
  opt.seed = 97;
  opt.auto_size.enabled = true;
  opt.auto_size.initial_columns = 1;
  opt.auto_size.initial_rounds_slack = 1;
  opt.auto_size.max_attempts = 8;
  const SparsifyResult r = ingest(s, 2, {.sketch = opt});
  const Graph net = s.materialize();
  EXPECT_LE(r.certificate.num_edges(), 2 * (s.num_vertices() - 1));
  EXPECT_TRUE(is_k_edge_connected(r.certificate, 2));
  for (const Edge& e : r.certificate.edges()) EXPECT_TRUE(net.has_edge(e.u, e.v));
}

TEST(AutoSize, PolicyTravelsThroughWireFormat) {
  SketchOptions opt;
  opt.seed = 7;
  opt.auto_size.enabled = true;
  opt.auto_size.initial_columns = 3;
  opt.auto_size.max_attempts = 4;
  const SketchConnectivity bank(16, opt);
  const SketchConnectivity back = decode_bank(encode_bank(bank));
  EXPECT_TRUE(back.compatible(bank));
  EXPECT_EQ(back.options().auto_size, opt.auto_size);

  // Policy mismatch breaks compatibility — shards disagreeing on sizing
  // must not merge.
  SketchOptions other = opt;
  other.auto_size.initial_columns = 2;
  const SketchConnectivity skewed(16, other);
  EXPECT_FALSE(skewed.compatible(bank));
  SketchConnectivity into(16, opt);
  EXPECT_THROW(into.merge(skewed), std::logic_error);
}

TEST(AutoSize, RejectsInvalidPolicy) {
  SketchOptions opt;
  opt.auto_size.growth = 1;  // would never grow — a configuration bug
  EXPECT_THROW(SketchConnectivity(8, opt), std::logic_error);
  opt.auto_size.growth = 2;
  opt.auto_size.max_attempts = 0;
  EXPECT_THROW(SketchConnectivity(8, opt), std::logic_error);
  opt.auto_size.max_attempts = 1;
  opt.auto_size.initial_columns = 0;
  EXPECT_THROW(SketchConnectivity(8, opt), std::logic_error);
}

}  // namespace
}  // namespace deck
