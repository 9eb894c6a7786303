#pragma once

// Sharded parallel sketch ingestion — the multi-inserter front-end the
// distributed k-ECSS pipeline (Dory PODC'18; Dory–Ghaffari '22) assumes:
// the update stream is partitioned across N inserter shards, each ingesting
// its slice of per-source batches on its own worker thread, composing into
// one global SketchConnectivity bank before forest recovery.
//
// Two execution strategies, both lock-free during ingestion:
//   - Static sharding (kHash, kVertexRange): each source vertex is owned by
//     exactly one shard, and a batch only touches its source's sketch
//     array, so shards write disjoint slices of the single global bank
//     directly — no merge step at all.
//   - Dynamic sharding (kDynamic): shards claim batches from a wait-free
//     queue, so any shard may touch any vertex; each owns a *private* bank
//     of ℓ₀ samplers and the banks are merged by sketch addition
//     afterwards. This is the in-process twin of the multi-process flow,
//     where shard banks are serialized (sketch_io) and shipped.
//
// Correctness rests on two deterministic ingredients:
//   - Linearity: a bank is a sum of per-update bucket increments, and
//     64-bit wrapping addition is associative and commutative, so *any*
//     partition of the stream — by hash, by vertex range, or dynamically
//     load-balanced — merges to the bit-identical bank a single sequential
//     inserter would build.
//   - Seed splitting: every shard derives the same per-copy sampler seeds
//     from SketchOptions::seed via split_seed (no shared RNG object), so
//     independently constructed banks are mergeable — including banks built
//     in other processes and shipped through sketch_io.
//
// apply_sharded() is the in-process fast path (threads). For the
// multi-process path, run one bank per process, encode_bank() it, and
// merge_encoded() the shipped buffers at the coordinator — see
// examples/sharded_pipeline.cpp.

#include <cstddef>
#include <vector>

#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"

namespace deck {

/// How per-source batches are assigned to inserter shards. All modes merge
/// to the identical global bank; they differ only in load balance and in
/// which shard touches which vertices.
enum class Sharding {
  kHash,         // shard = mix64(src) % shards — stateless, balanced in expectation
  kVertexRange,  // shard = src·shards/n — contiguous vertex ranges, cache-friendly
  kDynamic,      // shards claim batches from a lock-free queue — best balance
};

struct ShardOptions {
  int shards = 1;
  /// Directed halves per SourceBatch handed to a shard at a time.
  std::size_t batch_size = 1024;
  Sharding sharding = Sharding::kHash;
  /// Caller-owned pool to run the shard jobs on instead of constructing one
  /// per call — lets one ThreadPool serve ingestion, chunk assembly, and
  /// recovery back to back (pass it to RecoveryOptions::pool too). The pool
  /// must be otherwise idle for the duration of the call; its size is
  /// independent of `shards` (jobs queue), and any size yields the
  /// bit-identical merged bank.
  ThreadPool* pool = nullptr;
};

/// Static assignment of a batch source to a shard (kHash / kVertexRange).
int shard_of(VertexId src, int n, const ShardOptions& opt);

/// Composed global bank plus per-shard ingestion accounting.
struct ShardIngestResult {
  SketchConnectivity sketch;
  std::vector<std::size_t> shard_batches;  // batches ingested per shard
  std::vector<std::size_t> shard_halves;   // directed halves ingested per shard
};

/// Ingests `stream` with opt.shards parallel inserters and returns the
/// merged bank — bit-identical (encode_bank-equal) to sequential ingestion
/// with the same SketchOptions, for every shard count and sharding mode.
ShardIngestResult apply_sharded(const GraphStream& stream, const SketchOptions& sopt,
                                const ShardOptions& opt);

/// Sharded twin of sparsify_stream(): parallel ingestion, then the same
/// k-forest peeling on the merged bank — itself parallel over
/// ropt.threads. Recovered forests and certificate are identical to
/// sparsify_stream(stream, k, sopt, ropt) for fixed seeds, for every shard
/// count, sharding mode, and recovery thread count. With
/// sopt.auto_size.enabled, every adaptive attempt re-ingests through the
/// same sharded path, so all shards of an attempt agree on the attempt's
/// sizing by construction.
///
/// DEPRECATED wrapper over the GraphSession facade (serve/session.hpp):
/// opens a kSharded session (parallel gutter drains on opt.shards workers),
/// bulk-ingests `stream`, and queries once. New code should open a
/// GraphSession or call deck::ingest().
SparsifyResult sharded_sparsify_stream(const GraphStream& stream, int k, const SketchOptions& sopt,
                                       const ShardOptions& opt, const RecoveryOptions& ropt = {});

}  // namespace deck
