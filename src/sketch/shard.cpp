#include "sketch/shard.hpp"

#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {

int shard_of(VertexId src, int n, const ShardOptions& opt) {
  DECK_CHECK(opt.shards >= 1);
  DECK_CHECK(src >= 0 && src < n);
  switch (opt.sharding) {
    case Sharding::kHash:
      return static_cast<int>(mix64(static_cast<std::uint64_t>(src)) %
                              static_cast<std::uint64_t>(opt.shards));
    case Sharding::kVertexRange:
      return static_cast<int>(static_cast<std::int64_t>(src) * opt.shards / n);
    case Sharding::kDynamic:
      break;
  }
  DECK_CHECK_MSG(false,
                 "shard_of is undefined for dynamic sharding — batches are claimed, not assigned");
  return 0;
}

ShardIngestResult apply_sharded(const GraphStream& stream, const SketchOptions& sopt,
                                const ShardOptions& opt) {
  DECK_CHECK(opt.shards >= 1);
  DECK_CHECK(opt.batch_size >= 1);
  const int n = stream.num_vertices();
  const int shards = opt.shards;

  std::vector<SourceBatch> batches = collect_batches(stream, opt.batch_size);
  std::vector<std::size_t> shard_batches(static_cast<std::size_t>(shards), 0);
  std::vector<std::size_t> shard_halves(static_cast<std::size_t>(shards), 0);
  std::optional<ThreadPool> owned;
  if (opt.pool == nullptr) owned.emplace(shards);
  ThreadPool& pool = opt.pool != nullptr ? *opt.pool : *owned;

  if (opt.sharding != Sharding::kDynamic) {
    // Ownership fast path. A batch only ever touches its source vertex's
    // sketch array, and static sharding assigns each source to exactly one
    // shard — so the shards write *disjoint* slices of one global bank
    // directly: lock-free, merge-free, and trivially bit-identical to
    // sequential ingestion.
    std::vector<std::vector<const SourceBatch*>> assigned(static_cast<std::size_t>(shards));
    for (const SourceBatch& b : batches)
      assigned[static_cast<std::size_t>(shard_of(b.src, n, opt))].push_back(&b);
    SketchConnectivity bank(n, sopt);
    for (int s = 0; s < shards; ++s) {
      pool.submit([&, s] {
        const auto si = static_cast<std::size_t>(s);
        for (const SourceBatch* b : assigned[si]) {
          bank.apply_batch(b->src,
                           std::span<const VertexDelta>(b->deltas.data(), b->deltas.size()));
          ++shard_batches[si];
          shard_halves[si] += b->deltas.size();
        }
      });
    }
    pool.wait();
    return {std::move(bank), std::move(shard_batches), std::move(shard_halves)};
  }

  // Dynamic mode: workers claim batches from the lock-free queue, so any
  // shard may touch any vertex — each owns a *private* bank (no shared
  // mutable state during ingestion) and the banks are merged by sketch
  // addition afterwards. This is the in-process twin of the multi-process
  // flow (encode_bank per shard process, merge_encoded at the coordinator)
  // and costs one bank construction + merge per shard; prefer a static mode
  // when the stream is already well balanced. Each worker constructs its
  // own bank — per-copy seeds come from split_seed, not from any shared RNG
  // object, so all banks are compatible by construction.
  BatchQueue queue(std::move(batches));
  std::vector<std::optional<SketchConnectivity>> banks(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    pool.submit([&, s] {
      SketchConnectivity bank(n, sopt);
      const auto si = static_cast<std::size_t>(s);
      while (const SourceBatch* b = queue.try_pop()) {
        bank.apply_batch(b->src, std::span<const VertexDelta>(b->deltas.data(), b->deltas.size()));
        ++shard_batches[si];
        shard_halves[si] += b->deltas.size();
      }
      banks[si].emplace(std::move(bank));
    });
  }
  pool.wait();

  // Merge by sketch addition: order is irrelevant (wrapping integer sums),
  // so folding left is as good as any tree.
  obs::Span merge_span("sketch.bank_merge");
  merge_span.arg("banks", static_cast<std::uint64_t>(shards));
  const std::uint64_t merge_start = obs::enabled() ? obs::now_ns() : 0;
  SketchConnectivity merged = std::move(*banks[0]);
  for (int s = 1; s < shards; ++s) merged.merge(*banks[static_cast<std::size_t>(s)]);
  if (obs::enabled()) {
    static obs::Histogram& merge_ns = obs::Registry::global().histogram("sketch.bank_merge_ns");
    merge_ns.observe(obs::now_ns() - merge_start);
  }
  return {std::move(merged), std::move(shard_batches), std::move(shard_halves)};
}

// sharded_sparsify_stream() is now a deprecated wrapper over the
// GraphSession facade; its definition lives in serve/session.cpp so this
// layer never includes serve/ headers.

}  // namespace deck
