#pragma once

// ApplyBackend — the execution-strategy boundary of the batched ℓ₀ apply
// path (docs/sketch_internals.md).
//
// Every ingest surface (sharded apply, gutter flushes, net ingest workers)
// funnels per-source delta runs through SketchConnectivity::apply_batch;
// this header names *how* a run is applied:
//
//   kScalar — the reference path: per delta, walk every sketch copy and
//             update it bucket-by-bucket (delta-major). Semantically the
//             original per-update code, kept as the bit-identity oracle.
//   kSimd   — the batched path: translate the run once (edge-index
//             encoding, sign orientation), then apply it copy-major — each
//             copy's structure-of-arrays bucket rows stay cache-resident
//             for the whole run, hashes are computed once per delta in
//             vector lanes, and the per-level column passes are branchless
//             masked adds (portable fallback, plus `#ifdef __AVX2__` /
//             `#ifdef __AVX512DQ__` intrinsic kernels when the build
//             enables them — the CMake DECK_SIMD knob, ON by default,
//             compiles the kernel TU with -march=native -O3).
//
// Both backends are deterministic and produce bit-identical banks — down
// to encode_bank() bytes — because a bucket's value is a wrapping sum of
// per-delta contributions and both loop orders apply each copy's
// contributions in run order (see docs/sketch_internals.md for the full
// argument). Backend choice is therefore pure execution policy: it can
// differ per shard, per worker process, or per flush without affecting any
// result.
//
// BatchApplier is the offload-ready form of the boundary, shaped after
// GraphStreamingCC's GPU sketch path (fixed-size update batches in, merged
// bucket deltas out): submit() hands over one per-source batch, finish()
// is the merge barrier after which the bank reflects every submitted
// batch. The CPU backends apply synchronously (finish() is a no-op); an
// asynchronous offload backend would buffer batches, run them device-side,
// and merge bucket deltas back into the host bank by linearity at
// finish() — callers already honor the barrier, so it can slot in without
// touching them.

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "sketch/stream.hpp"

namespace deck {

class SketchConnectivity;

/// Execution strategy for SketchConnectivity::apply_batch. All backends
/// yield bit-identical banks; they differ only in speed.
enum class ApplyBackend {
  kScalar = 0,  // delta-major reference loop
  kSimd = 1,    // copy-major batched column passes over SoA bucket rows
};

/// "scalar" / "simd" — stable names for flags, logs, and bench rows.
const char* to_string(ApplyBackend backend);

/// Inverse of to_string(). Throws CheckError on an unknown name.
ApplyBackend parse_apply_backend(std::string_view name);

/// Name of the widest intrinsic kernel the simd backend was compiled with:
/// "avx512", "avx2", or "portable" (the autovectorized masked pass — still
/// batched, still bit-identical, usually still faster than scalar).
const char* simd_apply_kernel();

/// Offload-ready batch boundary over one bank (see the header comment for
/// the GraphStreamingCC-style contract). Deterministic CPU backends apply
/// each submitted batch synchronously; submit() calls for *distinct*
/// source vertices may run concurrently (a batch only touches its source's
/// sketch array — the disjoint-ownership argument of sketch/shard.hpp).
/// finish() must be called (and return) before the bank is read —
/// recovered from in place by a session query, or encoded; for the CPU
/// backends it is a no-op barrier.
class BatchApplier {
 public:
  BatchApplier(SketchConnectivity& bank, ApplyBackend backend);
  virtual ~BatchApplier() = default;

  BatchApplier(const BatchApplier&) = delete;
  BatchApplier& operator=(const BatchApplier&) = delete;

  /// Applies (kScalar/kSimd: immediately; offload: eventually) one
  /// per-source batch of directed halves to the bank.
  virtual void submit(VertexId src, std::span<const VertexDelta> deltas);

  /// Merge barrier: after finish() returns, the bank reflects every batch
  /// submitted so far — a session query recovers from the live bank in
  /// place right after it, with no copy in between. No-op for the
  /// synchronous CPU backends.
  virtual void finish() {}

  ApplyBackend backend() const { return backend_; }

 protected:
  SketchConnectivity& bank_;
  ApplyBackend backend_;
};

/// Factory for the boundary: today always a synchronous CPU applier; the
/// seam where an offload backend would return its own subclass.
std::unique_ptr<BatchApplier> make_batch_applier(SketchConnectivity& bank, ApplyBackend backend);

}  // namespace deck
