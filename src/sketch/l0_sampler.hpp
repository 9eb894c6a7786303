#pragma once

// ℓ₀-sampling linear sketches (Jowhari–Sağlam–Tardos style, as used by
// Ahn–Guha–McGregor graph sketching).
//
// An L0Sampler summarizes a vector x over universe [0, N) under a stream of
// coordinate updates x_i += δ in O(log N) buckets per column. Because the
// sketch is *linear*, the sketch of x + y is the bucket-wise sum of the
// sketches of x and y — merging two sketches needs no access to the streams
// that built them. On query it returns the index (and coefficient sign) of
// some nonzero coordinate of x, reports x = 0, or fails; failure has small
// constant probability per column and `columns` independent repetitions
// drive it down geometrically.
//
// Applied to edge-incidence vectors (sketch_connectivity.hpp), summing the
// per-vertex sketches of a supernode cancels internal edges — both endpoint
// coefficients are ±1 with opposite signs — leaving exactly the cut, which
// is what makes Borůvka-on-sketches work on dynamic streams.
//
// Storage is structure-of-arrays in *level-major* rows (docs/
// sketch_internals.md): bucket (column c, level l) of each field lives at
// l·columns + c, so one level's buckets across all columns are contiguous.
// With ≤ 8 columns a level row fits one zmm register, which is what the
// AVX-512 update_run kernel exploits. The sketch_io wire format predates
// the layout and stays column-major; the codec maps indices
// (SketchIoAccess), so encoded bytes are unchanged.
//
// Determinism: all hashing derives from the constructor seed via mix64, so
// two (seed, shape)-equal sketches are mergeable and every run reproduces.
// update_run has two bodies, picked at compile time: the AVX-512 kernel
// (built with AVX512F+DQ, ≤ 8 columns) and a loop of update() calls.
// Both apply the run in order with the exact arithmetic of update() —
// bit-identical buckets either way.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace deck {

/// Result of L0Sampler::sample().
struct L0Sample {
  enum class Status {
    kZero,   // the summarized vector is (certainly, up to 2^-64 slack) zero
    kFail,   // sampling failed this time; the vector may still be nonzero
    kFound,  // `index` is a nonzero coordinate with coefficient `sign`
  };
  Status status = Status::kZero;
  std::uint64_t index = 0;
  int sign = 0;  // ±1, only meaningful for kFound
};

/// One pre-oriented coordinate update for update_run(): x_index += delta.
/// The batch-apply layer (sketch_connectivity.cpp) translates per-source
/// VertexDelta runs into these once, then replays the run over every copy.
struct RawDelta {
  std::uint64_t index = 0;
  std::int64_t delta = 0;
};

/// The update_run body this build holds: "avx512" (the zmm kernel, used by
/// samplers with ≤ 8 columns) or "scalar" (the update() loop).
const char* simd_apply_kernel();

class L0Sampler {
 public:
  // One-sparse recovery bucket over the subsampled coordinates: signed
  // count, index-weighted sum, and a wrapping fingerprint Σ c_i·h(i) that
  // validates the (count, index_sum) decode. Public as a type so the
  // sketch_io codec can name it; the bucket storage itself stays private
  // (structure-of-arrays, see the header comment).
  struct Bucket {
    std::int64_t count = 0;
    std::int64_t index_sum = 0;
    std::uint64_t fingerprint = 0;
  };

  /// Sketches vectors over [0, universe). `columns` independent repetitions
  /// each hold ~log2(universe) one-sparse-recovery buckets.
  L0Sampler(std::uint64_t universe, std::uint64_t seed, int columns = 6);

  /// Subsampling levels a sampler over `universe` holds per column — the
  /// shape formula, exposed so decoders (sketch_io) can size-check a buffer
  /// before constructing anything.
  static int levels_for(std::uint64_t universe);

  /// x_index += delta. Coefficients must stay within int64 (ours are ±1).
  void update(std::uint64_t index, int delta);

  /// Batched update: applies the run in order, bit-identical to calling
  /// update(d.index, d.delta) per element. Where the AVX-512 kernel is
  /// compiled in, each delta hashes all columns in one register and adds
  /// one masked row per surviving level; otherwise it is that update()
  /// loop. Zero deltas are skipped like update() skips them.
  void update_run(std::span<const RawDelta> run);

  /// Bucket-wise sum: afterwards this sketches x + y. Requires compatible().
  void merge(const L0Sampler& other);

  /// Same universe, seed and column count (merge precondition).
  bool compatible(const L0Sampler& other) const;

  L0Sample sample() const;

  /// True iff every bucket is zero. A zero vector always reports true; a
  /// nonzero vector reports true only on a ~2^-64 fingerprint wipeout.
  bool empty() const;

  void clear();

  std::uint64_t universe() const { return universe_; }
  std::uint64_t seed() const { return seed_; }
  int columns() const { return columns_; }
  int levels() const { return levels_; }

 private:
  friend struct SketchIoAccess;  // sketch_io.cpp: raw bucket encode/decode

  std::uint64_t level_hash(int column, std::uint64_t index) const;
  std::uint64_t fingerprint_hash(int column, std::uint64_t index) const;
  /// Field-array slot of bucket (column, level) — level-major rows.
  std::size_t slot(int column, int level) const {
    return static_cast<std::size_t>(level) * static_cast<std::size_t>(columns_) +
           static_cast<std::size_t>(column);
  }

  std::uint64_t universe_ = 0;
  std::uint64_t seed_ = 0;
  int columns_ = 0;
  int levels_ = 0;
  std::vector<std::uint64_t> column_salt_;  // per-column level-hash salt
  std::vector<std::uint64_t> column_fp_;    // per-column fingerprint salt
  // Bucket fields, split structure-of-arrays; levels_ rows × columns_ each.
  std::vector<std::int64_t> count_;
  std::vector<std::int64_t> index_sum_;
  std::vector<std::uint64_t> fingerprint_;
};

}  // namespace deck
