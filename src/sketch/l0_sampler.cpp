#include "sketch/l0_sampler.hpp"

#include <bit>

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

#include "support/check.hpp"
#include "support/rng.hpp"

#if defined(__AVX512F__) && defined(__GNUC__) && !defined(__clang__)
// GCC 12's AVX-512 shift intrinsics expand through an
// _mm512_undefined_epi32() passthrough whose lanes are fully overwritten,
// tripping -Wmaybe-uninitialized under -Werror (GCC PR 105593, fixed in
// GCC 13). TU-local suppression; the kernel never reads undefined lanes.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace deck {

#if defined(__AVX512F__) && defined(__AVX512DQ__)
namespace {

/// 8 lanes of mix64 — AVX512DQ has a native wrapping 64×64→64 multiply, so
/// every lane is bit-identical to the scalar function by construction.
inline __m512i mix64x8(__m512i x) {
  const __m512i c1 = _mm512_set1_epi64(static_cast<std::int64_t>(0xbf58476d1ce4e5b9ULL));
  const __m512i c2 = _mm512_set1_epi64(static_cast<std::int64_t>(0x94d049bb133111ebULL));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)), c1);
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)), c2);
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

}  // namespace
#endif  // __AVX512F__ && __AVX512DQ__

const char* simd_apply_kernel() {
  // Answered by this TU, the one the CMake DECK_SIMD knob compiles with
  // -march=native, so it reflects the flags the kernel was built with.
#if defined(__AVX512F__) && defined(__AVX512DQ__)
  return "avx512";
#else
  return "scalar";
#endif
}

int L0Sampler::levels_for(std::uint64_t universe) {
  // Level ℓ subsamples coordinates with probability 2^-ℓ; levels up to
  // log2(universe) guarantee some level holds ~1 surviving coordinate
  // whatever the support size. +2 slack absorbs variance at the extremes.
  return std::bit_width(universe) + 2;
}

L0Sampler::L0Sampler(std::uint64_t universe, std::uint64_t seed, int columns)
    : universe_(universe), seed_(seed), columns_(columns) {
  DECK_CHECK(universe >= 1);
  DECK_CHECK(columns >= 1);
  levels_ = levels_for(universe);
  column_salt_.reserve(static_cast<std::size_t>(columns_));
  column_fp_.reserve(static_cast<std::size_t>(columns_));
  std::uint64_t state = seed_;
  for (int c = 0; c < columns_; ++c) {
    column_salt_.push_back(splitmix64(state));
    column_fp_.push_back(splitmix64(state));
  }
  const auto buckets = static_cast<std::size_t>(columns_ * levels_);
  count_.assign(buckets, 0);
  index_sum_.assign(buckets, 0);
  fingerprint_.assign(buckets, 0);
}

std::uint64_t L0Sampler::level_hash(int column, std::uint64_t index) const {
  return mix64(column_salt_[static_cast<std::size_t>(column)] ^ index);
}

std::uint64_t L0Sampler::fingerprint_hash(int column, std::uint64_t index) const {
  return mix64(column_fp_[static_cast<std::size_t>(column)] + index);
}

void L0Sampler::update(std::uint64_t index, int delta) {
  DECK_ASSERT(index < universe_);
  if (delta == 0) return;
  for (int c = 0; c < columns_; ++c) {
    // Coordinate `index` lives in levels 0..z where z counts the trailing
    // zero bits of its level hash — a geometric subsampling cascade.
    const int z = std::countr_zero(level_hash(c, index));
    const int top = z < levels_ - 1 ? z : levels_ - 1;
    const std::uint64_t fp = fingerprint_hash(c, index);
    for (int l = 0; l <= top; ++l) {
      const std::size_t i = slot(c, l);
      count_[i] += delta;
      index_sum_[i] += delta * static_cast<std::int64_t>(index);
      fingerprint_[i] += static_cast<std::uint64_t>(static_cast<std::int64_t>(delta)) * fp;
    }
  }
}

void L0Sampler::update_run(std::span<const RawDelta> run) {
#if defined(__AVX512F__) && defined(__AVX512DQ__)
  // Whole-sketch-in-one-register kernel: with <= 8 columns a level row is a
  // single k-masked zmm op, so each delta is two mix64x8 hash vectors and
  // one masked load/add/store triple per surviving level. A column
  // participates at level l iff its salt hash has >= l trailing zero bits —
  // (hash & (2^l - 1)) == 0, one vptestnmq per row — and participation is
  // monotone in l, so the row loop stops at the first all-zero mask (the
  // per-column top[] clamp of update() is implied: l never reaches
  // levels_). Masked lanes are never loaded or stored, so nothing past the
  // row's real buckets is touched. Same wrapping adds, same bank bytes.
  if (columns_ <= 8) {
    const auto cols = static_cast<std::size_t>(columns_);
    const auto colm = static_cast<__mmask8>((1u << cols) - 1);
    const __m512i vsalt = _mm512_mask_loadu_epi64(_mm512_setzero_si512(), colm, column_salt_.data());
    const __m512i vfp = _mm512_mask_loadu_epi64(_mm512_setzero_si512(), colm, column_fp_.data());
    for (const RawDelta& d : run) {
      DECK_ASSERT(d.index < universe_);
      if (d.delta == 0) continue;
      const std::int64_t delta = d.delta;
      const std::int64_t dxi = delta * static_cast<std::int64_t>(d.index);
      const __m512i vidx = _mm512_set1_epi64(static_cast<std::int64_t>(d.index));
      const __m512i vdelta = _mm512_set1_epi64(delta);
      const __m512i vdxi = _mm512_set1_epi64(dxi);
      const __m512i hs = mix64x8(_mm512_xor_si512(vsalt, vidx));
      const __m512i vfpc = _mm512_mullo_epi64(vdelta, mix64x8(_mm512_add_epi64(vfp, vidx)));
      for (int l = 0; l < levels_; ++l) {
        const __m512i lmask = _mm512_set1_epi64(static_cast<std::int64_t>((1ull << l) - 1));
        const __mmask8 m = _mm512_mask_testn_epi64_mask(colm, hs, lmask);
        if (m == 0) break;
        const std::size_t row = static_cast<std::size_t>(l) * cols;
        __m512i v = _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, count_.data() + row);
        _mm512_mask_storeu_epi64(count_.data() + row, m, _mm512_add_epi64(v, vdelta));
        v = _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, index_sum_.data() + row);
        _mm512_mask_storeu_epi64(index_sum_.data() + row, m, _mm512_add_epi64(v, vdxi));
        v = _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, fingerprint_.data() + row);
        _mm512_mask_storeu_epi64(fingerprint_.data() + row, m, _mm512_add_epi64(v, vfpc));
      }
    }
    return;
  }
#endif
  for (const RawDelta& d : run) update(d.index, static_cast<int>(d.delta));
}

bool L0Sampler::compatible(const L0Sampler& other) const {
  return universe_ == other.universe_ && seed_ == other.seed_ && columns_ == other.columns_;
}

void L0Sampler::merge(const L0Sampler& other) {
  DECK_CHECK_MSG(compatible(other), "merging incompatible ℓ₀ sketches");
  // Per-field loops over the flat arrays — trivially autovectorized, and
  // the hot inner step of supernode aggregation during recovery.
  for (std::size_t i = 0; i < count_.size(); ++i) count_[i] += other.count_[i];
  for (std::size_t i = 0; i < index_sum_.size(); ++i) index_sum_[i] += other.index_sum_[i];
  for (std::size_t i = 0; i < fingerprint_.size(); ++i) fingerprint_[i] += other.fingerprint_[i];
}

L0Sample L0Sampler::sample() const {
  for (int c = 0; c < columns_; ++c) {
    // Scan sparse (high) levels first: the first level whose expected
    // surviving support is ~1 is the likeliest to be exactly one-sparse.
    for (int l = levels_ - 1; l >= 0; --l) {
      const std::size_t i = slot(c, l);
      const std::int64_t count = count_[i];
      if (count != 1 && count != -1) continue;
      const std::int64_t idx = index_sum_[i] / count;
      if (idx < 0 || static_cast<std::uint64_t>(idx) >= universe_) continue;
      const std::uint64_t expect = static_cast<std::uint64_t>(count) *
                                   fingerprint_hash(c, static_cast<std::uint64_t>(idx));
      if (expect != fingerprint_[i]) continue;
      return {L0Sample::Status::kFound, static_cast<std::uint64_t>(idx), count > 0 ? 1 : -1};
    }
  }
  return {empty() ? L0Sample::Status::kZero : L0Sample::Status::kFail, 0, 0};
}

bool L0Sampler::empty() const {
  for (std::size_t i = 0; i < count_.size(); ++i)
    if (count_[i] != 0 || index_sum_[i] != 0 || fingerprint_[i] != 0) return false;
  return true;
}

void L0Sampler::clear() {
  count_.assign(count_.size(), 0);
  index_sum_.assign(index_sum_.size(), 0);
  fingerprint_.assign(fingerprint_.size(), 0);
}

}  // namespace deck
