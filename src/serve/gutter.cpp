#include "serve/gutter.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace deck {

namespace {

struct GutterMetrics {
  obs::Counter& flushes = obs::Registry::global().counter("serve.gutter.flushes");
  obs::Counter& flushed_halves = obs::Registry::global().counter("serve.gutter.flushed_halves");
  obs::Histogram& flush_halves = obs::Registry::global().histogram("serve.gutter.flush_halves");
  obs::Histogram& flush_ns = obs::Registry::global().histogram("serve.gutter.flush_ns");

  static GutterMetrics& get() {
    static GutterMetrics m;
    return m;
  }
};

}  // namespace

GutteringSystem::GutteringSystem(int n, const GutterOptions& opt, Applier apply)
    : n_(n), opt_(opt), apply_(std::move(apply)) {
  DECK_CHECK(n >= 0);
  DECK_CHECK(apply_ != nullptr);
  DECK_CHECK_MSG(opt_.policy.max_halves >= 1, "a gutter must hold at least one half");
  DECK_CHECK(opt_.num_gutters >= 0);
  int gutters = opt_.num_gutters;
  if (gutters == 0) gutters = 4 * (opt_.pool != nullptr ? opt_.pool->size() : 1);
  gutters = std::clamp(gutters, 1, std::max(1, n_));
  gutters_.resize(static_cast<std::size_t>(gutters));
}

int GutteringSystem::gutter_of(VertexId src) const {
  DECK_ASSERT(src >= 0 && src < n_);
  // Contiguous vertex ranges: a gutter's flush touches one contiguous
  // slice of the bank.
  return static_cast<int>(static_cast<std::int64_t>(src) * num_gutters() / std::max(1, n_));
}

void GutteringSystem::buffer_half(VertexId src, VertexId dst, int delta) {
  Gutter& g = gutters_[static_cast<std::size_t>(gutter_of(src))];
  if (g.halves.empty()) g.oldest_tick = tick_;
  g.halves.push_back({src, {dst, delta}});
  ++pending_;
  ++stats_.halves_buffered;
}

void GutteringSystem::push(VertexId u, VertexId v, int delta) {
  DECK_CHECK_MSG(u >= 0 && u < n_ && v >= 0 && v < n_, "gutter push endpoint out of range");
  DECK_CHECK_MSG(u != v, "gutter updates must not be self-loops");
  ++tick_;
  buffer_half(u, v, delta);
  buffer_half(v, u, delta);
  // Size trigger on the two gutters just written.
  for (const VertexId src : {u, v}) {
    const int g = gutter_of(src);
    if (gutters_[static_cast<std::size_t>(g)].halves.size() >= opt_.policy.max_halves) {
      ++stats_.size_flushes;
      flush(g);
    }
  }
  // Round-robin age sweep: one gutter per push, so a full rotation costs
  // num_gutters pushes — an idle gutter is detected at most that late.
  if (opt_.policy.max_age > 0) {
    const int g = age_scan_;
    age_scan_ = (age_scan_ + 1) % num_gutters();
    Gutter& gut = gutters_[static_cast<std::size_t>(g)];
    if (!gut.halves.empty() && tick_ - gut.oldest_tick >= opt_.policy.max_age) {
      ++stats_.age_flushes;
      flush(g);
    }
  }
}

std::vector<GutteringSystem::Half> GutteringSystem::extract(int g) {
  Gutter& gut = gutters_[static_cast<std::size_t>(g)];
  std::vector<Half> halves = std::move(gut.halves);
  gut.halves.clear();
  pending_ -= halves.size();
  if (!halves.empty()) {
    ++stats_.flushes;
    stats_.flushed_halves += halves.size();
  }
  return halves;
}

void GutteringSystem::apply_sorted(std::vector<Half> halves) const {
  if (halves.empty()) return;
  const std::uint64_t start = obs::enabled() ? obs::now_ns() : 0;
  // Sorted batch: group the buffered halves into per-source runs (stable,
  // so each source keeps push order) and walk each source's sketch array
  // once while it is hot.
  std::stable_sort(halves.begin(), halves.end(),
                   [](const Half& a, const Half& b) { return a.src < b.src; });
  std::vector<VertexDelta> run;
  run.reserve(halves.size());
  std::size_t i = 0;
  while (i < halves.size()) {
    const VertexId src = halves[i].src;
    run.clear();
    for (; i < halves.size() && halves[i].src == src; ++i) run.push_back(halves[i].delta);
    apply_(src, std::span<const VertexDelta>(run.data(), run.size()));
  }
  if (obs::enabled()) {
    GutterMetrics& m = GutterMetrics::get();
    m.flushes.inc();
    m.flushed_halves.add(halves.size());
    m.flush_halves.observe(halves.size());
    m.flush_ns.observe(obs::now_ns() - start);
  }
}

void GutteringSystem::flush(int g) { apply_sorted(extract(g)); }

void GutteringSystem::drain() {
  // Extract on the calling thread (bookkeeping is not synchronized), then
  // fan the applies out: gutters own disjoint source ranges, so their
  // flushes write disjoint slices of the bank — safe with no locking.
  std::vector<std::vector<Half>> dirty;
  for (int g = 0; g < num_gutters(); ++g) {
    std::vector<Half> halves = extract(g);
    if (!halves.empty()) dirty.push_back(std::move(halves));
  }
  stats_.drain_flushes += dirty.size();
  if (opt_.pool != nullptr && dirty.size() > 1) {
    ThreadPool& pool = *opt_.pool;
    for (std::vector<Half>& halves : dirty) {
      std::vector<Half>* h = &halves;
      pool.submit([this, h] { apply_sorted(std::move(*h)); });
    }
    pool.wait();
    return;
  }
  for (std::vector<Half>& halves : dirty) apply_sorted(std::move(halves));
}

}  // namespace deck
