#pragma once

// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, designed so the shared ThreadPool and the net engine's worker
// threads can hit the hot hooks from every thread without contention.
//
// Write path: each metric keeps kStripes cache-line-sized cells; a thread
// is assigned a stripe once (round-robin on first use) and all its updates
// are relaxed fetch_adds on that cell — per-thread accumulation that is
// lock-free and, with at most kStripes concurrently hot threads, entirely
// uncontended (more threads than stripes share cells, which stays correct
// and TSan-clean, just occasionally contended). Reads merge on scrape: a
// value is the relaxed sum over stripes, so a scrape concurrent with
// writers sees some consistent recent total, never a torn one.
//
// Every hook is gated on obs::enabled() — one relaxed load and branch when
// metrics are off (bench_f12_obs_overhead holds this within noise of a
// hook-free loop).
//
// Handles returned by Registry are interned and live for the process:
// Registry::reset() zeroes values but never invalidates a reference, so
// call sites cache `static Counter& c = Registry::global().counter(...)`.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace deck {
class Json;
}

namespace deck::obs {

inline constexpr int kStripes = 16;

namespace detail {
/// Stripe index of the calling thread, assigned round-robin on first use.
int this_thread_stripe();

struct alignas(64) Cell {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotonic counter. add() is a relaxed fetch_add on the caller's stripe.
class Counter {
 public:
  void add(std::uint64_t delta) {
    if (!enabled()) return;
    cells_[static_cast<std::size_t>(detail::this_thread_stripe())].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Merged value (relaxed sum over stripes).
  std::uint64_t value() const;

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  std::string name_;
  std::array<detail::Cell, kStripes> cells_;
};

/// Last-write-wins signed gauge (attempt sizings, fleet sizes).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  std::string name_;
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// with an implicit overflow bucket above the last one. Each stripe holds a
/// private (buckets + sum + count) block, merged on scrape like counters.
class Histogram {
 public:
  void observe(std::uint64_t v);

  struct Snap {
    std::vector<std::uint64_t> bounds;  ///< inclusive upper bounds
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  Snap snapshot() const;

  const std::string& name() const { return name_; }
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<std::uint64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  std::string name_;
  std::vector<std::uint64_t> bounds_;
  std::size_t stride_ = 0;  // buckets + overflow + sum + count, per stripe
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
};

/// Exponential bucket bounds: first, first*factor, ... (`count` bounds).
std::vector<std::uint64_t> exponential_bounds(std::uint64_t first, double factor, int count);

/// Default latency bounds: 1µs .. ~17s in ×2 steps (25 buckets + overflow).
const std::vector<std::uint64_t>& latency_bounds_ns();

/// One merged, point-in-time view of every registered metric.
struct Snapshot {
  struct CounterVal {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeVal {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistVal {
    std::string name;
    Histogram::Snap snap;
  };
  std::vector<CounterVal> counters;
  std::vector<GaugeVal> gauges;
  std::vector<HistVal> histograms;

  /// Counter value by name (0 when absent) — test / bench convenience.
  std::uint64_t counter(std::string_view name) const;
  /// Gauge value by name (0 when absent).
  std::int64_t gauge(std::string_view name) const;
  /// Histogram by name (nullptr when absent).
  const Histogram::Snap* histogram(std::string_view name) const;

  /// `name value` exposition lines (histograms: name_count / name_sum /
  /// name_le_<bound> cumulative buckets), deterministic registration order.
  std::string text() const;
  Json to_json() const;
};

/// Process-wide metric registry. Registration takes a mutex (rare); the
/// returned handles write lock-free. Names are unique across metric kinds.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Registers (or returns) a histogram; `bounds` empty means
  /// latency_bounds_ns(). Re-registration ignores `bounds` (first wins).
  Histogram& histogram(std::string_view name, std::vector<std::uint64_t> bounds = {});

  Snapshot scrape() const;

  /// Zeroes every registered value; handles stay valid (tests and
  /// between-run resets — never required for correctness).
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace deck::obs
