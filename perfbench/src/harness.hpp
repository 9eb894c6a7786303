#pragma once

// Bench-side measurement plumbing for perfbench: timed sections with an
// optional trace span each, the engine timing decorator, the correctness
// ledger, and the per-pass record the workloads fill in. Everything here
// observes the library from outside, at the calls into its public API.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "congest/engine.hpp"
#include "obs/trace.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

/// CPU time of the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One measured pass of a workload: timed totals, per-request latencies, and
/// every other metric by name (end-to-end and per-layer alike).
struct Pass {
  double total_s = 0;  // sum of every timed section
  double setup_s = 0;  // the share of total_s spent in setup sections
  double cpu_s = 0;    // benchmark-thread CPU time inside the sections
  std::vector<double> query_ms;
  std::map<std::string, double> values;
};

/// A timed region around one call into a library layer: adds its wall time
/// to the pass total (and to `also`, when given) and, in traced passes, is a
/// trace span named `span` that the library's own spans nest under.
class Section {
 public:
  Section(Pass& pass, const char* span, double* also = nullptr)
      : pass_(pass), also_(also), start_(now_s()), cpu_start_(thread_cpu_s()) {
    span_.emplace(span);
  }
  ~Section() {
    span_.reset();  // the span ends inside the timed interval
    const double dt = now_s() - start_;
    pass_.total_s += dt;
    pass_.cpu_s += thread_cpu_s() - cpu_start_;
    if (also_ != nullptr) *also_ += dt;
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

 private:
  Pass& pass_;
  double* also_;
  double start_;
  double cpu_start_;
  std::optional<deck::obs::Span> span_;
};

/// Counts every check the benchmark makes; a failed one is reported on
/// stderr and fails the whole run.
struct Ledger {
  long attempted = 0;
  long failed = 0;
  void check(bool ok, const std::string& what);
};

/// What the timing decorator saw: engine creations and executions, their
/// wall time, and the summed ExecStats of every execution.
struct EngineTally {
  std::uint64_t builds = 0;
  std::uint64_t executions = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  double build_s = 0;
  double busy_s = 0;
};

/// EngineHub decorator: wraps every engine the inner hub creates so that
/// each engine_for() and execute() call is timed and counted from outside.
/// Algorithms hand the hub to their sub-Networks, so one decorator sees all
/// engine work of a pipeline. The tally is shared with the engines it made.
class TimingHub final : public deck::EngineHub {
 public:
  explicit TimingHub(std::shared_ptr<deck::EngineHub> inner);
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<deck::Engine> engine_for(const deck::Graph& g) override;
  const EngineTally& tally() const { return *tally_; }

 private:
  std::shared_ptr<deck::EngineHub> inner_;
  std::shared_ptr<EngineTally> tally_ = std::make_shared<EngineTally>();
};

/// Per-layer self time of one traced pass: each instant on the benchmark
/// thread is charged to the innermost span open at that instant, and the
/// span is charged to a layer (a repo module) by its name. Spans recorded
/// by net worker lanes (pid != 0) run beside the coordinator and are left
/// out, so the layers partition the coordinator's timed wall time.
struct SelfTimes {
  std::map<std::string, double> by_span;   // span name -> self seconds
  std::map<std::string, double> by_layer;  // layer -> self seconds
};
SelfTimes self_times(const std::vector<deck::obs::TraceEvent>& events);

/// The repo module a span belongs to ("graph", "serve", "sketch", "congest",
/// "net", "mst", "decomp", "tap", "ecss", "cycles"), or "other".
std::string layer_of(const std::string& span);

/// The layers in table order.
const std::vector<std::string>& layers();

double median(std::vector<double> v);

/// Nearest-rank percentile of `v` (p in [0, 100]).
double percentile(std::vector<double> v, double p);

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
