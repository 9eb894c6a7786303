// perfbench — the deck end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Runs measured passes of one workload for about --seconds. --trace 0
// reports the end-to-end metrics with obs off; --trace 1 spends half the
// time untraced and half with obs metrics and tracing on, and reports the
// per-layer metrics, the per-layer self-time table and the tracing
// overhead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed check makes the exit code 1.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"total_s", "s"},       {"setup_s", "s"},      {"peak_rss_mb", "MB"},
    {"rounds", "count"},    {"messages", "count"}, {"weight_ratio", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"serve.ingest_s", "s"},
    {"serve.flush_s", "s"},
    {"serve.gutter_self_s", "s"},
    {"serve.gutter.flushes", "count"},
    {"serve.clone_s", "s"},
    {"serve.query_s", "s"},
    {"serve.query_ms_p50", "ms"},
    {"serve.query_ms_p90", "ms"},
    {"serve.query_samples", "count"},
    {"serve.ingest_updates_per_s", "1/s"},
    {"sketch.apply_busy_s", "s"},
    {"sketch.apply_ns_per_update_copy", "ns"},
    {"sketch.bank_bytes", "bytes"},
    {"sketch.copies_used", "count"},
    {"recovery.query_s", "s"},
    {"recovery.rounds", "count"},
    {"recovery.samples", "count"},
    {"recovery.failures", "count"},
    {"recovery.merge_ratio", "ratio"},
    {"recovery.attempts", "count"},
    {"recovery.cert_edges", "count"},
    {"engine.builds", "count"},
    {"engine.executions", "count"},
    {"engine.busy_s", "s"},
    {"engine.rounds", "count"},
    {"engine.messages", "count"},
    {"engine.ns_per_message", "ns"},
    {"engine.ns_per_round", "ns"},
    {"solver_s", "s"},
    {"driver.self_s", "s"},
    {"tap.iterations", "count"},
    {"kecss.iterations", "count"},
    {"phase.2ecss.rounds", "count"},
    {"phase.2ecss.messages", "count"},
    {"phase.2ecss.wall_s", "s"},
    {"phase.mst.rounds", "count"},
    {"phase.mst.messages", "count"},
    {"phase.mst.wall_s", "s"},
    {"phase.decomp.rounds", "count"},
    {"phase.decomp.messages", "count"},
    {"phase.decomp.wall_s", "s"},
    {"phase.tap.setup.rounds", "count"},
    {"phase.tap.setup.messages", "count"},
    {"phase.tap.setup.wall_s", "s"},
    {"phase.tap.iteration.rounds", "count"},
    {"phase.tap.iteration.messages", "count"},
    {"phase.tap.iteration.wall_s", "s"},
    {"phase.kecss.rounds", "count"},
    {"phase.kecss.messages", "count"},
    {"phase.kecss.wall_s", "s"},
    {"verify_s", "s"},
    {"verify.rounds", "count"},
    {"net.total_s", "s"},
    {"net.slowdown", "ratio"},
    {"net.self_s", "s"},
    {"net.round_wire_bytes", "bytes"},
    {"net.delta_frame_share", "ratio"},
    {"net.barrier_wait_s", "s"},
    {"net.send_thread_wait_s", "s"},
    {"net.recv_thread_wait_s", "s"},
    {"net.tx_bytes", "bytes"},
    {"net.tx_frames", "count"},
    {"net.reassigns", "count"},
    {"self.graph_s", "s"},
    {"self.serve_s", "s"},
    {"self.sketch_s", "s"},
    {"self.congest_s", "s"},
    {"self.mst_s", "s"},
    {"self.decomp_s", "s"},
    {"self.tap_s", "s"},
    {"self.ecss_s", "s"},
    {"self.cycles_s", "s"},
    {"self.other_s", "s"},
    {"trace.overhead_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload <", why);
  for (std::size_t i = 0; i < workload_names().size(); ++i)
    std::fprintf(stderr, "%s%s", i ? "|" : "", workload_names()[i].c_str());
  std::fprintf(stderr, "> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(val);
    else if (key == "--trace") a.trace = std::atoi(val);
    else if (key == "--trace-out") a.trace_out = val;
    else usage(("unknown flag " + key).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) usage("bad --seconds or --trace");
  return a;
}

// Passes run until the time budget is spent, and at least this many.
constexpr int kMinPasses = 3;
// Hard stop for a single run, whatever the budget.
constexpr double kMaxRunSeconds = 120;

struct Phase {
  std::vector<Pass> passes;
  std::vector<deck::obs::TraceEvent> last_events;
};

Phase run_passes(Workload& w, Ledger& ledger, double budget, bool traced, double run_start) {
  deck::obs::set_enabled(traced);
  deck::obs::set_tracing(traced);
  Phase ph;
  const double start = now_s();
  while (static_cast<int>(ph.passes.size()) < kMinPasses || now_s() - start < budget) {
    if (traced) {
      deck::obs::Registry::global().reset();
      deck::obs::TraceSink::global().clear();
    }
    Pass p = w.run_pass(ledger);
    if (traced) {
      ph.last_events = deck::obs::TraceSink::global().drain();
      SelfTimes st = self_times(ph.last_events);
      // Gutter flushes apply inside serve spans; the obs histogram of their
      // durations moves that time to the sketch layer it belongs to.
      const double apply_s = p.values["sketch.apply_busy_s"];
      st.by_layer["serve"] -= apply_s;
      st.by_layer["sketch"] += apply_s;
      double covered = 0;
      for (const auto& layer : layers()) {
        if (layer == "other") continue;
        const double s = st.by_layer[layer];
        p.values["self." + layer + "_s"] = s;
        covered += s;
      }
      // Unnamed spans and timed wall time outside every span.
      p.values["self.other_s"] = p.total_s - covered;
      const auto q = st.by_span.find("serve.query");
      p.values["serve.clone_s"] = q == st.by_span.end() ? 0.0 : q->second;
      double recovery = 0;
      for (const auto& [name, s] : st.by_span)
        if (name.rfind("recovery.", 0) == 0) recovery += s;
      p.values["recovery.query_s"] = recovery;
    }
    std::printf("  %s pass %zu: total_s %.4f (thread cpu %.4f), setup_s %.5f\n",
                traced ? "traced" : "untraced", ph.passes.size() + 1, p.total_s, p.cpu_s, p.setup_s);
    ph.passes.push_back(std::move(p));
    if (now_s() - run_start > kMaxRunSeconds) break;
  }
  deck::obs::set_enabled(false);
  deck::obs::set_tracing(false);
  return ph;
}

double median_of(const std::vector<Pass>& ps, double Pass::*field) {
  std::vector<double> v;
  for (const Pass& p : ps) v.push_back(p.*field);
  return median(v);
}

double median_value(const std::vector<Pass>& ps, const std::string& key) {
  std::vector<double> v;
  for (const Pass& p : ps) {
    const auto it = p.values.find(key);
    v.push_back(it == p.values.end() ? 0.0 : it->second);
  }
  return median(v);
}

std::vector<double> all_queries(const std::vector<Pass>& ps) {
  std::vector<double> q;
  for (const Pass& p : ps) q.insert(q.end(), p.query_ms.begin(), p.query_ms.end());
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto workload = make_workload(args.workload);
  if (!workload) usage(("unknown workload " + args.workload).c_str());

  const double run_start = now_s();
  Ledger ledger;
  workload->prepare(args.seed);
  std::printf("workload %s (seed %llu): %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), workload->describe().c_str());

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const Phase plain = run_passes(*workload, ledger, budget, false, run_start);
  const double rss = peak_rss_mb();
  std::vector<std::pair<const MetricDef*, double>> out;

  const std::vector<double> queries = all_queries(plain.passes);
  if (args.trace == 0) {
    std::printf("%zu passes, obs off; medians over passes:\n", plain.passes.size());
    for (const MetricDef& m : kEndToEnd) {
      const std::string name = m.name;
      double v = 0;
      if (name == "total_s") v = median_of(plain.passes, &Pass::total_s);
      else if (name == "setup_s") v = median_of(plain.passes, &Pass::setup_s);
      else if (name == "peak_rss_mb") v = rss;
      else v = median_value(plain.passes, name);
      out.emplace_back(&m, v);
    }
    if (!queries.empty())
      std::printf("  queries: p50 %.3f ms, p90 %.3f ms over %zu samples; ingest %.0f updates/s\n",
                  percentile(queries, 50), percentile(queries, 90), queries.size(),
                  median_value(plain.passes, "serve.ingest_updates_per_s"));
  } else {
    const Phase traced = run_passes(*workload, ledger, budget, true, run_start);
    Pass probe;
    deck::obs::set_enabled(true);
    deck::obs::set_tracing(true);
    workload->probe(ledger, probe);
    deck::obs::set_enabled(false);
    deck::obs::set_tracing(false);
    const std::vector<deck::obs::TraceEvent> probe_events = deck::obs::TraceSink::global().drain();
    if (!probe_events.empty()) probe.values["net.self_s"] = self_times(probe_events).by_layer["net"];
    const double plain_total = median_of(plain.passes, &Pass::total_s);
    const double traced_total = median_of(traced.passes, &Pass::total_s);
    std::printf("%zu untraced + %zu traced passes; per-layer medians over traced passes:\n",
                plain.passes.size(), traced.passes.size());
    for (const MetricDef& m : kPerLayer) {
      const std::string name = m.name;
      double v = 0;
      if (name == "trace.overhead_s") v = traced_total - plain_total;
      // Latency percentiles come from the untraced passes.
      else if (name == "serve.query_ms_p50") v = percentile(queries, 50);
      else if (name == "serve.query_ms_p90") v = percentile(queries, 90);
      else if (name == "serve.query_samples") v = static_cast<double>(queries.size());
      // The net layer is measured by the workload's probe, if it has one.
      else if (name.rfind("net.", 0) == 0) v = probe.values[name];
      else v = median_value(traced.passes, name);
      out.emplace_back(&m, v);
    }
    // Self-time table of the last traced pass: rows sum to its total_s.
    const Pass& last = traced.passes.back();
    std::printf("self time by layer, last traced pass (total_s %.4f s):\n", last.total_s);
    for (const auto& layer : layers()) {
      const double s = last.values.at("self." + layer + "_s");
      std::printf("  %-8s %10.4f s  %5.1f%%\n", layer.c_str(), s,
                  last.total_s > 0 ? 100.0 * s / last.total_s : 0.0);
    }
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      std::vector<deck::obs::TraceEvent> events = traced.last_events;
      events.insert(events.end(), probe_events.begin(), probe_events.end());
      f << deck::obs::chrome_trace_json(events);
      std::printf("chrome trace of the last traced pass and the net probe: %s (%zu events)\n",
                  args.trace_out.c_str(), events.size());
    }
  }

  for (const auto& [m, v] : out) std::printf("  %-34s %16.6g %s\n", m->name, v, m->unit);
  const bool correct = ledger.failed == 0;
  std::printf("checks: %ld attempted, %ld failed\n", ledger.attempted, ledger.failed);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", out[i].second);
    json += (i ? ", \"" : "\"") + std::string(out[i].first->name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + out[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
