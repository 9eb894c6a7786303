#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <tuple>
#include <utility>

namespace perfbench {

void Ledger::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

namespace {

class TimingEngine final : public deck::Engine {
 public:
  TimingEngine(std::unique_ptr<deck::Engine> inner, std::shared_ptr<EngineTally> tally)
      : inner_(std::move(inner)), tally_(std::move(tally)) {}

  std::string name() const override { return inner_->name(); }

  deck::ExecStats execute(deck::VertexProgram& prog) override {
    const double t0 = now_s();
    const deck::ExecStats st = inner_->execute(prog);
    tally_->busy_s += now_s() - t0;
    tally_->executions += 1;
    tally_->rounds += st.rounds;
    tally_->messages += st.messages;
    return st;
  }

 private:
  std::unique_ptr<deck::Engine> inner_;
  std::shared_ptr<EngineTally> tally_;
};

}  // namespace

TimingHub::TimingHub(std::shared_ptr<deck::EngineHub> inner) : inner_(std::move(inner)) {}

std::unique_ptr<deck::Engine> TimingHub::engine_for(const deck::Graph& g) {
  const double t0 = now_s();
  auto inner = inner_->engine_for(g);
  tally_->build_s += now_s() - t0;
  tally_->builds += 1;
  return std::make_unique<TimingEngine>(std::move(inner), tally_);
}

const std::vector<std::string>& layers() {
  static const std::vector<std::string> kLayers = {"graph", "serve", "sketch", "congest", "mst",
                                                   "decomp", "tap",  "ecss",   "cycles",  "other"};
  return kLayers;
}

std::string layer_of(const std::string& span) {
  // Bench sections are named bench.<layer>.<call>.
  if (span.rfind("bench.", 0) == 0) {
    const auto dot = span.find('.', 6);
    return span.substr(6, dot == std::string::npos ? std::string::npos : dot - 6);
  }
  const std::string head = span.substr(0, span.find('.'));
  if (head == "serve") return "serve";
  if (head == "recovery" || head == "sketch") return "sketch";
  if (head == "seq" || head == "round") return "congest";
  if (head == "net") return "net";
  // Network phases: algorithm drivers name them <module>.<step>.
  if (head == "mst" || head == "decomp" || head == "tap") return head;
  if (head == "2ecss" || head == "kecss") return "ecss";
  return "other";
}

SelfTimes self_times(const std::vector<deck::obs::TraceEvent>& events) {
  // The benchmark thread is the one that recorded the bench sections.
  std::uint32_t tid = 0;
  bool found = false;
  for (const auto& ev : events) {
    if (ev.pid == 0 && ev.name.rfind("bench.", 0) == 0) {
      tid = ev.tid;
      found = true;
      break;
    }
  }
  SelfTimes out;
  if (!found) return out;

  // Sweep the span boundaries in time order; between two boundaries the
  // innermost open span (latest start, then earliest end) owns the time.
  struct Edge {
    std::uint64_t t;
    bool open;
    std::size_t idx;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (ev.pid != 0 || ev.tid != tid || ev.dur_ns == 0) continue;
    edges.push_back({ev.ts_ns, true, i});
    edges.push_back({ev.ts_ns + ev.dur_ns, false, i});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t != b.t ? a.t < b.t : (a.open < b.open);  // closes first
  });
  // Active spans keyed so that *begin() is the innermost.
  using Key = std::tuple<std::uint64_t, std::uint64_t, std::size_t>;  // (~start, end, idx)
  std::set<Key> active;
  auto key_of = [&](std::size_t i) {
    const auto& ev = events[i];
    return Key{~ev.ts_ns, ev.ts_ns + ev.dur_ns, i};
  };
  std::uint64_t prev = 0;
  for (const Edge& e : edges) {
    if (!active.empty() && e.t > prev) {
      const auto& owner = events[std::get<2>(*active.begin())];
      out.by_span[owner.name] += static_cast<double>(e.t - prev) * 1e-9;
    }
    prev = e.t;
    if (e.open)
      active.insert(key_of(e.idx));
    else
      active.erase(key_of(e.idx));
  }
  for (const auto& [name, s] : out.by_span) out.by_layer[layer_of(name)] += s;
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  // VmHWM belongs to this program image; getrusage's maximum would also
  // carry the peak of the process that exec'd it (the Python launcher).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
