#pragma once

// Shared helpers for the experiment binaries (F1..F7, T1..T5, A1..A3, M1).
//
// Each bench prints deck::Table blocks plus a short interpretation line so
// EXPERIMENTS.md can quote the output verbatim. Sizes are chosen so the full
// suite completes in minutes on a laptop; pass --large for bigger sweeps.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "congest/distributed_engine.hpp"
#include "congest/engine.hpp"
#include "graph/generators.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace deck::bench {

inline bool flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

/// Value of `--name value`, or nullptr.
inline const char* arg_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

/// CONGEST execution backend selected on the bench command line:
/// `--engine {seq,net}` plus `--engine-units N` (net workers, 1..64;
/// default 2). The fleet member keeps the in-process net workers alive for
/// the duration of the run — every Network built from `hub` must be
/// destroyed before the EngineChoice is.
struct EngineChoice {
  std::string name = "seq";
  int units = 1;
  std::shared_ptr<EngineHub> hub = EngineHub::sequential();
  std::shared_ptr<CongestWorkerFleet> fleet;
};

inline EngineChoice engine_from_args(int argc, char** argv) {
  EngineChoice c;
  const char* kind = arg_value(argc, argv, "--engine");
  if (kind == nullptr || std::strcmp(kind, "seq") == 0) return c;
  if (std::strcmp(kind, "net") != 0) {
    std::fprintf(stderr, "unknown --engine '%s' (expected seq or net)\n", kind);
    std::exit(2);
  }
  c.name = "net";
  c.units = 2;
  if (const char* units = arg_value(argc, argv, "--engine-units"); units != nullptr) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(units, &end, 10);
    if (end == units || *end != '\0' || errno != 0 || v < 1 || v > 64) {
      std::fprintf(stderr, "bad --engine-units '%s' (expected an integer in 1..64)\n", units);
      std::exit(2);
    }
    c.units = static_cast<int>(v);
  }
  c.fleet = std::make_shared<CongestWorkerFleet>(c.units);
  c.hub = c.fleet->hub();
  return c;
}

/// Prints a machine-readable result document after the human tables. The
/// fixed markers let harnesses extract the JSON from mixed output.
inline void print_json(const Json& doc) {
  std::printf("--- json ---\n%s\n--- end json ---\n", doc.dump(2).c_str());
}

/// Named graph family for sweeps.
struct Family {
  std::string name;
  // Builds a k-edge-connected graph with ~n vertices.
  Graph (*make)(int n, int k, Rng& rng);
};

inline Graph make_random_kec(int n, int k, Rng& rng) { return random_kec(n, k, n, rng); }

inline Graph make_torus_like(int n, int k, Rng& rng) {
  (void)k;
  (void)rng;
  int rows = 4;
  while ((rows + 1) * (rows + 1) <= n) ++rows;
  const int cols = std::max(3, n / rows);
  return torus(rows, cols);
}

inline Graph make_circulant(int n, int k, Rng& rng) {
  (void)rng;
  return circulant(n, std::max(1, (k + 1) / 2) + 1);
}

inline Graph make_hypercube_like(int n, int k, Rng& rng) {
  (void)k;
  (void)rng;
  int d = 3;
  while ((1 << (d + 1)) <= n) ++d;
  return hypercube(d);
}

inline std::vector<Family> standard_families() {
  return {
      {"random", &make_random_kec},
      {"torus", &make_torus_like},
      {"circulant", &make_circulant},
      {"hypercube", &make_hypercube_like},
  };
}

}  // namespace deck::bench
