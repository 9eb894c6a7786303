#pragma once

// The perfbench workloads. Each one generates its inputs from the seed
// (untimed), then runs measured passes over the same inputs: every call
// into a library layer is a timed Section, and every output is checked
// exactly between sections, outside the timed region.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from `seed`.
  virtual void prepare(std::uint64_t seed) = 0;
  /// One measured pass over the prepared inputs.
  virtual Pass run_pass(Ledger& ledger) = 0;
  /// Per-layer measurements made once per --trace 1 run, outside the
  /// passes, with obs on (the net probe). Default: none.
  virtual void probe(Ledger& ledger, Pass& out) { (void)ledger, (void)out; }
  /// One line: what the pass does and at which size.
  virtual std::string describe() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

const std::vector<std::string>& workload_names();

}  // namespace perfbench
