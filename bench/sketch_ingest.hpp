#pragma once

// Bank building for the sketch benches (f8, f9, f10, f15): a GraphSession's
// ingest path — a GutteringSystem flushing per-source runs into
// SketchConnectivity::apply_batch, drained at the end (in parallel when the
// options lend a pool) — without the recovery a session query adds.

#include <span>

#include "serve/gutter.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"

namespace deck::bench {

/// Pushes every update of `stream` through gutters laid out by `gopt` into
/// `bank`, then drains them. Bit-identical to per-update ingestion for any
/// options (sketch linearity).
inline void gutter_ingest(SketchConnectivity& bank, const GraphStream& stream,
                          const GutterOptions& gopt = {}) {
  GutteringSystem gutters(stream.num_vertices(), gopt,
                          [&bank](VertexId src, std::span<const VertexDelta> deltas) {
                            bank.apply_batch(src, deltas);
                          });
  for (const StreamUpdate& u : stream.updates()) gutters.push(u.u, u.v, u.insert ? 1 : -1);
  gutters.drain();
}

}  // namespace deck::bench
