#pragma once

// Coordinator/worker protocol for multi-process sketch ingest — the
// distributed front-end the paper's pipeline assumes: N worker processes
// each ingest a disjoint slice of the update stream into a private ℓ₀ bank
// and stream it to the coordinator as framed sketch_io chunks; the
// coordinator merges chunks into the global bank as they arrive
// (BankAssembler — peak memory is one bank plus one chunk, not one bank per
// worker), peels the k forests (parallel recovery on the same shared
// ThreadPool that drains the network), and materializes the Thurimella
// certificate for the CONGEST algorithms.
//
//   worker 0..W-1                          coordinator
//   ─────────────                          ───────────
//   Hello{id, n, W}     ──────────────►    validate roster
//                       ◄──────────────    Attempt{SketchOptions}
//   ingest slice, then
//   Chunk{bytes}…, Done ──────────────►    BankAssembler::add_chunk per
//                                          arrival, overlapped across
//                                          workers on the shared pool
//                       (repeat per adaptive attempt)
//                       ◄──────────────    Shutdown
//
// The coordinator side runs inside a coordinated GraphSession
// (serve/session.hpp: IngestOptions::workers non-empty), whose queries drive
// the same recover_certificate() attempt loop as a local session: with
// auto-sizing enabled the coordinator broadcasts each attempt's grown sizing
// and workers re-ingest, so the distributed flow is bit-identical to a local
// session for fixed seeds — any worker count, any chunking.
//
// Protocol violations, transport faults, and corrupt chunks raise NetError
// / SketchIoError on the side that detects them; nothing is ever silently
// dropped.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/transport.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/stream.hpp"

namespace deck {

/// Protocol message types (u32 head of every framed message).
enum class IngestMsg : std::uint32_t {
  kHello = 1,     // worker → coordinator: worker_id u32, n u32, num_workers u32
  kAttempt = 2,   // coordinator → worker: SketchOptions (seed u64 + 8×u32)
  kChunk = 3,     // worker → coordinator: one sketch_io chunk, verbatim
  kDone = 4,      // worker → coordinator: chunks_sent u32 (attempt finished)
  kShutdown = 5,  // coordinator → worker: no body
};

struct IngestWorkerOptions {
  /// Chunking of the shipped bank (ChunkOptions passthrough; source_id is
  /// always the worker id).
  int vertices_per_chunk = 0;
  std::size_t target_chunk_bytes = 64 * 1024;
  /// Directed halves buffered per source vertex before the buffered run is
  /// batch-applied to the worker's bank (SketchConnectivity::apply_batch;
  /// any regrouping builds the same bank by linearity).
  std::size_t batch_halves = 1024;
};

/// Runs one ingest worker to completion: announces itself, then serves
/// Attempt requests — ingesting the strided slice updates[worker_id::
/// num_workers] of `stream` with the attempt's options and streaming the
/// bank back as chunks — until Shutdown. Throws NetError on transport
/// faults or protocol violations.
void run_ingest_worker(Transport& coordinator, const GraphStream& stream, std::uint32_t worker_id,
                       std::uint32_t num_workers, const IngestWorkerOptions& wopt = {});

struct IngestCoordinatorOptions {
  /// Size of the single shared ThreadPool that overlaps network receive
  /// with chunk assembly across workers and then runs parallel recovery.
  int threads = 1;
};

/// Coordinator-side building blocks of a coordinated GraphSession
/// (serve/session.hpp), which drives them once per query.
///
/// Validates every worker's Hello against the fleet (ids distinct and in
/// range, vertex counts agree) — call once per session, before the first
/// attempt is broadcast. Throws NetError on violations.
void validate_ingest_roster(const std::vector<Transport*>& workers, int n);

/// One ingest attempt over the fleet: broadcasts `aopt`, assembles the
/// workers' chunk streams into the global bank on `pool` (receive waits
/// overlap chunk merges across workers). Throws NetError / SketchIoError.
SketchConnectivity coordinated_ingest_attempt(const std::vector<Transport*>& workers, int n,
                                              const SketchOptions& aopt, ThreadPool& pool);

/// Sends every worker Shutdown. best_effort swallows per-worker transport
/// faults (the error-path variant — some workers may already be gone);
/// otherwise the first fault propagates.
void shutdown_ingest_workers(const std::vector<Transport*>& workers, bool best_effort = false);

}  // namespace deck
