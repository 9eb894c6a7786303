#pragma once

// Transport-backed CONGEST execution: vertex ranges owned by worker
// processes, rounds barriered by the coordinator, inter-worker edge
// messages framed on the src/net/ wire protocol (PR 4's length-prefixed
// Transport plus the little-endian codec in net/wire.hpp).
//
//   worker 0..W-1                         coordinator (DistributedEngine)
//   ─────────────                         ──────────────────────────────
//   Hello{version}      ─────────────►    roster validation (hub ctor)
//                       ◄─────────────    LoadGraph{id, edges, own range}
//                       ◄─────────────    Start{graph, program id, trace
//                                           context, spec}
//   step owned ranges,
//   RoundDone{sent,     ─────────────►    barrier: sum sends; route
//     boundary msgs}                      boundary messages to owners
//                       ◄─────────────    Round{flags, deliveries}  (repeat)
//   Checkpoint{range}   ─────────────►    blob stored, delivery log truncated
//                       ◄─────────────    Collect            (quiescent)
//   Outputs{range}      ─────────────►    program absorbs per-range outputs
//                       ◄─────────────    DropGraph / Shutdown
//
// Every worker steps its owned contiguous vertex ranges, single-threaded,
// with the same BspRunner the seq engine uses, so schedules, mailbox
// ordering, and therefore program outputs and round/message counters are
// bit-identical to seq for any worker count. The coordinator counts a round
// whenever any worker sent (locally or across), exactly like seq counts
// non-silent rounds.
//
// Round path (protocol v5): one synchronous loop per worker — step the
// owned ranges, ship RoundDone, block for the coordinator's verdict.
// kRoundDone/kRound frames pack flags and a 16-bit round stamp into the
// head word and carry boundary messages in the congest/delta_codec format:
// varint slot gaps plus repeat markers against a per-link payload cache,
// with a per-frame fallback to the fixed packet format whenever the delta
// body would be larger. Checkpoint and Restore frames stay in the fixed
// packet format — failover replay must decode without any link cache (the
// adopting survivor never saw the dead link's frames). The codec is
// transparent to outputs and to the solver-visible rounds/messages
// counters, for every worker count and kill schedule.
//
// Versions do not interoperate (see kCongestProtoVersion): an older peer is
// rejected at Hello with a version-skew error.
//
// Fault tolerance (since protocol v3): the coordinator detects a dead worker at
// any receive — orderly close, transport fault, or silence past the
// RecvOptions deadline — and reassigns the dead worker's vertex ranges to a
// surviving worker (spares, i.e. workers holding no range, are preferred)
// with a Restore frame: the last Checkpoint blob for the range plus the
// logged boundary deliveries since. Range execution is a pure function of
// (graph, spec, per-round deliveries), so the survivor replays to exactly
// the state the dead worker held and the phase continues with bit-identical
// outputs and counters — for ANY kill point. With no checkpoint yet, replay
// starts from round 1; DistributedHubOptions::checkpoint_interval bounds
// the replay (and the coordinator's delivery-log memory) at the price of
// periodic Checkpoint traffic. Only when no worker survives does the fault
// surface as NetError, preserving the fail-typed contract.
//
// Faults a worker observes (malformed frames, protocol violations) raise
// NetError on the worker; nothing is silently dropped.

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "congest/engine.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"

namespace deck {

/// Protocol message types (low byte of the u32 head of every framed
/// message; kRoundDone/kRound pack flags and a round stamp into the upper
/// bytes, every other type leaves them zero).
enum class CongestMsg : std::uint32_t {
  kHello = 1,      // worker → coordinator: protocol version u32
  kLoadGraph = 2,  // coordinator → worker: graph id, n, m, edges, owned range
  kDropGraph = 3,  // coordinator → worker: graph id
  kStart = 4,      // coordinator → worker: graph id, program id, node id,
                   //   trace flags, trace id, parent span, spec bytes
  kRoundDone = 5,  // worker → coordinator: head packs flags (bit 0: delta
                   //   body) and round & 0xffff; then sends u64, boundary
                   //   message count u32, boundary messages
  kRound = 6,      // coordinator → worker: head packs flags (bit 0: delta
                   //   body, bit 1: checkpoint after applying) and
                   //   round & 0xffff; then delivery count u32, deliveries
  kCollect = 7,    // coordinator → worker: phase quiescent, ship outputs
  kOutputs = 8,    // worker → coordinator: lo, hi, encode_outputs bytes
  kShutdown = 9,   // coordinator → worker: no body
  kTraceData = 10, // worker → coordinator: encoded trace events for the
                   //   execution just collected (only when Start's trace
                   //   flags bit 0 was set)
  kHeartbeat = 11, // worker → coordinator: no body; keeps the coordinator's
                   //   recv deadline from declaring a slow worker dead
  kCheckpoint = 12,// worker → coordinator: lo, hi, checkpoint blob
                   //   (congest/checkpoint.hpp) for one owned range
  kRestore = 13,   // coordinator → worker: mode (0 resume mid-phase,
                   //   1 finish post-phase), graph id, program id, range,
                   //   optional checkpoint blob, logged deliveries, spec —
                   //   fully self-contained range adoption
};

/// v5 dropped Start's exec-flags and checkpoint-interval words. v4 packed
/// flags + a 16-bit round stamp into the kRoundDone/kRound head, added
/// delta round-frame bodies (congest/delta_codec) with their flag bit, and
/// appended those two words to Start. v3 added the fault-tolerance frames
/// (Heartbeat/Checkpoint/Restore), the flags word on Round, and the range
/// prefix on Outputs. v2 added the trace-context fields to Start and the
/// kTraceData reply.
inline constexpr std::uint32_t kCongestProtoVersion = 5;

/// Coordinator-side failover policy.
struct DistributedHubOptions {
  /// Deadline + retry budget for every coordinator receive. The default
  /// (timeout_ms = -1) blocks forever, so only an orderly close or a
  /// transport fault counts as death — the zero-overhead configuration.
  /// With a deadline, silence (a stalled or lossy worker) is death too;
  /// pair with WorkerOptions::heartbeat_ms so slow-but-alive workers keep
  /// resetting the deadline.
  RecvOptions recv{};

  /// Checkpoint every N rounds (0 = never). Recovery replays from the last
  /// checkpoint, so N bounds both replay work and the coordinator's
  /// delivery-log memory; without checkpoints recovery replays the whole
  /// phase from round 1 (always possible — the log is unconditional).
  int checkpoint_interval = 0;

  /// Leave the trailing N workers rangeless when partitioning a graph.
  /// Spares still join every barrier (zero-cost rounds) and are the
  /// preferred adoption target when a range-owning worker dies.
  int spares = 0;
};

/// Coordinator-side backend factory over connected worker transports. The
/// constructor validates each worker's Hello; engine_for() ships the graph
/// (assigning contiguous vertex ranges); shutdown() (or destruction) sends
/// Shutdown. Not thread-safe: one pipeline drives the fleet at a time, which
/// is exactly how the algorithms sequence their primitive executions.
class DistributedEngineHub final : public EngineHub {
 public:
  /// Validates the fleet roster. Throws NetError on a bad Hello.
  explicit DistributedEngineHub(std::vector<Transport*> workers,
                                DistributedHubOptions options = {});
  ~DistributedEngineHub() override;

  std::string name() const override { return "net"; }
  std::unique_ptr<Engine> engine_for(const Graph& g) override;

  /// Sends Shutdown to every live worker once; later engine use throws.
  void shutdown();

  int num_workers() const { return static_cast<int>(workers_.size()); }
  Transport& worker(int w) { return *workers_[static_cast<std::size_t>(w)]; }
  bool is_down() const { return down_; }
  const DistributedHubOptions& options() const { return options_; }

  /// Liveness roster. mark_dead() is called by engines when a worker's
  /// transport faults or times out; it closes the transport and the worker
  /// never rejoins. Death is hub-wide: every graph's engine sees it.
  bool alive(int w) const { return alive_[static_cast<std::size_t>(w)] != 0; }
  int num_alive() const;
  void mark_dead(int w);

 private:
  std::vector<Transport*> workers_;
  std::vector<char> alive_;
  DistributedHubOptions options_;
  std::uint32_t next_graph_id_ = 1;
  bool down_ = false;
};

/// Convenience factory mirroring EngineHub::sequential().
std::shared_ptr<DistributedEngineHub> make_distributed_hub(std::vector<Transport*> workers,
                                                           DistributedHubOptions options = {});

/// Worker-side behavior knobs.
struct WorkerOptions {
  /// > 0: send a Heartbeat frame every N ms from a background thread, so a
  /// coordinator running recv deadlines can tell slow from dead.
  int heartbeat_ms = 0;

  /// > 0: die upon receiving the Nth Round frame (counted across the whole
  /// worker lifetime) — a deterministic mid-phase kill point for failover
  /// tests and the fault-injection CI wall. Death is a transport close +
  /// NetError by default; with hard_kill the process raises SIGKILL, the
  /// real thing for multi-process harnesses.
  int kill_after_rounds = 0;
  bool hard_kill = false;
};

/// Runs one CONGEST worker to completion: announces itself, then serves
/// LoadGraph/Start/Restore/DropGraph until Shutdown (or orderly close).
/// Each Start executes the identified program over the worker's owned
/// vertex ranges, exchanging boundary messages through the coordinator
/// every round. Throws NetError on transport faults or protocol violations.
void run_congest_worker(Transport& coordinator);
void run_congest_worker(Transport& coordinator, const WorkerOptions& options);

/// In-process fleet configuration: hub policy, worker behavior, and
/// per-worker fault scripts applied to the coordinator's side of each link
/// (making worker w look dead/slow/lossy at an exact frame index).
struct FleetOptions {
  DistributedHubOptions hub{};
  WorkerOptions worker{};
  std::vector<FaultScript> coordinator_faults{};
};

/// In-process worker fleet for tests, benches, and the `--engine net` axis:
/// spawns `workers` threads running run_congest_worker over loopback
/// transports and exposes the connected hub. Destroy every Network using the
/// hub before the fleet; the fleet destructor shuts the hub down and joins.
class CongestWorkerFleet {
 public:
  explicit CongestWorkerFleet(int workers);
  CongestWorkerFleet(int workers, FleetOptions options);
  ~CongestWorkerFleet();

  CongestWorkerFleet(const CongestWorkerFleet&) = delete;
  CongestWorkerFleet& operator=(const CongestWorkerFleet&) = delete;

  const std::shared_ptr<DistributedEngineHub>& hub() const { return hub_; }

 private:
  std::vector<std::unique_ptr<Transport>> coordinator_side_;
  std::vector<std::thread> threads_;
  std::shared_ptr<DistributedEngineHub> hub_;
};

}  // namespace deck
