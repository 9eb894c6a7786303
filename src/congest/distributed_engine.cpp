#include "congest/distributed_engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "congest/checkpoint.hpp"
#include "congest/delta_codec.hpp"
#include "congest/programs.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace deck {

namespace {

using detail::BspRunner;

/// Coordinator-side model, barrier, and failover telemetry for the net
/// engine.
struct NetEngineMetrics {
  obs::Counter& rounds = obs::Registry::global().counter("congest.net.rounds");
  obs::Counter& messages = obs::Registry::global().counter("congest.net.messages");
  obs::Counter& boundary = obs::Registry::global().counter("congest.net.boundary_messages");
  obs::Counter& worker_deaths = obs::Registry::global().counter("congest.net.worker_deaths");
  obs::Counter& reassigns = obs::Registry::global().counter("congest.net.reassigns");
  // Round-frame format split and per-round wire volume, counted on the
  // coordinator only (in-process fleets share the registry — worker-side
  // increments would double every frame).
  obs::Counter& delta_frames = obs::Registry::global().counter("congest.net.delta_frames");
  obs::Counter& full_frames = obs::Registry::global().counter("congest.net.full_frames");
  obs::Histogram& round_wire_bytes =
      obs::Registry::global().histogram("congest.net.round_wire_bytes");
  // What the same round frames would have cost in the fixed packet format:
  // the delta codec's saving is round_fixed_bytes over round_wire_bytes.
  obs::Counter& round_fixed_bytes =
      obs::Registry::global().counter("congest.net.round_fixed_bytes");
  obs::Histogram& barrier_wait_ns =
      obs::Registry::global().histogram("congest.net.barrier_wait_ns");
  obs::Histogram& checkpoint_bytes =
      obs::Registry::global().histogram("congest.net.checkpoint_bytes");
  // Worker-side: how long the protocol loop blocks shipping a frame /
  // waiting for the next one.
  obs::Histogram& send_wait_ns =
      obs::Registry::global().histogram("congest.net.send_thread_wait_ns");
  obs::Histogram& recv_wait_ns =
      obs::Registry::global().histogram("congest.net.recv_thread_wait_ns");

  static NetEngineMetrics& get() {
    static NetEngineMetrics m;
    return m;
  }
};

/// Cap on per-round trace spans per execution (matches the seq engine).
constexpr int kNetMaxRoundSpans = 64;

void put_head(std::vector<std::uint8_t>& out, CongestMsg type) {
  net::put_u32(out, static_cast<std::uint32_t>(type));
}

/// v4 kRoundDone/kRound head word. Every other type ships a bare type u32
/// (upper bytes zero), so head_type() decodes both shapes.
std::uint32_t packed_head(CongestMsg type, std::uint32_t flags, int round) {
  return static_cast<std::uint32_t>(type) | (flags << 8) |
         ((static_cast<std::uint32_t>(round) & 0xffffu) << 16);
}

CongestMsg head_type(std::uint32_t head) { return static_cast<CongestMsg>(head & 0xffu); }

/// Per-link round-frame codec pair for one execution: tx encodes the
/// frames this end ships, rx decodes the frames it receives.
struct RoundCodecs {
  DeltaCodec tx, rx;

  void reset(EdgeId num_edges) {
    tx.reset(num_edges);
    rx.reset(num_edges);
  }
};

/// Size of a round frame whose `count` packets sit after `header_bytes` of
/// head words, had its body used the fixed packet format.
std::uint64_t fixed_frame_bytes(std::size_t header_bytes, std::uint32_t count) {
  return header_bytes + static_cast<std::uint64_t>(count) * kFixedPacketBytes;
}

/// Contiguous vertex partition: active worker w owns [lo(w), lo(w + 1)).
VertexId range_lo(int n, int workers, int w) {
  const int base = n / workers, rem = n % workers;
  return static_cast<VertexId>(w * base + std::min(w, rem));
}

}  // namespace

// ---------------------------------------------------------------------------
// Coordinator side.

DistributedEngineHub::DistributedEngineHub(std::vector<Transport*> workers,
                                           DistributedHubOptions options)
    : workers_(std::move(workers)), options_(options) {
  DECK_CHECK_MSG(!workers_.empty(), "distributed engine needs at least one worker");
  alive_.assign(workers_.size(), 1);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const std::vector<std::uint8_t> frame = net::recv_expected(*workers_[w], "Hello");
    net::WireReader r(frame);
    if (static_cast<CongestMsg>(r.u32()) != CongestMsg::kHello)
      throw NetError("congest: worker " + std::to_string(w) + " did not open with Hello");
    const std::uint32_t version = r.u32();
    if (version != kCongestProtoVersion)
      throw NetError("congest: worker " + std::to_string(w) + " speaks protocol version " +
                     std::to_string(version) + ", coordinator speaks " +
                     std::to_string(kCongestProtoVersion));
  }
}

DistributedEngineHub::~DistributedEngineHub() {
  try {
    shutdown();
  } catch (...) {
    // Destructor: a dead worker cannot be shut down any harder.
  }
}

int DistributedEngineHub::num_alive() const {
  int n = 0;
  for (char a : alive_) n += a != 0;
  return n;
}

void DistributedEngineHub::mark_dead(int w) {
  auto& flag = alive_[static_cast<std::size_t>(w)];
  if (flag == 0) return;
  flag = 0;
  if (obs::enabled()) NetEngineMetrics::get().worker_deaths.inc();
  try {
    workers_[static_cast<std::size_t>(w)]->close();
  } catch (...) {
    // Closing a faulted transport may itself fault; dead is dead.
  }
}

void DistributedEngineHub::shutdown() {
  if (down_) return;
  down_ = true;
  std::vector<std::uint8_t> frame;
  put_head(frame, CongestMsg::kShutdown);
  for (int w = 0; w < num_workers(); ++w) {
    if (!alive(w)) continue;
    try {
      workers_[static_cast<std::size_t>(w)]->send(frame);
    } catch (const NetError&) {
      mark_dead(w);
    }
  }
}

namespace {

class DistributedEngine final : public Engine {
 public:
  DistributedEngine(DistributedEngineHub& hub, const Graph& g, std::uint32_t graph_id)
      : hub_(&hub), g_(&g), graph_id_(graph_id) {
    const int n = g.num_vertices();
    std::vector<int> eligible;
    for (int w = 0; w < hub.num_workers(); ++w)
      if (hub.alive(w)) eligible.push_back(w);
    DECK_CHECK_MSG(!eligible.empty(), "distributed engine has no live workers");
    const int spares =
        std::clamp(hub.options().spares, 0, static_cast<int>(eligible.size()) - 1);
    const int active = static_cast<int>(eligible.size()) - spares;

    // The header + edge list is identical for every worker; only the
    // trailing owned-range pair differs, so encode the shared prefix once.
    // Every worker holds the full edge list, which is what makes mid-phase
    // reassignment graph-shipping-free.
    std::vector<std::uint8_t> frame;
    put_head(frame, CongestMsg::kLoadGraph);
    net::put_u32(frame, graph_id_);
    net::put_u32(frame, static_cast<std::uint32_t>(n));
    net::put_u32(frame, static_cast<std::uint32_t>(g.num_edges()));
    for (const Edge& e : g.edges()) {
      net::put_u32(frame, static_cast<std::uint32_t>(e.u));
      net::put_u32(frame, static_cast<std::uint32_t>(e.v));
      net::put_u64(frame, static_cast<std::uint64_t>(e.w));
    }
    const std::size_t shared_bytes = frame.size();
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      const VertexId lo = i < static_cast<std::size_t>(active)
                              ? range_lo(n, active, static_cast<int>(i))
                              : 0;
      const VertexId hi = i < static_cast<std::size_t>(active)
                              ? range_lo(n, active, static_cast<int>(i) + 1)
                              : 0;
      frame.resize(shared_bytes);
      net::put_u32(frame, static_cast<std::uint32_t>(lo));
      net::put_u32(frame, static_cast<std::uint32_t>(hi));
      const int w = eligible[i];
      try {
        hub_->worker(w).send(frame);
      } catch (const NetError&) {
        hub_->mark_dead(w);
        // The range stays in the table owned by the dead worker; the first
        // barrier of the first execute adopts it.
      }
      if (lo < hi) {
        RangeState rs;
        rs.lo = lo;
        rs.hi = hi;
        rs.owner = w;
        ranges_.push_back(std::move(rs));
      }
    }
  }

  ~DistributedEngine() override {
    if (hub_->is_down()) return;
    try {
      std::vector<std::uint8_t> frame;
      put_head(frame, CongestMsg::kDropGraph);
      net::put_u32(frame, graph_id_);
      for (int w = 0; w < hub_->num_workers(); ++w) {
        if (!hub_->alive(w)) continue;
        try {
          hub_->worker(w).send(frame);
        } catch (const NetError&) {
          hub_->mark_dead(w);
        }
      }
    } catch (...) {
      // Destructor: the worker that died already surfaced its NetError.
    }
  }

  std::string name() const override { return "net"; }

  ExecStats execute(VertexProgram& prog) override {
    DECK_CHECK_MSG(!hub_->is_down(), "distributed engine used after shutdown");
    const int workers = hub_->num_workers();
    // The coordinator-side program instance validates inputs and hosts the
    // collected outputs; all stepping happens on the workers.
    prog.setup(*g_);

    // The execute span's context rides in Start; workers parent their spans
    // under it and ship them back as kTraceData, merging every worker's
    // timeline under this one node in the coordinator's trace.
    obs::Span exec_span("net.execute");
    const bool trace_on = exec_span.live();
    const obs::TraceContext ctx =
        trace_on ? exec_span.context() : obs::TraceContext{};

    std::vector<std::uint8_t> spec;
    prog.encode_spec(spec);
    const std::uint32_t program_id = prog.program_id();

    // Per-phase recovery state starts clean: no checkpoint, empty logs.
    for (RangeState& rg : ranges_) {
      rg.cp_round = 0;
      rg.cp_blob.clear();
      rg.log.clear();
      rg.collected = false;
    }

    // Round-frame codecs are per execution and per link: both ends of a
    // link reset at Start, so the shared encoder model never straddles
    // executions. A worker death discards its pair; the survivor's tx
    // codec simply encodes the adopted link's unseen slots explicitly.
    const int cp_interval = hub_->options().checkpoint_interval;
    std::vector<RoundCodecs> codecs(static_cast<std::size_t>(workers));
    for (RoundCodecs& c : codecs) c.reset(g_->num_edges());

    std::vector<std::uint8_t> frame;
    std::vector<char> tracing_from(static_cast<std::size_t>(workers), 0);
    for (int w = 0; w < workers; ++w) {
      if (!hub_->alive(w)) continue;
      frame.clear();
      put_head(frame, CongestMsg::kStart);
      net::put_u32(frame, graph_id_);
      net::put_u32(frame, program_id);
      net::put_u32(frame, static_cast<std::uint32_t>(w) + 1);  // worker node id (0 = coordinator)
      net::put_u32(frame, trace_on ? 1 : 0);
      net::put_u64(frame, ctx.trace_id);
      net::put_u64(frame, ctx.span_id);
      net::put_bytes(frame, spec);
      try {
        hub_->worker(w).send(frame);
        tracing_from[static_cast<std::size_t>(w)] = trace_on ? 1 : 0;
      } catch (const NetError&) {
        hub_->mark_dead(w);
      }
    }

    ExecStats stats;
    std::uint64_t boundary_total = 0;
    for (int round = 1;; ++round) {
      std::uint64_t round_wire = 0;  // RoundDone bytes in + kRound bytes out
      std::uint64_t round_fixed = 0;  // the same frames in the fixed format
      std::optional<obs::Span> round_span;
      if (trace_on && round <= kNetMaxRoundSpans) {
        round_span.emplace("round");
        round_span->arg("round", static_cast<std::uint64_t>(round));
      }

      // Supplementary RoundDones owed this barrier: one per range restored
      // onto a survivor while the barrier is open (the dead owner's
      // round-`round` contribution was lost with it).
      std::vector<std::pair<int, std::size_t>> supp;
      // Adopt ranges orphaned between barriers (send failures, deaths after
      // their round was already counted, checkpoint-time deaths).
      for (std::size_t i = 0; i < ranges_.size(); ++i)
        if (!hub_->alive(ranges_[i].owner)) {
          send_restore(i, /*finish=*/false, program_id, spec);
          supp.emplace_back(ranges_[i].owner, i);
        }

      std::vector<char> orig(static_cast<std::size_t>(workers), 0);
      for (int w = 0; w < workers; ++w)
        orig[static_cast<std::size_t>(w)] = hub_->alive(w) ? 1 : 0;
      for (RangeState& rg : ranges_) {
        rg.cur_count = 0;
        rg.cur_wire.clear();
      }

      // Barrier: collect every live worker's round result (plus one
      // supplementary per range restored mid-barrier), then route boundary
      // messages to the owner of each receiving endpoint.
      std::uint64_t total = 0;
      const std::uint64_t barrier_start = obs::enabled() ? obs::now_ns() : 0;
      for (;;) {
        int w = -1;
        for (int i = 0; i < workers; ++i)
          if (orig[static_cast<std::size_t>(i)]) {
            w = i;
            break;
          }
        if (w < 0 && !supp.empty()) w = supp.front().first;
        if (w < 0) break;
        try {
          const std::vector<std::uint8_t> done = recv_protocol(w, "RoundDone");
          net::WireReader r(done);
          const std::uint32_t head = r.u32();
          if (head_type(head) != CongestMsg::kRoundDone)
            throw NetError("congest: expected RoundDone from worker " + std::to_string(w));
          const std::uint32_t flags = (head >> 8) & 0xffu;
          if (head >> 16 != (static_cast<std::uint32_t>(round) & 0xffffu))
            throw NetError("congest: stale RoundDone — worker " + std::to_string(w) +
                           " stamped round " + std::to_string(head >> 16) +
                           " at barrier round " + std::to_string(round));
          const bool body_delta = (flags & 1u) != 0;
          total += r.u64();
          const std::uint32_t boundary = r.u32();
          boundary_total += boundary;
          round_wire += done.size();
          round_fixed += fixed_frame_bytes(done.size() - r.remaining(), boundary);
          if (obs::enabled())
            (body_delta ? NetEngineMetrics::get().delta_frames
                        : NetEngineMetrics::get().full_frames)
                .inc();
          for (const WirePacket& p :
               codecs[static_cast<std::size_t>(w)].rx.decode(r, boundary, body_delta)) {
            if (p.edge < 0 || p.edge >= g_->num_edges())
              throw NetError("congest: boundary message on a bogus edge id");
            const Edge& e = g_->edge(p.edge);
            const VertexId to = p.dir == 0 ? e.v : e.u;
            RangeState& dst = ranges_[range_of(to)];
            dst.cur_wire.push_back(p);
            ++dst.cur_count;
          }
          if (orig[static_cast<std::size_t>(w)]) {
            orig[static_cast<std::size_t>(w)] = 0;
          } else {
            const auto it = std::find_if(supp.begin(), supp.end(),
                                         [w](const auto& s) { return s.first == w; });
            if (it == supp.end())
              throw NetError("congest: unsolicited RoundDone from worker " + std::to_string(w));
            supp.erase(it);
          }
        } catch (const NetError&) {
          // Worker w is dead: orderly close, transport fault, or silence
          // past the recv deadline. Recover onto survivors or rethrow.
          hub_->mark_dead(w);
          if (hub_->num_alive() == 0) throw;
          const bool orig_lost = orig[static_cast<std::size_t>(w)] != 0;
          orig[static_cast<std::size_t>(w)] = 0;
          // Ranges w adopted during this barrier still owe their
          // round-`round` contribution: move range and debt to a survivor.
          for (auto& s : supp)
            if (s.first == w) {
              send_restore(s.second, /*finish=*/false, program_id, spec);
              s.first = ranges_[s.second].owner;
            }
          if (orig_lost) {
            // w's own units' round-`round` contribution died with it:
            // restore every remaining w-owned range now.
            for (std::size_t i = 0; i < ranges_.size(); ++i)
              if (ranges_[i].owner == w) {
                send_restore(i, /*finish=*/false, program_id, spec);
                supp.emplace_back(ranges_[i].owner, i);
              }
          }
          // else: w reported before dying, so its ranges' contributions are
          // already counted; the next barrier (or collect) adopts them with
          // this round's deliveries in the log.
        }
      }
      if (obs::enabled())
        NetEngineMetrics::get().barrier_wait_ns.observe(obs::now_ns() - barrier_start);
      if (round_span) round_span->arg("messages", total);

      if (total == 0) break;
      stats.rounds += 1;
      stats.messages += total;
      const bool want_cp = cp_interval > 0 && round % cp_interval == 0;
      std::vector<WirePacket> wire_pkts;
      std::vector<std::uint8_t> body;
      for (int w = 0; w < workers; ++w) {
        if (!hub_->alive(w)) continue;
        wire_pkts.clear();
        for (const RangeState& rg : ranges_)
          if (rg.owner == w)
            wire_pkts.insert(wire_pkts.end(), rg.cur_wire.begin(), rg.cur_wire.end());
        std::uint32_t flags = want_cp ? 2u : 0u;
        body.clear();
        if (codecs[static_cast<std::size_t>(w)].tx.encode(body, wire_pkts)) flags |= 1u;
        frame.clear();
        net::put_u32(frame, packed_head(CongestMsg::kRound, flags, round));
        net::put_u32(frame, static_cast<std::uint32_t>(wire_pkts.size()));
        net::put_bytes(frame, body);
        round_wire += frame.size();
        round_fixed += fixed_frame_bytes(frame.size() - body.size(),
                                         static_cast<std::uint32_t>(wire_pkts.size()));
        if (obs::enabled())
          ((flags & 1u) != 0 ? NetEngineMetrics::get().delta_frames
                             : NetEngineMetrics::get().full_frames)
              .inc();
        try {
          hub_->worker(w).send(frame);
        } catch (const NetError&) {
          hub_->mark_dead(w);
          if (hub_->num_alive() == 0) throw;
        }
      }
      if (obs::enabled()) {
        NetEngineMetrics::get().round_wire_bytes.observe(round_wire);
        NetEngineMetrics::get().round_fixed_bytes.add(round_fixed);
      }
      // Extend every range's replay log with this round's deliveries —
      // unconditionally, so recovery is possible from round 1 even with
      // checkpoints off. Logs always store the fixed encoding: Restore
      // replay must not depend on any live delta-codec state.
      for (RangeState& rg : ranges_) {
        LogEntry le;
        le.count = rg.cur_count;
        for (const WirePacket& p : rg.cur_wire)
          encode_packet_fixed(le.packets, p.edge, p.dir, p.msg);
        rg.log.push_back(std::move(le));
        rg.cur_wire.clear();
      }

      if (want_cp) {
        // Workers checkpoint every unit right after applying this round's
        // deliveries; FIFO puts the blobs ahead of the next RoundDone.
        for (int w = 0; w < workers; ++w) {
          if (!hub_->alive(w)) continue;
          std::size_t expected = 0;
          for (const RangeState& rg : ranges_) expected += rg.owner == w ? 1 : 0;
          for (std::size_t k = 0; k < expected; ++k) {
            try {
              const std::vector<std::uint8_t> cpf = recv_protocol(w, "Checkpoint");
              net::WireReader r(cpf);
              if (static_cast<CongestMsg>(r.u32()) != CongestMsg::kCheckpoint)
                throw NetError("congest: expected Checkpoint from worker " + std::to_string(w));
              const auto lo = static_cast<VertexId>(r.u32());
              const auto hi = static_cast<VertexId>(r.u32());
              RangeState* rg = nullptr;
              for (RangeState& cand : ranges_)
                if (cand.owner == w && cand.lo == lo && cand.hi == hi) rg = &cand;
              if (rg == nullptr)
                throw NetError("congest: Checkpoint for a range worker " + std::to_string(w) +
                               " does not own");
              const std::span<const std::uint8_t> blob = r.rest();
              rg->cp_blob.assign(blob.begin(), blob.end());
              rg->cp_round = round;
              rg->log.clear();
              if (obs::enabled())
                NetEngineMetrics::get().checkpoint_bytes.observe(blob.size());
            } catch (const NetError&) {
              hub_->mark_dead(w);
              if (hub_->num_alive() == 0) throw;
              break;  // w's ranges keep their older checkpoint + longer log
            }
          }
        }
      }
    }

    // Collect: every range ships its outputs from whichever worker owns it
    // now; ranges orphaned since the last barrier (or dying mid-collect)
    // are finish-restored onto survivors.
    frame.clear();
    put_head(frame, CongestMsg::kCollect);
    for (int w = 0; w < workers; ++w) {
      if (!hub_->alive(w)) continue;
      try {
        hub_->worker(w).send(frame);
      } catch (const NetError&) {
        hub_->mark_dead(w);
        if (hub_->num_alive() == 0) throw;
      }
    }
    for (std::size_t i = 0; i < ranges_.size(); ++i)
      if (!hub_->alive(ranges_[i].owner)) send_restore(i, /*finish=*/true, program_id, spec);

    std::vector<std::vector<std::uint8_t>> trace_frames(static_cast<std::size_t>(workers));
    for (;;) {
      std::size_t idx = ranges_.size();
      for (std::size_t i = 0; i < ranges_.size(); ++i)
        if (!ranges_[i].collected) {
          idx = i;
          break;
        }
      if (idx == ranges_.size()) break;
      const int w = ranges_[idx].owner;
      try {
        const std::vector<std::uint8_t> outs = recv_protocol(w, "Outputs");
        net::WireReader r(outs);
        const auto type = static_cast<CongestMsg>(r.u32());
        if (type == CongestMsg::kOutputs) {
          const auto lo = static_cast<VertexId>(r.u32());
          const auto hi = static_cast<VertexId>(r.u32());
          RangeState* rg = nullptr;
          for (RangeState& cand : ranges_)
            if (!cand.collected && cand.owner == w && cand.lo == lo && cand.hi == hi)
              rg = &cand;
          if (rg == nullptr)
            throw NetError("congest: Outputs for a range worker " + std::to_string(w) +
                           " does not own");
          prog.decode_outputs(lo, hi, r.rest());
          rg->collected = true;
        } else if (type == CongestMsg::kTraceData) {
          if (!tracing_from[static_cast<std::size_t>(w)] ||
              !trace_frames[static_cast<std::size_t>(w)].empty())
            throw NetError("congest: unexpected TraceData from worker " + std::to_string(w));
          trace_frames[static_cast<std::size_t>(w)] = std::move(outs);
        } else {
          throw NetError("congest: expected Outputs from worker " + std::to_string(w));
        }
      } catch (const NetError&) {
        hub_->mark_dead(w);
        if (hub_->num_alive() == 0) throw;
        tracing_from[static_cast<std::size_t>(w)] = 0;
        for (std::size_t i = 0; i < ranges_.size(); ++i)
          if (!ranges_[i].collected && ranges_[i].owner == w)
            send_restore(i, /*finish=*/true, program_id, spec);
      }
    }

    if (trace_on) {
      for (int w = 0; w < workers; ++w) {
        if (!tracing_from[static_cast<std::size_t>(w)]) continue;
        if (trace_frames[static_cast<std::size_t>(w)].empty()) {
          try {
            const std::vector<std::uint8_t> td = recv_protocol(w, "TraceData");
            net::WireReader peek(td);
            if (static_cast<CongestMsg>(peek.u32()) != CongestMsg::kTraceData)
              throw NetError("congest: expected TraceData from worker " + std::to_string(w));
            trace_frames[static_cast<std::size_t>(w)] = td;
          } catch (const NetError&) {
            // All outputs are in; a death this late only costs the trace.
            hub_->mark_dead(w);
            continue;
          }
        }
        net::WireReader r(trace_frames[static_cast<std::size_t>(w)]);
        (void)r.u32();  // head, already validated
        std::vector<obs::TraceEvent> events;
        try {
          events = obs::decode_trace_events(r.rest());
        } catch (const std::exception& e) {
          throw NetError(std::string("congest: worker ") + std::to_string(w) +
                         " shipped malformed trace data: " + e.what());
        }
        // Stamp the pid authoritatively — the merged trace's process lanes
        // must reflect the coordinator's fleet numbering, whatever a worker
        // put in the field.
        for (obs::TraceEvent& ev : events) ev.pid = static_cast<std::uint32_t>(w) + 1;
        obs::TraceSink::global().record_batch(std::move(events));
      }
    }

    if (obs::enabled()) {
      NetEngineMetrics& m = NetEngineMetrics::get();
      m.rounds.add(stats.rounds);
      m.messages.add(stats.messages);
      m.boundary.add(boundary_total);
    }
    exec_span.arg("rounds", stats.rounds);
    exec_span.arg("messages", stats.messages);
    exec_span.arg("boundary_messages", boundary_total);
    return stats;
  }

 private:
  struct LogEntry {
    std::uint32_t count = 0;
    std::vector<std::uint8_t> packets;
  };

  /// One contiguous vertex range with its recovery state: the last
  /// checkpoint blob (round cp_round) plus every boundary delivery routed
  /// into the range since — rounds cp_round + 1 .. cp_round + log.size().
  struct RangeState {
    VertexId lo = 0, hi = 0;
    int owner = 0;
    int cp_round = 0;
    std::vector<std::uint8_t> cp_blob;  // empty = restore from round 1
    std::vector<LogEntry> log;
    std::uint32_t cur_count = 0;  // deliveries routed this barrier
    std::vector<WirePacket> cur_wire;
    bool collected = false;
  };

  /// Receives one protocol frame from worker w under the hub's recv policy,
  /// transparently consuming heartbeats (each one restarts the deadline).
  std::vector<std::uint8_t> recv_protocol(int w, const char* expecting) {
    for (;;) {
      std::optional<std::vector<std::uint8_t>> f = hub_->worker(w).recv(hub_->options().recv);
      if (!f)
        throw NetError("congest: worker " + std::to_string(w) + " closed while waiting for " +
                       expecting);
      if (f->size() >= 4) {
        net::WireReader r(*f);
        if (head_type(r.u32()) == CongestMsg::kHeartbeat) continue;
      }
      return std::move(*f);
    }
  }

  /// The range owning vertex v (partition covers [0, n), ranges_ ascending).
  std::size_t range_of(VertexId v) const {
    std::size_t lo = 0, hi = ranges_.size();
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      if (ranges_[mid].lo <= v)
        lo = mid;
      else
        hi = mid;
    }
    DECK_CHECK(v >= ranges_[lo].lo && v < ranges_[lo].hi);
    return lo;
  }

  /// The adoption target: fewest owned vertices (spares first), then lowest
  /// index. Throws NetError when nobody survives.
  int pick_adoptive() const {
    int best = -1;
    std::int64_t best_load = 0;
    for (int w = 0; w < hub_->num_workers(); ++w) {
      if (!hub_->alive(w)) continue;
      std::int64_t load = 0;
      for (const RangeState& rg : ranges_)
        if (rg.owner == w) load += rg.hi - rg.lo;
      if (best < 0 || load < best_load) {
        best = w;
        best_load = load;
      }
    }
    if (best < 0)
      throw NetError("congest: no surviving worker to adopt an orphaned vertex range");
    return best;
  }

  /// Ships range `idx` to a survivor as a self-contained Restore: program
  /// spec, last checkpoint (if any), and the logged deliveries since. The
  /// survivor replays to the exact state the dead owner held.
  void send_restore(std::size_t idx, bool finish, std::uint32_t program_id,
                    const std::vector<std::uint8_t>& spec) {
    RangeState& rg = ranges_[idx];
    std::vector<std::uint8_t> frame;
    put_head(frame, CongestMsg::kRestore);
    net::put_u32(frame, finish ? 1 : 0);
    net::put_u32(frame, graph_id_);
    net::put_u32(frame, program_id);
    net::put_u32(frame, static_cast<std::uint32_t>(rg.lo));
    net::put_u32(frame, static_cast<std::uint32_t>(rg.hi));
    net::put_u32(frame, rg.cp_blob.empty() ? 0 : 1);
    if (!rg.cp_blob.empty()) {
      net::put_u64(frame, rg.cp_blob.size());
      net::put_bytes(frame, rg.cp_blob);
    }
    net::put_u32(frame, static_cast<std::uint32_t>(rg.log.size()));
    for (std::size_t i = 0; i < rg.log.size(); ++i) {
      net::put_u32(frame, static_cast<std::uint32_t>(rg.cp_round + 1 + static_cast<int>(i)));
      net::put_u32(frame, rg.log[i].count);
      net::put_bytes(frame, rg.log[i].packets);
    }
    net::put_bytes(frame, spec);
    for (;;) {
      const int a = pick_adoptive();
      try {
        hub_->worker(a).send(frame);
        rg.owner = a;
        if (obs::enabled()) NetEngineMetrics::get().reassigns.inc();
        return;
      } catch (const NetError&) {
        hub_->mark_dead(a);
      }
    }
  }

  DistributedEngineHub* hub_;
  const Graph* g_;
  std::uint32_t graph_id_;
  std::vector<RangeState> ranges_;
};

}  // namespace

std::unique_ptr<Engine> DistributedEngineHub::engine_for(const Graph& g) {
  DECK_CHECK_MSG(!down_, "distributed engine hub used after shutdown");
  return std::make_unique<DistributedEngine>(*this, g, next_graph_id_++);
}

std::shared_ptr<DistributedEngineHub> make_distributed_hub(std::vector<Transport*> workers,
                                                           DistributedHubOptions options) {
  return std::make_shared<DistributedEngineHub>(std::move(workers), options);
}

// ---------------------------------------------------------------------------
// Worker side.

namespace {

/// Serializes sends on the coordinator link: the main protocol loop and the
/// heartbeat pump share one transport.
struct WorkerLink {
  Transport& t;
  std::mutex mu;

  explicit WorkerLink(Transport& transport) : t(transport) {}

  void send(const std::vector<std::uint8_t>& frame) {
    std::lock_guard<std::mutex> lock(mu);
    t.send(frame);
  }
};

/// Background heartbeat sender (WorkerOptions::heartbeat_ms > 0): proof of
/// life for coordinators running recv deadlines. Stops on destruction or on
/// the first send fault (the main loop surfaces the real error).
class HeartbeatPump {
 public:
  HeartbeatPump(WorkerLink& link, int interval_ms) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, &link, interval_ms] {
      std::vector<std::uint8_t> beat;
      put_head(beat, CongestMsg::kHeartbeat);
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [this] { return stop_; })) {
        lock.unlock();
        bool ok = true;
        try {
          link.send(beat);
        } catch (...) {
          ok = false;
        }
        lock.lock();
        if (!ok) return;
      }
    });
  }

  ~HeartbeatPump() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

struct WorkerRange {
  VertexId lo = 0, hi = 0;
};

struct WorkerGraph {
  Graph g;
  std::vector<WorkerRange> ranges;  // grows as orphaned ranges are adopted
};

struct WorkerState {
  WorkerLink link;
  WorkerOptions opts;
  RoundCodecs codecs;    // round-frame codecs, reset per Start
  int round_frames = 0;  // kill_after_rounds clock

  WorkerState(Transport& transport, const WorkerOptions& options)
      : link(transport), opts(options) {}

  /// Ships one protocol frame, timing the block into send_thread_wait_ns.
  void send(const std::vector<std::uint8_t>& frame) {
    const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
    link.send(frame);
    if (obs::enabled()) NetEngineMetrics::get().send_wait_ns.observe(obs::now_ns() - t0);
  }

  /// Next protocol frame (nullopt on orderly close), timing the block into
  /// recv_thread_wait_ns.
  std::optional<std::vector<std::uint8_t>> recv() {
    const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
    std::optional<std::vector<std::uint8_t>> f = link.t.recv();
    if (obs::enabled()) NetEngineMetrics::get().recv_wait_ns.observe(obs::now_ns() - t0);
    return f;
  }

  /// Ships one RoundDone, its boundary messages encoded through the tx
  /// codec (frames must leave in codec order).
  void send_round_done(int round, std::uint64_t sent, std::span<const WirePacket> packets) {
    std::vector<std::uint8_t> body;
    const std::uint32_t flags = codecs.tx.encode(body, packets) ? 1u : 0u;
    std::vector<std::uint8_t> frame;
    net::put_u32(frame, packed_head(CongestMsg::kRoundDone, flags, round));
    net::put_u64(frame, sent);
    net::put_u32(frame, static_cast<std::uint32_t>(packets.size()));
    net::put_bytes(frame, body);
    send(frame);
  }
};

/// The scripted death point: close-and-throw by default (in-process fleets
/// must not nuke the host), SIGKILL when the worker is its own process.
[[noreturn]] void die_on_schedule(WorkerState& st) {
  if (st.opts.hard_kill) {
    std::raise(SIGKILL);
    std::abort();  // unreachable; keeps [[noreturn] ] honest if SIGKILL is blocked
  }
  try {
    st.link.t.close();
  } catch (...) {
  }
  throw NetError("congest: worker killed by schedule (kill_after_rounds)");
}

WorkerGraph decode_graph(net::WireReader& r) {
  WorkerGraph wg;
  const std::uint32_t n = r.u32();
  const std::uint32_t m = r.u32();
  if (m > r.remaining() / 16) throw NetError("congest: LoadGraph edge list longer than frame");
  wg.g = Graph(static_cast<int>(n));
  for (std::uint32_t i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(r.u32());
    const auto v = static_cast<VertexId>(r.u32());
    const auto w = static_cast<Weight>(r.u64());
    if (u < 0 || v < 0 || u >= static_cast<VertexId>(n) || v >= static_cast<VertexId>(n))
      throw NetError("congest: LoadGraph edge endpoint out of range");
    wg.g.add_edge(u, v, w);
  }
  WorkerRange range;
  range.lo = static_cast<VertexId>(r.u32());
  range.hi = static_cast<VertexId>(r.u32());
  if (range.lo < 0 || range.hi < range.lo || range.hi > static_cast<VertexId>(n))
    throw NetError("congest: LoadGraph vertex range is malformed");
  wg.ranges.push_back(range);
  return wg;
}

/// One owned range mid-execution: its own program instance (decoded from
/// the spec — setup() must never run twice on live state) plus the BSP
/// runner for the slice.
struct WorkerUnit {
  VertexId lo = 0, hi = 0;
  std::unique_ptr<VertexProgram> prog;
  std::unique_ptr<BspRunner> runner;
};

/// Rebuilds a Restore frame's range on this worker: decode the spec, absorb
/// the checkpoint (or start from round 1), then replay the logged boundary
/// deliveries round by round — discarding the re-derived sends, which the
/// dead owner already routed. Returns the unit plus the next round it is
/// ready to run. Malformed frames and checkpoints fail typed.
std::pair<WorkerUnit, int> build_restored_unit(WorkerGraph& wg, net::WireReader& r) {
  const std::uint32_t program_id = r.u32();
  const auto lo = static_cast<VertexId>(r.u32());
  const auto hi = static_cast<VertexId>(r.u32());
  if (lo < 0 || hi < lo || hi > wg.g.num_vertices())
    throw NetError("congest: Restore range is malformed");
  const std::uint32_t cp_present = r.u32();
  CheckpointBlob cp;
  if (cp_present != 0) {
    const std::uint64_t len = r.u64();
    if (len > r.remaining()) throw NetError("congest: Restore checkpoint longer than frame");
    cp = decode_checkpoint(r.bytes(static_cast<std::size_t>(len)));
    if (cp.program_id != program_id || cp.lo != lo || cp.hi != hi)
      throw NetError("congest: Restore checkpoint does not match the adopted range");
  }
  const std::uint32_t replay_rounds = r.u32();
  // Every replay entry carries at least its round and count words.
  if (replay_rounds > r.remaining() / 8)
    throw NetError("congest: Restore replay round count longer than frame");
  std::vector<std::pair<int, std::vector<WirePacket>>> replay;
  replay.reserve(replay_rounds);
  for (std::uint32_t i = 0; i < replay_rounds; ++i) {
    const int q = static_cast<int>(r.u32());
    const std::uint32_t count = r.u32();
    if (count > r.remaining() / kFixedPacketBytes)
      throw NetError("congest: Restore replay longer than frame");
    std::vector<WirePacket> packets(count);
    for (auto& p : packets) p = decode_packet_fixed(r);
    replay.emplace_back(q, std::move(packets));
  }

  WorkerUnit u;
  u.lo = lo;
  u.hi = hi;
  u.prog = decode_congest_program(program_id, r.rest());
  u.runner = std::make_unique<BspRunner>(wg.g, lo, hi);
  int next = 1;
  if (cp_present != 0) {
    u.prog->setup(wg.g);
    u.prog->decode_state(lo, hi, cp.state);
    u.runner->attach(*u.prog);
    u.runner->restore_resume(cp.round, cp.awake, cp.pending);
    next = cp.round + 1;
  } else {
    u.runner->start(*u.prog);
  }
  std::vector<WirePacket> discard;
  for (const auto& [q, packets] : replay) {
    if (q != next) throw NetError("congest: Restore replay rounds are not consecutive");
    discard.clear();
    u.runner->run_round(q, &discard);  // re-derived sends were already routed
    for (const WirePacket& p : packets) {
      if (p.edge < 0 || p.edge >= wg.g.num_edges())
        throw NetError("congest: Restore replay delivery on a bogus edge id");
      u.runner->deliver_remote(q, p.edge, p.dir, p.msg);
    }
    ++next;
  }
  return {std::move(u), next};
}

/// Trace context a Start message carries for the execution it launches.
struct StartTrace {
  std::uint32_t node = 0;       // this worker's process lane in the merged trace
  bool tracing = false;         // Start's trace flags, bit 0
  std::uint64_t trace_id = 0;   // coordinator's trace
  std::uint64_t parent_span = 0;  // coordinator's net.execute span
};

/// Executes one Start to quiescence; returns after shipping per-range
/// Outputs (and, when the Start asked for tracing, the worker's span buffer
/// as kTraceData). Mid-phase Restore frames adopt orphaned ranges into the
/// running execution.
///
/// Worker spans are built by hand into a *local* vector rather than through
/// obs::Span and the global TraceSink: with the in-process fleet, workers
/// share the coordinator's process, and sink-recorded events would surface
/// twice (once drained locally, once shipped back). The local buffer keeps
/// exactly one copy — the shipped one — on every deployment shape.
void run_program(WorkerState& st, std::uint32_t graph_id, WorkerGraph& wg,
                 std::uint32_t program_id, std::span<const std::uint8_t> spec,
                 const StartTrace& trace) {
  std::vector<WorkerUnit> units;
  for (const WorkerRange& range : wg.ranges) {
    if (range.lo >= range.hi) continue;
    WorkerUnit u;
    u.lo = range.lo;
    u.hi = range.hi;
    u.prog = decode_congest_program(program_id, spec);
    u.runner = std::make_unique<BspRunner>(wg.g, u.lo, u.hi);
    u.runner->start(*u.prog);
    units.push_back(std::move(u));
  }

  std::vector<obs::TraceEvent> local_events;
  const std::uint64_t exec_span_id = trace.tracing ? obs::next_span_id() : 0;
  const std::uint64_t exec_start = trace.tracing ? obs::now_ns() : 0;
  const auto record_local = [&](const char* name, std::uint64_t start, std::uint64_t parent,
                                std::uint64_t span_id) -> obs::TraceEvent& {
    obs::TraceEvent ev;
    ev.name = name;
    ev.ts_ns = start;
    ev.dur_ns = obs::now_ns() - start;
    ev.pid = trace.node;
    ev.trace_id = trace.trace_id;
    ev.span_id = span_id;
    ev.parent_id = parent;
    local_events.push_back(std::move(ev));
    return local_events.back();
  };

  const auto deliver = [&](int round, const WirePacket& p) {
    if (p.edge < 0 || p.edge >= wg.g.num_edges())
      throw NetError("congest: Round delivery on a bogus edge id");
    const Edge& e = wg.g.edge(p.edge);
    const VertexId to = p.dir == 0 ? e.v : e.u;
    for (WorkerUnit& u : units)
      if (to >= u.lo && to < u.hi) {
        u.runner->deliver_remote(round, p.edge, p.dir, p.msg);
        return;
      }
    throw NetError("congest: delivery for a vertex this worker does not own");
  };

  std::vector<WirePacket> boundary;
  std::vector<std::uint8_t> frame;
  std::uint64_t rounds = 0, messages = 0;

  // Each iteration steps `round`, ships its RoundDone, and waits for the
  // coordinator's verdict: a Round frame (deliver, then step the next
  // round), Collect (quiescent: ship outputs), or Restore (adopt a range
  // and report its round-`round` contribution, then keep waiting).
  for (int round = 1;; ++round) {
    const bool round_traced = trace.tracing && round <= kNetMaxRoundSpans;
    const std::uint64_t round_start = round_traced ? obs::now_ns() : 0;
    std::uint64_t sent = 0;
    for (WorkerUnit& u : units) sent += u.runner->run_round(round, &boundary);
    if (round_traced) {
      obs::TraceEvent& ev =
          record_local("worker.round", round_start, exec_span_id, obs::next_span_id());
      ev.args.emplace_back("round", static_cast<std::uint64_t>(round));
      ev.args.emplace_back("sent", sent);
    }
    rounds += sent != 0 ? 1 : 0;
    messages += sent;
    st.send_round_done(round, sent, boundary);
    boundary.clear();

    for (bool advance = false; !advance;) {
      std::optional<std::vector<std::uint8_t>> reply_opt = st.recv();
      if (!reply_opt)
        throw NetError("congest: worker closed while waiting for Round/Collect/Restore");
      const std::vector<std::uint8_t> reply = std::move(*reply_opt);
      net::WireReader r(reply);
      const std::uint32_t head = r.u32();
      switch (head_type(head)) {
        case CongestMsg::kRound: {
          ++st.round_frames;
          if (st.opts.kill_after_rounds > 0 && st.round_frames == st.opts.kill_after_rounds)
            die_on_schedule(st);
          const std::uint32_t flags = (head >> 8) & 0xffu;
          if (head >> 16 != (static_cast<std::uint32_t>(round) & 0xffffu))
            throw NetError("congest: stale Round frame — coordinator stamped round " +
                           std::to_string(head >> 16) + ", worker is at round " +
                           std::to_string(round));
          const std::uint32_t count = r.u32();
          for (const WirePacket& p : st.codecs.rx.decode(r, count, (flags & 1u) != 0))
            deliver(round, p);
          if ((flags & 2u) != 0) {
            for (const WorkerUnit& u : units) {
              CheckpointBlob cp;
              cp.program_id = program_id;
              cp.lo = u.lo;
              cp.hi = u.hi;
              cp.round = round;
              u.prog->encode_state(u.lo, u.hi, cp.state);
              u.runner->save_resume(round, cp.awake, cp.pending);
              frame.clear();
              put_head(frame, CongestMsg::kCheckpoint);
              net::put_u32(frame, static_cast<std::uint32_t>(u.lo));
              net::put_u32(frame, static_cast<std::uint32_t>(u.hi));
              encode_checkpoint(cp, frame);
              st.send(frame);
            }
          }
          advance = true;
          break;
        }
        case CongestMsg::kCollect: {
          for (WorkerUnit& u : units) u.runner->finish();
          for (const WorkerUnit& u : units) {
            frame.clear();
            put_head(frame, CongestMsg::kOutputs);
            net::put_u32(frame, static_cast<std::uint32_t>(u.lo));
            net::put_u32(frame, static_cast<std::uint32_t>(u.hi));
            u.prog->encode_outputs(u.lo, u.hi, frame);
            st.send(frame);
          }
          if (trace.tracing) {
            obs::TraceEvent& ev =
                record_local("worker.execute", exec_start, trace.parent_span, exec_span_id);
            ev.args.emplace_back("rounds", rounds);
            ev.args.emplace_back("messages", messages);
            frame.clear();
            put_head(frame, CongestMsg::kTraceData);
            obs::encode_trace_events(frame, local_events);
            st.send(frame);
          }
          return;
        }
        case CongestMsg::kRestore: {
          // Adopt a dead worker's range mid-phase: rebuild it to the end of
          // the previous round, run the current round, and report the
          // contribution the dead owner never delivered.
          if (r.u32() != 0)
            throw NetError("congest: finish-mode Restore arrived mid-phase");
          if (r.u32() != graph_id)
            throw NetError("congest: mid-phase Restore names a different graph");
          auto [unit, next] = build_restored_unit(wg, r);
          if (next != round)
            throw NetError("congest: Restore replay does not reach the current round");
          std::vector<WirePacket> adopted_boundary;
          const std::uint64_t adopted_sent = unit.runner->run_round(round, &adopted_boundary);
          messages += adopted_sent;
          st.send_round_done(round, adopted_sent, adopted_boundary);
          wg.ranges.push_back(WorkerRange{unit.lo, unit.hi});
          units.push_back(std::move(unit));
          break;  // keep waiting for this round's verdict
        }
        default:
          throw NetError("congest: worker expected Round, Collect, or Restore mid-phase");
      }
    }
  }
}

}  // namespace

void run_congest_worker(Transport& coordinator) {
  run_congest_worker(coordinator, WorkerOptions{});
}

void run_congest_worker(Transport& coordinator, const WorkerOptions& options) {
  WorkerState st(coordinator, options);
  {
    std::vector<std::uint8_t> hello;
    put_head(hello, CongestMsg::kHello);
    net::put_u32(hello, kCongestProtoVersion);
    st.link.send(hello);
  }
  HeartbeatPump pump(st.link, options.heartbeat_ms);
  std::map<std::uint32_t, WorkerGraph> graphs;
  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame = st.recv();
    if (!frame) return;  // orderly close = shutdown
    net::WireReader r(*frame);
    switch (head_type(r.u32())) {
      case CongestMsg::kLoadGraph: {
        const std::uint32_t id = r.u32();
        WorkerGraph wg = decode_graph(r);
        if (!graphs.emplace(id, std::move(wg)).second)
          throw NetError("congest: LoadGraph reuses live graph id " + std::to_string(id));
        break;
      }
      case CongestMsg::kDropGraph: {
        const std::uint32_t id = r.u32();
        if (graphs.erase(id) != 1)
          throw NetError("congest: DropGraph names unknown graph id " + std::to_string(id));
        break;
      }
      case CongestMsg::kStart: {
        const std::uint32_t id = r.u32();
        const auto it = graphs.find(id);
        if (it == graphs.end())
          throw NetError("congest: Start names unknown graph id " + std::to_string(id));
        const std::uint32_t program_id = r.u32();
        StartTrace trace;
        trace.node = r.u32();
        trace.tracing = (r.u32() & 1) != 0;
        trace.trace_id = r.u64();
        trace.parent_span = r.u64();
        st.codecs.reset(it->second.g.num_edges());
        run_program(st, id, it->second, program_id, r.rest(), trace);
        break;
      }
      case CongestMsg::kRestore: {
        // Post-phase adoption: the owner died between quiescence and
        // Collect. Replay the whole range (checkpoint + log), run the
        // final silent round, and ship the outputs it never delivered.
        if (r.u32() != 1)
          throw NetError("congest: resume-mode Restore arrived outside a phase");
        const std::uint32_t id = r.u32();
        const auto it = graphs.find(id);
        if (it == graphs.end())
          throw NetError("congest: Restore names unknown graph id " + std::to_string(id));
        auto [unit, final_round] = build_restored_unit(it->second, r);
        std::vector<WirePacket> discard;
        if (unit.runner->run_round(final_round, &discard) != 0)
          throw NetError("congest: restored range was not quiescent at the phase end");
        unit.runner->finish();
        std::vector<std::uint8_t> out;
        put_head(out, CongestMsg::kOutputs);
        net::put_u32(out, static_cast<std::uint32_t>(unit.lo));
        net::put_u32(out, static_cast<std::uint32_t>(unit.hi));
        unit.prog->encode_outputs(unit.lo, unit.hi, out);
        st.send(out);
        it->second.ranges.push_back(WorkerRange{unit.lo, unit.hi});
        break;
      }
      case CongestMsg::kShutdown:
        return;
      default:
        throw NetError("congest: worker received an unexpected message type");
    }
  }
}

// ---------------------------------------------------------------------------
// In-process fleet.

CongestWorkerFleet::CongestWorkerFleet(int workers)
    : CongestWorkerFleet(workers, FleetOptions{}) {}

CongestWorkerFleet::CongestWorkerFleet(int workers, FleetOptions options) {
  DECK_CHECK(workers >= 1);
  std::vector<Transport*> raw;
  for (int w = 0; w < workers; ++w) {
    auto [coord, work] = loopback_pair();
    std::unique_ptr<Transport> coordinator_end = std::move(coord);
    if (static_cast<std::size_t>(w) < options.coordinator_faults.size() &&
        !options.coordinator_faults[static_cast<std::size_t>(w)].empty()) {
      coordinator_end = std::make_unique<FaultInjectingTransport>(
          std::move(coordinator_end), options.coordinator_faults[static_cast<std::size_t>(w)]);
    }
    coordinator_side_.push_back(std::move(coordinator_end));
    raw.push_back(coordinator_side_.back().get());
    threads_.emplace_back(
        [t = std::shared_ptr<Transport>(std::move(work)), wopts = options.worker] {
          try {
            run_congest_worker(*t, wopts);
          } catch (const NetError&) {
            // Coordinator-side faults close the transport under us and
            // scheduled kills close it themselves; a worker-side protocol
            // error (malformed frame) must also surface as a death, so
            // close unconditionally — closing twice is harmless.
            t->close();
          } catch (const std::exception&) {
            // Program-invariant failures (DECK_CHECK) must not
            // std::terminate the host process: close the link so the
            // coordinator observes a typed NetError instead.
            t->close();
          }
        });
  }
  hub_ = make_distributed_hub(std::move(raw), options.hub);
}

CongestWorkerFleet::~CongestWorkerFleet() {
  try {
    hub_->shutdown();
  } catch (...) {
  }
  for (auto& t : coordinator_side_) t->close();
  for (auto& th : threads_) th.join();
}

}  // namespace deck
