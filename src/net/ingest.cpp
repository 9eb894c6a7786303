#include "net/ingest.hpp"

#include <mutex>
#include <string>
#include <utility>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sketch/sketch_io.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace deck {

namespace {

[[noreturn]] void fail(const std::string& what) { throw NetError("net: " + what); }

/// Coordinator-side chunk-stream metrics: volume plus how long each receive
/// job sat waiting for its worker's next frame.
struct IngestMetrics {
  obs::Counter& chunks = obs::Registry::global().counter("ingest.chunks");
  obs::Counter& chunk_bytes = obs::Registry::global().counter("ingest.chunk_bytes");
  obs::Histogram& chunk_wait_ns = obs::Registry::global().histogram("ingest.chunk_wait_ns");

  static IngestMetrics& get() {
    static IngestMetrics m;
    return m;
  }
};

std::vector<std::uint8_t> encode_attempt(const SketchOptions& opt) {
  std::vector<std::uint8_t> msg;
  net::put_u32(msg, static_cast<std::uint32_t>(IngestMsg::kAttempt));
  net::put_u64(msg, opt.seed);
  net::put_u32(msg, static_cast<std::uint32_t>(opt.max_forests));
  net::put_u32(msg, static_cast<std::uint32_t>(opt.columns));
  net::put_u32(msg, static_cast<std::uint32_t>(opt.rounds_slack));
  net::put_u32(msg, opt.auto_size.enabled ? 1 : 0);
  net::put_u32(msg, static_cast<std::uint32_t>(opt.auto_size.initial_columns));
  net::put_u32(msg, static_cast<std::uint32_t>(opt.auto_size.initial_rounds_slack));
  net::put_u32(msg, static_cast<std::uint32_t>(opt.auto_size.growth));
  net::put_u32(msg, static_cast<std::uint32_t>(opt.auto_size.max_attempts));
  return msg;
}

/// Reads one sizing field and enforces the same legal range the sketch_io
/// header validation uses — a corrupt Attempt frame must fail with a typed
/// error on the worker, never drive SketchConnectivity into overflowing
/// arithmetic or a forged-size allocation.
int attempt_field(net::WireReader& r, const char* name, std::uint32_t lo, std::uint32_t hi) {
  const std::uint32_t v = r.u32();
  if (v < lo || v > hi)
    fail("attempt field '" + std::string(name) + "' out of range [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "] (value " + std::to_string(v) + ")");
  return static_cast<int>(v);
}

SketchOptions decode_attempt(net::WireReader& r) {
  SketchOptions opt;
  opt.seed = r.u64();
  opt.max_forests = attempt_field(r, "max_forests", 1, 1u << 16);
  opt.columns = attempt_field(r, "columns", 1, 1u << 16);
  opt.rounds_slack = attempt_field(r, "rounds_slack", 1, 1u << 16);
  opt.auto_size.enabled = attempt_field(r, "auto_size.enabled", 0, 1) == 1;
  opt.auto_size.initial_columns = attempt_field(r, "auto_size.initial_columns", 1, 1u << 16);
  opt.auto_size.initial_rounds_slack =
      attempt_field(r, "auto_size.initial_rounds_slack", 1, 1u << 16);
  opt.auto_size.growth = attempt_field(r, "auto_size.growth", 2, 1u << 16);
  opt.auto_size.max_attempts = attempt_field(r, "auto_size.max_attempts", 1, 1u << 16);
  if (r.remaining() != 0) fail("attempt message carries trailing bytes");
  return opt;
}

/// recv() that treats orderly close as a protocol violation — both roles
/// always part with an explicit Done/Shutdown, so a bare EOF means the peer
/// died mid-conversation.
}  // namespace

void run_ingest_worker(Transport& coordinator, const GraphStream& stream, std::uint32_t worker_id,
                       std::uint32_t num_workers, const IngestWorkerOptions& wopt) {
  DECK_CHECK(num_workers >= 1);
  DECK_CHECK(worker_id < num_workers);
  const int n = stream.num_vertices();

  std::vector<std::uint8_t> hello;
  net::put_u32(hello, static_cast<std::uint32_t>(IngestMsg::kHello));
  net::put_u32(hello, worker_id);
  net::put_u32(hello, static_cast<std::uint32_t>(n));
  net::put_u32(hello, num_workers);
  coordinator.send(hello);

  for (;;) {
    const std::vector<std::uint8_t> msg = net::recv_expected(coordinator, "coordinator Attempt/Shutdown");
    net::WireReader r(std::span<const std::uint8_t>(msg.data(), msg.size()));
    const auto type = static_cast<IngestMsg>(r.u32());
    if (type == IngestMsg::kShutdown) return;
    if (type != IngestMsg::kAttempt)
      fail("worker expected Attempt or Shutdown, got message type " +
           std::to_string(static_cast<std::uint32_t>(type)));

    // One attempt: sketch the strided slice updates[worker_id::num_workers]
    // with the broadcast sizing. Linearity makes any disjoint partition of
    // the stream merge to the bank a single ingester would build, and
    // split_seed derives the per-copy seeds from the options alone, so no
    // further coordination is needed. The slice is regrouped into
    // per-source runs of at most batch_halves halves (full runs as they
    // fill, remainders in source order at the end) and applied with
    // SketchConnectivity::apply_batch.
    DECK_CHECK(wopt.batch_halves >= 1);
    const SketchOptions aopt = decode_attempt(r);
    SketchConnectivity bank(n, aopt);
    {
      std::vector<std::vector<VertexDelta>> pending(static_cast<std::size_t>(n));
      auto flush = [&](VertexId src) {
        auto& buf = pending[static_cast<std::size_t>(src)];
        if (buf.empty()) return;
        bank.apply_batch(src, std::span<const VertexDelta>(buf.data(), buf.size()));
        buf.clear();
      };
      auto push = [&](VertexId src, VertexId dst, int delta) {
        auto& buf = pending[static_cast<std::size_t>(src)];
        buf.push_back({dst, delta});
        if (buf.size() >= wopt.batch_halves) flush(src);
      };
      std::size_t index = 0;
      for (const StreamUpdate& u : stream.updates()) {
        if (index++ % num_workers != worker_id) continue;
        const int delta = u.insert ? 1 : -1;
        push(u.u, u.v, delta);
        push(u.v, u.u, delta);
      }
      for (VertexId v = 0; v < n; ++v) flush(v);
    }

    ChunkOptions copt;
    copt.source_id = worker_id;
    copt.vertices_per_chunk = wopt.vertices_per_chunk;
    copt.target_chunk_bytes = wopt.target_chunk_bytes;
    std::uint32_t sent = 0;
    for (const std::vector<std::uint8_t>& chunk : encode_bank_chunks(bank, copt)) {
      std::vector<std::uint8_t> frame;
      frame.reserve(4 + chunk.size());
      net::put_u32(frame, static_cast<std::uint32_t>(IngestMsg::kChunk));
      net::put_bytes(frame, std::span<const std::uint8_t>(chunk.data(), chunk.size()));
      coordinator.send(frame);
      ++sent;
    }
    std::vector<std::uint8_t> done;
    net::put_u32(done, static_cast<std::uint32_t>(IngestMsg::kDone));
    net::put_u32(done, sent);
    coordinator.send(done);
  }
}

void validate_ingest_roster(const std::vector<Transport*>& workers, int n) {
  DECK_CHECK(!workers.empty());
  for (Transport* t : workers) DECK_CHECK(t != nullptr);

  // Roster: every worker announces itself before any attempt is broadcast,
  // so a mis-wired transport fails fast instead of corrupting an attempt.
  std::vector<std::uint32_t> ids;
  ids.reserve(workers.size());
  for (Transport* t : workers) {
    const std::vector<std::uint8_t> msg = net::recv_expected(*t, "worker");
    net::WireReader r(std::span<const std::uint8_t>(msg.data(), msg.size()));
    const auto type = static_cast<IngestMsg>(r.u32());
    if (type != IngestMsg::kHello)
      fail("coordinator expected Hello, got message type " +
           std::to_string(static_cast<std::uint32_t>(type)));
    const std::uint32_t id = r.u32();
    const std::uint32_t worker_n = r.u32();
    const std::uint32_t fleet = r.u32();
    if (worker_n != static_cast<std::uint32_t>(n))
      fail("worker " + std::to_string(id) + " ingests n=" + std::to_string(worker_n) +
           ", coordinator expects n=" + std::to_string(n));
    // The strided slices updates[id::num_workers] tile the stream iff every
    // worker agrees on the fleet size and the ids are distinct and in
    // range — anything else silently drops or double-ingests updates, so
    // it fails the roster instead.
    if (fleet != workers.size())
      fail("worker " + std::to_string(id) + " slices for a fleet of " + std::to_string(fleet) +
           ", coordinator drives " + std::to_string(workers.size()) + " worker(s)");
    if (id >= workers.size())
      fail("worker id " + std::to_string(id) + " out of range for a fleet of " +
           std::to_string(workers.size()));
    for (std::uint32_t seen : ids)
      if (seen == id) fail("duplicate worker id " + std::to_string(id) + " in the roster");
    ids.push_back(id);
  }
}

SketchConnectivity coordinated_ingest_attempt(const std::vector<Transport*>& workers, int n,
                                              const SketchOptions& aopt, ThreadPool& pool) {
  obs::Span attempt_span("ingest.attempt");
  attempt_span.arg("workers", workers.size());
  attempt_span.arg("columns", static_cast<std::uint64_t>(aopt.columns));
  const obs::TraceContext attempt_ctx = attempt_span.context();
  const std::vector<std::uint8_t> attempt = encode_attempt(aopt);
  for (Transport* t : workers) t->send(attempt);

  BankAssembler assembler(n, aopt);
  std::mutex mu;  // serializes add_chunk; receive waits overlap across workers
  for (Transport* t : workers) {
    pool.submit([&, t] {
      // Pool threads have no ambient span — parent the receive job under
      // the attempt explicitly so the trace shows the overlap.
      obs::Span recv_span("ingest.recv", attempt_ctx);
      std::uint64_t chunks = 0;
      for (;;) {
        const std::uint64_t wait_start = obs::enabled() ? obs::now_ns() : 0;
        const std::vector<std::uint8_t> msg = net::recv_expected(*t, "worker");
        net::WireReader r(std::span<const std::uint8_t>(msg.data(), msg.size()));
        const auto type = static_cast<IngestMsg>(r.u32());
        if (type == IngestMsg::kDone) {
          (void)r.u32();  // chunks_sent; completeness is checked globally below
          recv_span.arg("chunks", chunks);
          return;
        }
        if (type != IngestMsg::kChunk)
          fail("coordinator expected Chunk or Done, got message type " +
               std::to_string(static_cast<std::uint32_t>(type)));
        if (obs::enabled()) {
          IngestMetrics& m = IngestMetrics::get();
          m.chunk_wait_ns.observe(obs::now_ns() - wait_start);
          m.chunks.inc();
          m.chunk_bytes.add(msg.size());
        }
        ++chunks;
        const std::lock_guard<std::mutex> lock(mu);
        assembler.add_chunk(r.rest());
      }
    });
  }
  pool.wait();
  if (assembler.sources_seen() != workers.size() || !assembler.complete())
    fail("attempt ended with an incomplete chunk stream (" +
         std::to_string(assembler.chunks_received()) + " chunk(s) from " +
         std::to_string(assembler.sources_seen()) + " of " + std::to_string(workers.size()) +
         " worker(s))");
  return assembler.take();
}

void shutdown_ingest_workers(const std::vector<Transport*>& workers, bool best_effort) {
  std::vector<std::uint8_t> bye;
  net::put_u32(bye, static_cast<std::uint32_t>(IngestMsg::kShutdown));
  for (Transport* t : workers) {
    if (!best_effort) {
      t->send(bye);
      continue;
    }
    // Error-path variant: healthy workers should still exit instead of
    // blocking on the next Attempt; the caller's fault stays primary.
    try {
      t->send(bye);
    } catch (const NetError&) {
    }
  }
}

}  // namespace deck
