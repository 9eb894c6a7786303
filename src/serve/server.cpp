#include "serve/server.hpp"

#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace deck {

namespace {

struct ServerMetrics {
  obs::Counter& clients = obs::Registry::global().counter("serve.server.clients");
  obs::Counter& frames = obs::Registry::global().counter("serve.server.frames");
  obs::Counter& updates = obs::Registry::global().counter("serve.server.updates");
  obs::Counter& queries = obs::Registry::global().counter("serve.server.queries");
  obs::Counter& errors = obs::Registry::global().counter("serve.server.errors");
  obs::Histogram& frame_ns = obs::Registry::global().histogram("serve.server.frame_ns");

  static ServerMetrics& get() {
    static ServerMetrics m;
    return m;
  }
};

void put_error(std::vector<std::uint8_t>& out, ServeErrorCode code, const std::string& what) {
  out.clear();
  net::put_u32(out, static_cast<std::uint32_t>(ServeMsg::kError));
  net::put_u32(out, static_cast<std::uint32_t>(code));
  for (const char c : what) out.push_back(static_cast<std::uint8_t>(c));
}

}  // namespace

SessionServer::SessionServer(GraphSession& session) : session_(session) {
  DECK_CHECK_MSG(!session.coordinated(),
                 "the serve protocol carries per-update ingest — serve a local session");
}

bool SessionServer::handle(std::span<const std::uint8_t> request,
                           std::vector<std::uint8_t>& response) {
  response.clear();
  net::WireReader r(request);

  // The decoder refuses with Error frames, never exceptions: one client's
  // garbage must not end the serving loop. WireReader over-reads surface as
  // NetError — caught here and mapped to kMalformedFrame.
  try {
    const auto type = static_cast<ServeMsg>(r.u32());
    switch (type) {
      case ServeMsg::kHello: {
        const std::uint32_t version = r.u32();
        if (r.remaining() != 0) {
          put_error(response, ServeErrorCode::kMalformedFrame, "Hello carries trailing bytes");
          return true;
        }
        if (version != kServeProtocolVersion) {
          put_error(response, ServeErrorCode::kBadVersion,
                    "client speaks protocol version " + std::to_string(version) +
                        ", server speaks " + std::to_string(kServeProtocolVersion));
          return true;
        }
        const std::lock_guard<std::mutex> lock(mu_);
        net::put_u32(response, static_cast<std::uint32_t>(ServeMsg::kHelloOk));
        net::put_u32(response, kServeProtocolVersion);
        net::put_u32(response, static_cast<std::uint32_t>(session_.num_vertices()));
        net::put_u32(response, static_cast<std::uint32_t>(session_.k()));
        return true;
      }

      case ServeMsg::kUpdate: {
        const std::uint32_t count = r.u32();
        if (r.remaining() != static_cast<std::size_t>(count) * 12) {
          put_error(response, ServeErrorCode::kMalformedFrame,
                    "Update announces " + std::to_string(count) + " update(s) but carries " +
                        std::to_string(r.remaining()) + " body byte(s)");
          return true;
        }
        const std::lock_guard<std::mutex> lock(mu_);
        std::uint32_t applied = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
          StreamUpdate u;
          u.u = static_cast<VertexId>(r.u32());
          u.v = static_cast<VertexId>(r.u32());
          u.insert = r.u32() != 0;
          // Stream validation throws before anything reaches the gutters,
          // so a refused update leaves the session exactly as it was —
          // but updates [0, i) of this batch are already in.
          try {
            session_.apply(u);
          } catch (const std::logic_error& e) {
            put_error(response, ServeErrorCode::kBadUpdate,
                      "update " + std::to_string(i) + " of " + std::to_string(count) +
                          " rejected (" + std::to_string(applied) + " applied): " + e.what());
            return true;
          }
          ++applied;
        }
        if (obs::enabled()) ServerMetrics::get().updates.add(applied);
        net::put_u32(response, static_cast<std::uint32_t>(ServeMsg::kUpdateOk));
        net::put_u32(response, applied);
        return true;
      }

      case ServeMsg::kQuery: {
        const std::uint32_t k_wire = r.u32();
        if (r.remaining() != 0) {
          put_error(response, ServeErrorCode::kMalformedFrame, "Query carries trailing bytes");
          return true;
        }
        const std::lock_guard<std::mutex> lock(mu_);
        const int k = k_wire == 0 ? session_.k() : static_cast<int>(k_wire);
        // Bound k before a bank is sized for it: no vertex can have more
        // than n-1 edge-disjoint paths to another, so a larger k is a
        // client error, not a certificate request.
        if (k < 1 || k > session_.num_vertices()) {
          put_error(response, ServeErrorCode::kBadQuery,
                    "k=" + std::to_string(k) + " out of range for an n=" +
                        std::to_string(session_.num_vertices()) + " session");
          return true;
        }
        SparsifyResult result;
        try {
          result = session_.query(k);
        } catch (const std::logic_error& e) {
          put_error(response, ServeErrorCode::kBadQuery,
                    "query k=" + std::to_string(k) + " failed: " + e.what());
          return true;
        }
        if (obs::enabled()) ServerMetrics::get().queries.inc();
        net::put_u32(response, static_cast<std::uint32_t>(ServeMsg::kCertificate));
        net::put_u32(response, static_cast<std::uint32_t>(k));
        net::put_u32(response, static_cast<std::uint32_t>(result.attempts));
        net::put_u32(response, static_cast<std::uint32_t>(result.copies_used));
        net::put_u32(response, static_cast<std::uint32_t>(result.columns_used));
        net::put_u32(response, static_cast<std::uint32_t>(result.rounds_slack_used));
        net::put_u32(response, static_cast<std::uint32_t>(result.certificate.num_edges()));
        for (const Edge& e : result.certificate.edges()) {
          net::put_u32(response, static_cast<std::uint32_t>(e.u));
          net::put_u32(response, static_cast<std::uint32_t>(e.v));
        }
        return true;
      }

      case ServeMsg::kStats: {
        if (r.remaining() != 0) {
          put_error(response, ServeErrorCode::kMalformedFrame, "Stats carries trailing bytes");
          return true;
        }
        const std::lock_guard<std::mutex> lock(mu_);
        const SessionStats s = session_.stats();
        net::put_u32(response, static_cast<std::uint32_t>(ServeMsg::kStatsOk));
        net::put_u64(response, s.updates);
        net::put_u64(response, s.inserts);
        net::put_u64(response, s.deletes);
        net::put_u64(response, s.queries);
        net::put_u64(response, s.bank_reuses);
        net::put_u64(response, s.bank_replays);
        net::put_u64(response, static_cast<std::uint64_t>(session_.pending_updates()));
        return true;
      }

      case ServeMsg::kBye: {
        if (r.remaining() != 0) {
          put_error(response, ServeErrorCode::kMalformedFrame, "Bye carries trailing bytes");
          return true;
        }
        net::put_u32(response, static_cast<std::uint32_t>(ServeMsg::kByeOk));
        return false;
      }

      default:
        put_error(response, ServeErrorCode::kUnknownType,
                  "unrecognized request type " +
                      std::to_string(static_cast<std::uint32_t>(type)));
        return true;
    }
  } catch (const NetError& e) {
    put_error(response, ServeErrorCode::kMalformedFrame, e.what());
    return true;
  }
}

void SessionServer::serve(Transport& client) {
  obs::Span span("serve.client");
  std::uint64_t frames = 0;
  bool more = true;
  while (more) {
    std::optional<std::vector<std::uint8_t>> request = client.recv();
    if (!request) break;  // orderly disconnect without Bye — client is gone
    const std::uint64_t start = obs::enabled() ? obs::now_ns() : 0;
    ++frames;

    std::vector<std::uint8_t> response;
    more = handle(std::span<const std::uint8_t>(request->data(), request->size()), response);

    const bool is_error =
        response.size() >= 4 &&
        static_cast<ServeMsg>(response[0] | (response[1] << 8) | (response[2] << 16) |
                              (static_cast<std::uint32_t>(response[3]) << 24)) == ServeMsg::kError;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.frames;
      if (is_error) ++stats_.errors;
    }
    if (obs::enabled()) {
      ServerMetrics& m = ServerMetrics::get();
      m.frames.inc();
      if (is_error) m.errors.inc();
      m.frame_ns.observe(obs::now_ns() - start);
    }
    client.send(response);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.clients;
  }
  if (obs::enabled()) ServerMetrics::get().clients.inc();
  span.arg("frames", frames);
}

void SessionServer::serve_all(const std::vector<Transport*>& clients) {
  DECK_CHECK(!clients.empty());
  for (Transport* t : clients) DECK_CHECK(t != nullptr);

  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (Transport* t : clients) {
    threads.emplace_back([this, t, &err_mu, &first_error] {
      try {
        serve(*t);
      } catch (const NetError&) {
        // This client vanished mid-conversation; the session and the other
        // clients keep serving.
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

ServerStats SessionServer::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace deck
