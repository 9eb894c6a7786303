#pragma once

// SessionServer — the serving loop that exposes one GraphSession to remote
// clients over net::Transport, speaking the serve protocol
// (serve/protocol.hpp). The servectl shape: a long-lived session ingests a
// mixed insert/delete/query workload from any number of concurrent clients.
//
// Concurrency model: one serving thread per client transport (serve_all),
// all mutating/querying the single shared session under one mutex — the
// session itself is single-threaded. Interleaving across clients is
// arbitrary, but sketch linearity makes the live bank depend only on the
// *set* of applied updates, so any query is bit-identical to a fresh
// deck::ingest() of some serial order of the updates applied so far.
//
// Fault discipline: a request the server cannot honor draws an Error frame
// and the connection stays open — one client's malformed frame or invalid
// update never tears down the session or the other clients. Transport
// faults (client vanished mid-conversation) end that client's loop only.

#include <cstdint>
#include <mutex>
#include <vector>

#include "net/transport.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace deck {

/// Per-server accounting across all clients served.
struct ServerStats {
  std::uint64_t clients = 0;  // serve() loops completed
  std::uint64_t frames = 0;   // request frames received
  std::uint64_t errors = 0;   // Error frames sent
};

class SessionServer {
 public:
  /// Serves `session`, which must be a local-mode session (the serve
  /// protocol carries per-update ingest) and outlive the server.
  explicit SessionServer(GraphSession& session);

  /// Serves one client until Bye, orderly disconnect, or a transport
  /// fault (which propagates as NetError). Safe to call from multiple
  /// threads with distinct transports.
  void serve(Transport& client);

  /// Serves every client on its own thread and joins them all. Per-client
  /// transport faults are swallowed (that client is simply gone — the
  /// session and the other clients keep serving); any other exception is
  /// rethrown after all clients finish.
  void serve_all(const std::vector<Transport*>& clients);

  ServerStats stats() const;

 private:
  /// Decodes one request and builds the response frame. Never throws on
  /// bad input — refusals become Error frames. Returns false when the
  /// client said Bye (response is still sent).
  bool handle(std::span<const std::uint8_t> request, std::vector<std::uint8_t>& response);

  GraphSession& session_;
  mutable std::mutex mu_;  // serializes session access and stats_
  ServerStats stats_;
};

}  // namespace deck
