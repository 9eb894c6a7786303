#include "serve/protocol.hpp"

#include <utility>

#include "net/wire.hpp"
#include "support/check.hpp"

namespace deck {

namespace {

/// Client-side decode fault: the server's response frame is malformed. The
/// server never half-speaks the protocol, so this means a bug or a hostile
/// peer — surfaced with the same typed error as a server-side refusal.
[[noreturn]] void malformed(const std::string& what) {
  throw ServeError(ServeErrorCode::kMalformedFrame, what);
}

}  // namespace

std::vector<std::uint8_t> ServeClient::request(ServeMsg type, const std::vector<std::uint8_t>& frame,
                                               ServeMsg expect) {
  server_.send(frame);
  std::vector<std::uint8_t> reply = net::recv_expected(server_, "serve response");
  net::WireReader r(std::span<const std::uint8_t>(reply.data(), reply.size()));
  const auto head = static_cast<ServeMsg>(r.u32());
  if (head == ServeMsg::kError) {
    const auto code = static_cast<ServeErrorCode>(r.u32());
    const std::span<const std::uint8_t> text = r.rest();
    throw ServeError(code, std::string(text.begin(), text.end()));
  }
  if (head != expect)
    malformed("response to request type " + std::to_string(static_cast<std::uint32_t>(type)) +
              " has unexpected type " + std::to_string(static_cast<std::uint32_t>(head)));
  // Hand the body (sans head) back to the caller's decoder.
  reply.erase(reply.begin(), reply.begin() + 4);
  return reply;
}

void ServeClient::hello() {
  std::vector<std::uint8_t> frame;
  net::put_u32(frame, static_cast<std::uint32_t>(ServeMsg::kHello));
  net::put_u32(frame, kServeProtocolVersion);
  const std::vector<std::uint8_t> body = request(ServeMsg::kHello, frame, ServeMsg::kHelloOk);
  net::WireReader r(std::span<const std::uint8_t>(body.data(), body.size()));
  const std::uint32_t version = r.u32();
  if (version != kServeProtocolVersion)
    malformed("server speaks protocol version " + std::to_string(version) + ", client speaks " +
              std::to_string(kServeProtocolVersion));
  n_ = static_cast<int>(r.u32());
  k_ = static_cast<int>(r.u32());
  if (r.remaining() != 0) malformed("HelloOk carries trailing bytes");
}

void ServeClient::insert(VertexId u, VertexId v) {
  const StreamUpdate up{u, v, /*insert=*/true};
  update(std::span<const StreamUpdate>(&up, 1));
}

void ServeClient::erase(VertexId u, VertexId v) {
  const StreamUpdate up{u, v, /*insert=*/false};
  update(std::span<const StreamUpdate>(&up, 1));
}

std::uint32_t ServeClient::update(std::span<const StreamUpdate> updates) {
  std::vector<std::uint8_t> frame;
  frame.reserve(8 + updates.size() * 12);
  net::put_u32(frame, static_cast<std::uint32_t>(ServeMsg::kUpdate));
  net::put_u32(frame, static_cast<std::uint32_t>(updates.size()));
  for (const StreamUpdate& u : updates) {
    net::put_u32(frame, static_cast<std::uint32_t>(u.u));
    net::put_u32(frame, static_cast<std::uint32_t>(u.v));
    net::put_u32(frame, u.insert ? 1 : 0);
  }
  const std::vector<std::uint8_t> body = request(ServeMsg::kUpdate, frame, ServeMsg::kUpdateOk);
  net::WireReader r(std::span<const std::uint8_t>(body.data(), body.size()));
  const std::uint32_t applied = r.u32();
  if (r.remaining() != 0) malformed("UpdateOk carries trailing bytes");
  return applied;
}

ServeCertificate ServeClient::query(int k) {
  DECK_CHECK(k >= 0);
  std::vector<std::uint8_t> frame;
  net::put_u32(frame, static_cast<std::uint32_t>(ServeMsg::kQuery));
  net::put_u32(frame, static_cast<std::uint32_t>(k));
  const std::vector<std::uint8_t> body = request(ServeMsg::kQuery, frame, ServeMsg::kCertificate);
  net::WireReader r(std::span<const std::uint8_t>(body.data(), body.size()));
  ServeCertificate cert;
  cert.k = static_cast<int>(r.u32());
  cert.attempts = static_cast<int>(r.u32());
  cert.copies_used = static_cast<int>(r.u32());
  cert.columns_used = static_cast<int>(r.u32());
  cert.rounds_slack_used = static_cast<int>(r.u32());
  const std::uint32_t edges = r.u32();
  // Each edge is two u32 words: a count the frame cannot hold is forged.
  if (edges > r.remaining() / 8) malformed("Certificate edge count longer than frame");
  cert.edges.reserve(edges);
  for (std::uint32_t i = 0; i < edges; ++i) {
    const auto u = static_cast<VertexId>(r.u32());
    const auto v = static_cast<VertexId>(r.u32());
    cert.edges.emplace_back(u, v);
  }
  if (r.remaining() != 0) malformed("Certificate carries trailing bytes");
  return cert;
}

ServeStats ServeClient::stats() {
  std::vector<std::uint8_t> frame;
  net::put_u32(frame, static_cast<std::uint32_t>(ServeMsg::kStats));
  const std::vector<std::uint8_t> body = request(ServeMsg::kStats, frame, ServeMsg::kStatsOk);
  net::WireReader r(std::span<const std::uint8_t>(body.data(), body.size()));
  ServeStats s;
  s.updates = r.u64();
  s.inserts = r.u64();
  s.deletes = r.u64();
  s.queries = r.u64();
  s.bank_reuses = r.u64();
  s.bank_replays = r.u64();
  s.pending_updates = r.u64();
  if (r.remaining() != 0) malformed("StatsOk carries trailing bytes");
  return s;
}

void ServeClient::bye() {
  std::vector<std::uint8_t> frame;
  net::put_u32(frame, static_cast<std::uint32_t>(ServeMsg::kBye));
  const std::vector<std::uint8_t> body = request(ServeMsg::kBye, frame, ServeMsg::kByeOk);
  if (!body.empty()) malformed("ByeOk carries trailing bytes");
}

}  // namespace deck
