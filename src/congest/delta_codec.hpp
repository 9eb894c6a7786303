#pragma once

// Wire codec for CONGEST boundary messages (since protocol v4).
//
// A boundary message addresses a directed-edge mailbox: slot = 2 * edge +
// dir, the same indexing BspRunner's double-buffered mailboxes use. The
// fixed encoding (36 bytes per packet, protocol v3's only format) remains
// the format of checkpoint/restore frames and of every round frame whose
// delta body would not be smaller.
//
// The delta format exploits the two dominant redundancies of frontier-style
// rounds (BFS flood, upcast, downcast):
//   * most rounds re-ship a small set of slots — the slot id is encoded as
//     a varint gap from the previous packet's slot (packets are sorted by
//     slot), typically one byte;
//   * payloads repeat — either the last payload shipped on the same slot
//     over this link ("repeat-slot") or the previous packet's payload in
//     the same frame ("repeat-previous"), either way one control byte
//     instead of 25 payload bytes.
//
// One DeltaCodec instance per link direction per execution: the encoder and
// decoder at the two ends of a link advance the same per-slot cache in
// frame order, so a reference to "what this link last shipped on slot s" is
// well defined even across the full-frame fallback (state updates are
// format-independent). Failover keeps this sound for free: a reassigned
// range's traffic moves to the survivor's link and is encoded against that
// link's own cache — slots the survivor never saw are simply encoded
// explicitly.
//
// Every malformed byte raises NetError with a distinct message: truncated
// payloads (bounds-checked reads), overlapping slots (zero gap), slots
// outside the graph, repeat markers referencing a slot the link never
// shipped, reserved control bits, and unknown packet kinds.

#include <cstdint>
#include <span>
#include <vector>

#include "congest/engine.hpp"
#include "net/wire.hpp"

namespace deck {

/// One boundary message as framed on the wire: the directed edge it
/// crosses plus the payload — exactly the remote send a BspRunner emits.
using WirePacket = detail::BspRunner::RemoteSend;

/// Encoded size of one fixed-format packet: 3 × u32 + 3 × u64.
inline constexpr std::size_t kFixedPacketBytes = 36;

/// Fixed (v3) packet encoding — still the format of checkpoint Restore
/// replay logs, where a reassigned range must decode without any link
/// cache.
void encode_packet_fixed(std::vector<std::uint8_t>& out, EdgeId e, std::uint8_t dir,
                         const Packet& msg);
WirePacket decode_packet_fixed(net::WireReader& r);

/// Stateful per-link-direction round-frame codec. encode() and decode()
/// must be applied to the link's frames in ship order — both ends advance
/// the same per-slot payload cache regardless of the per-frame format
/// choice.
class DeltaCodec {
 public:
  DeltaCodec() = default;
  explicit DeltaCodec(EdgeId num_edges) { reset(num_edges); }

  /// Rearms for a new execution on a graph of `num_edges` edges: the cache
  /// forgets everything (protocol executions are independent).
  void reset(EdgeId num_edges);

  /// Appends `packets` to `out` in the smaller of the two formats and
  /// returns true when the delta body was chosen (the caller flags the
  /// frame head accordingly). Packets are sorted by slot internally;
  /// callers pass them in routing order.
  bool encode(std::vector<std::uint8_t>& out, std::span<const WirePacket> packets);

  /// Decodes `count` packets in delta or fixed format (the frame head's
  /// flag bit names which). Throws NetError on any malformed byte.
  std::vector<WirePacket> decode(net::WireReader& r, std::uint32_t count, bool delta);

 private:
  std::size_t slots_ = 0;
  std::vector<Packet> last_;  // last payload shipped per slot on this link
  std::vector<char> seen_;    // slot ever shipped on this link
};

}  // namespace deck
