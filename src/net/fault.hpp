#pragma once

// Deterministic fault injection for Transport-backed protocols.
//
// FaultInjectingTransport wraps any Transport and fires scripted faults
// keyed to the *receive frame index* — the count of frames the wrapped
// endpoint has pulled off the wire. Because every protocol this repo ships
// (ingest, CONGEST engine) is deterministic given its inputs, a frame index
// names one exact protocol moment: "kill the link right after the 7th frame
// from this worker" reproduces bit-for-bit on every run, machine, and
// sanitizer. That is what lets the failover tests sweep *every* kill point
// of a phase instead of praying a sleep lands somewhere interesting.
//
// Three fault kinds:
//   kKill  — close the wrapped transport and raise NetError, as if the peer
//            died mid-phase. Subsequent sends and recvs fail too.
//   kDrop  — swallow the matched inbound frame. The peer believes it was
//            delivered; the protocol above stalls until a recv deadline
//            (RecvOptions) declares the silence a death.
//   kDelay — sleep delay_ms before delivering the matched frame: exercises
//            timeout/retry paths without changing any protocol outcome.
//
// The wrapper is typically installed on the *coordinator's* side of a
// worker link, where it makes the worker look dead/slow/lossy without
// touching worker code.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/transport.hpp"

namespace deck {

/// One scripted fault, armed at a 0-based inbound frame index.
struct FaultRule {
  enum class Kind : std::uint8_t {
    kKill,   // close + NetError at the matched recv
    kDrop,   // discard the matched frame, keep receiving
    kDelay,  // sleep delay_ms, then deliver the matched frame
  };

  std::size_t frame_index = 0;
  Kind kind = Kind::kKill;
  int delay_ms = 0;  // only kDelay reads this
};

/// A scripted fault schedule: rules matched by frame_index as frames arrive.
using FaultScript = std::vector<FaultRule>;

/// Transport decorator applying a FaultScript to the inbound frame stream.
/// Owns the wrapped transport. Sends pass through untouched (until a kKill
/// closes the link); recv/recv_for consult the script at every arriving
/// frame. Not thread-safe beyond the wrapped transport's own guarantees —
/// exactly one receiver, like every Transport in this repo.
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultScript script);
  ~FaultInjectingTransport() override;

  void send(std::span<const std::uint8_t> message) override;
  std::optional<std::vector<std::uint8_t>> recv() override;
  std::optional<std::vector<std::uint8_t>> recv_for(int timeout_ms) override;
  void close() override;

  /// Frames received from the wrapped transport so far (dropped ones
  /// included) — the clock fault rules are keyed to.
  std::size_t frames_seen() const { return frames_seen_; }

 private:
  std::optional<std::vector<std::uint8_t>> recv_impl(int timeout_ms);
  const FaultRule* rule_at(std::size_t index) const;

  std::unique_ptr<Transport> inner_;
  FaultScript script_;
  std::size_t frames_seen_ = 0;
  bool killed_ = false;
};

}  // namespace deck
