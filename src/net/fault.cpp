#include "net/fault.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace deck {

namespace {

struct FaultMetrics {
  obs::Counter& kills = obs::Registry::global().counter("net.fault.kills");
  obs::Counter& drops = obs::Registry::global().counter("net.fault.drops");
  obs::Counter& delays = obs::Registry::global().counter("net.fault.delays");

  static FaultMetrics& get() {
    static FaultMetrics m;
    return m;
  }
};

}  // namespace

FaultInjectingTransport::FaultInjectingTransport(std::unique_ptr<Transport> inner,
                                                 FaultScript script)
    : inner_(std::move(inner)), script_(std::move(script)) {}

FaultInjectingTransport::~FaultInjectingTransport() { FaultInjectingTransport::close(); }

void FaultInjectingTransport::send(std::span<const std::uint8_t> message) {
  if (killed_) throw NetError("net: send on a fault-killed transport");
  inner_->send(message);
}

std::optional<std::vector<std::uint8_t>> FaultInjectingTransport::recv() {
  return recv_impl(-1);
}

std::optional<std::vector<std::uint8_t>> FaultInjectingTransport::recv_for(int timeout_ms) {
  return recv_impl(timeout_ms);
}

std::optional<std::vector<std::uint8_t>> FaultInjectingTransport::recv_impl(int timeout_ms) {
  if (killed_) throw NetError("net: recv on a fault-killed transport");
  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame = inner_->recv_for(timeout_ms);
    if (!frame) return std::nullopt;  // orderly close passes through
    const FaultRule* rule = rule_at(frames_seen_++);
    if (rule == nullptr) return frame;
    switch (rule->kind) {
      case FaultRule::Kind::kKill:
        killed_ = true;
        inner_->close();
        if (obs::enabled()) FaultMetrics::get().kills.inc();
        throw NetError("net: fault injection killed the transport at frame " +
                       std::to_string(frames_seen_ - 1));
      case FaultRule::Kind::kDrop:
        // Swallow this frame and wait for the next; the sender believes it
        // was delivered, which is exactly the stall a lossy peer produces.
        if (obs::enabled()) FaultMetrics::get().drops.inc();
        continue;
      case FaultRule::Kind::kDelay:
        if (obs::enabled()) FaultMetrics::get().delays.inc();
        std::this_thread::sleep_for(std::chrono::milliseconds(rule->delay_ms));
        return frame;
    }
  }
}

void FaultInjectingTransport::close() {
  if (inner_ != nullptr) inner_->close();
}

const FaultRule* FaultInjectingTransport::rule_at(std::size_t index) const {
  for (const FaultRule& r : script_)
    if (r.frame_index == index) return &r;
  return nullptr;
}

}  // namespace deck
