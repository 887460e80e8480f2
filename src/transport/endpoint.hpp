// The transport abstraction: everything a protocol node may ask of the
// substrate that carries its messages and timers.
//
// Two backends implement it:
//   * sim::Network       — deterministic discrete-event simulation; send
//                          delays are sampled from a DelayModel, time is
//                          virtual, everything runs on one thread.
//   * rt::ReactorTransport — epoll worker threads over loopback TCP /
//                          Unix-domain sockets; time is scaled wall clock,
//                          messages travel as checksummed frames
//                          (wire/frame).
//
// runner::ProcessRuntime (the full protocol stack: app layer, hierarchical
// engine, heartbeats, reattachment) is written against this interface only,
// so the exact same protocol code runs in both worlds.
//
// Threading contract: all calls for node `id` must come from the context
// that runs `id`'s callbacks — the scheduler thread in the simulator, the
// node's reactor worker in the live runtime. `now()` is safe from
// any thread.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "transport/message.hpp"

namespace hpd::transport {

using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Current time, in abstract protocol time units (virtual time in the
  /// simulator, scaled wall clock in the live runtime).
  virtual SimTime now() const = 0;

  /// Send a one-hop message. Best effort: drops (with a counter) if the
  /// source has crashed, the link does not exist, or — live only — the
  /// destination is unreachable after connect retries.
  virtual void send(Message msg) = 0;

  /// One-shot or periodic timer for a node. Fires Node::on_timer(tag).
  virtual TimerId set_timer(ProcessId id, int tag, SimTime delay,
                            bool periodic = false, SimTime period = 0.0) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Crash surface: liveness of a node as the transport sees it.
  virtual bool alive(ProcessId id) const = 0;
};

}  // namespace hpd::transport
