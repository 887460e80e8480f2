// Interface every protocol node implements, independent of the transport
// carrying its messages. The deterministic simulator invokes these callbacks
// from the event loop thread; the live runtime invokes them from the node's
// reactor worker (never concurrently with themselves or each other).
#pragma once

#include "transport/message.hpp"

namespace hpd::transport {

class Node {
 public:
  virtual ~Node() = default;

  /// Invoked once when the deployment starts.
  virtual void on_start() {}

  /// A message addressed to this node has been delivered.
  virtual void on_message(const Message& msg) = 0;

  /// A timer set via Endpoint::set_timer fired. `tag` is caller-defined.
  virtual void on_timer(int tag) { (void)tag; }

  /// This node has crashed (crash-stop). Called exactly once, at crash time,
  /// so implementations can drop resources; after this, the transport never
  /// invokes the node again (until an explicit revive).
  virtual void on_crash() {}

  /// The transport has abandoned delivery of one or more messages this node
  /// sent to `peer` (retransmit budget exhausted, or the peer's incarnation
  /// changed under the queued messages). Losses are surfaced, never silent:
  /// implementations should treat the peer like a failed neighbor (e.g.
  /// trigger ft::reattach) or re-issue the request. Only the live transport
  /// calls this — the simulator's losses are planned, not discovered — and
  /// it does so on this node's reactor worker like every other callback.
  virtual void on_peer_unreachable(ProcessId peer) { (void)peer; }
};

}  // namespace hpd::transport
