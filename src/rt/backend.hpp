// Configuration of the live runtime (rt::ReactorTransport, the epoll
// reactor in rt/reactor) and the measured-fault record it reports back.
// The reactor hosts the same protocol stack as the simulator (rt/session +
// rt/conn behind the transport::Endpoint / transport::Node surface), so
// rt::run_live_experiment feeds its runs to the same offline oracles.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>

#include "common/types.hpp"
#include "rt/chaos.hpp"
#include "rt/socket.hpp"

namespace hpd::rt {

struct LiveConfig {
  /// Reactor worker threads; 0 = auto (min(hardware_concurrency, 8),
  /// never more than the node count).
  int reactor_workers = 0;

  SockAddr::Kind socket_kind = SockAddr::Kind::kUnix;
  /// Real seconds per SimTime unit. 0.02 → one protocol time unit is 20 ms,
  /// comfortably above scheduler jitter even under TSan.
  double time_scale = 0.02;
  /// Bytes read per connection per loop wake (inbound flow-control gate).
  std::size_t read_chunk = std::size_t{64} * 1024;
  /// After a failed connect / broken pipe, skip re-dialing the peer for this
  /// long. Queued DATA is retransmitted once the cooldown lapses; the
  /// cooldown is expired early when the peer is observed alive again
  /// (inbound HELLO/ACK, or the revive() broadcast).
  std::chrono::milliseconds peer_down_cooldown{50};
  /// Directory for unix socket paths; empty → private mkdtemp directory
  /// (removed at shutdown).
  std::string socket_dir;

  // ---- Reliable-delivery session layer (SimTime units) ---------------------
  /// First retransmit fires this long after the original send.
  SimTime retx_initial = 2.0;
  /// Backoff doubles per attempt up to this ceiling.
  SimTime retx_max_backoff = 16.0;
  /// Each backoff is stretched by uniform[0, retx_jitter] to decorrelate
  /// retransmit bursts (timing only — chaos decisions don't see it).
  double retx_jitter = 0.25;
  /// Transmissions per message (including the first) before the loss is
  /// surfaced via Node::on_peer_unreachable.
  int retx_max_attempts = 12;
  /// Per-peer unacked-queue bound; overflow surfaces the oldest entry.
  std::size_t retx_queue_cap = 4096;

  /// Frame-level fault injection (DATA frames only); see rt/chaos.hpp.
  ChaosConfig chaos;

  // ---- Durability ----------------------------------------------------------
  /// When non-empty, the live runner persists the per-node session-epoch
  /// table to a ckpt::CheckpointStore in this directory (after every
  /// revive and at shutdown) and adopts the persisted epochs before
  /// start() — epoch continuity across a real restart of the driving
  /// process. All checkpoint I/O stays on the driver thread; reactor
  /// workers never block on it.
  std::string ckpt_dir;
};

/// An actual (measured) crash or revive instant, in SimTime units.
struct LifeEvent {
  ProcessId node = kNoProcess;
  SimTime time = 0.0;
};

}  // namespace hpd::rt
