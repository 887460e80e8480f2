// The reliable-delivery session layer of the live transport (protocol v2),
// extracted as an I/O-free, nonblocking state machine. One
// NodeSession is the per-node protocol brain: sequence assignment,
// bounded retransmit queues with exponential backoff + jitter, duplicate
// suppression, cumulative + selective ACKs, session epochs, chaos
// injection at the frame boundary, and surfaced-loss accounting.
//
// It performs no I/O and owns no sockets or timers: everything it needs
// from its host goes through the SessionHost interface, and the
// host learns when to call back in via next_due(). The epoll reactor
// (rt/reactor, worker shards) hosts it: the protocol is this file, the
// reactor is only its scheduler.
//
// Threading contract: every method must be called from the node's single
// execution context (its reactor worker). bump_epoch() is the one
// exception — the driver calls it during revive(), while the node's context
// is provably not running.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "ckpt/session_state.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "metrics/counters.hpp"
#include "rt/backend.hpp"
#include "rt/chaos.hpp"
#include "rt/clock.hpp"
#include "rt/conn.hpp"
#include "transport/endpoint.hpp"
#include "transport/node.hpp"
#include "wire/codec.hpp"

namespace hpd::rt {

/// What a NodeSession needs from the backend hosting it. All calls arrive
/// on the node's execution context, re-entrantly from NodeSession methods.
class SessionHost {
 public:
  virtual ~SessionHost() = default;

  /// Queue already-framed bytes toward dst, dialling lazily. May drop the
  /// bytes entirely (peer down / cooling down / dial failed) — the
  /// retransmit path recovers.
  virtual void session_write(ProcessId dst,
                             const std::vector<std::uint8_t>& framed) = 0;

  /// Tear down the outgoing connection to dst *without* a cooldown: the
  /// peer is healthy, only the socket must die (chaos reset, or an epoch
  /// change that makes the old stream meaningless).
  virtual void session_reset_conn(ProcessId dst) = 0;

  /// The peer showed signs of life: expire any re-dial cooldown.
  virtual void session_peer_alive(ProcessId peer) = 0;
};

class NodeSession final : public PayloadSink {
 public:
  NodeSession() = default;

  NodeSession(const NodeSession&) = delete;
  NodeSession& operator=(const NodeSession&) = delete;

  /// Wire the session to its node and host. `link_ok` may be null; if
  /// non-null it must outlive the session (the backend owns it).
  void init(ProcessId self, std::size_t cluster, const LiveConfig* cfg,
            const ScaledClock* clock, SessionHost* host, transport::Node* node,
            MetricsRegistry* metrics,
            const std::function<bool(ProcessId, ProcessId)>* link_ok);

  ProcessId self() const { return self_; }

  // ---- Epochs ---------------------------------------------------------------
  std::uint64_t epoch() const { return epoch_; }
  /// New incarnation (revive): every live peer will reject DATA addressed
  /// to the previous life. Driver-side, only while this node is stopped.
  void bump_epoch() { epoch_ += 1; }
  /// Epoch continuity across a real process restart: adopt the larger of
  /// the current and the checkpointed incarnation. Epochs only move
  /// forward — a stale checkpoint can never demote this life. Same calling
  /// contract as bump_epoch().
  void adopt_epoch(std::uint64_t epoch) { epoch_ = std::max(epoch_, epoch); }

  // ---- Checkpoint surface ---------------------------------------------------
  /// Export the durable reliable-delivery state into the backend-neutral
  /// ckpt image (see ckpt::SessionState for what is deliberately absent).
  /// Same calling contract as bump_epoch(): driver-side, only while this
  /// node's execution context is not running.
  ckpt::SessionState export_state() const;
  /// Rebuild from an exported image: per-peer send/receive windows and the
  /// retransmit queue are restored with every unacked message immediately
  /// due (deadlines do not survive a restart), and the epoch is adopted
  /// via adopt_epoch(). Same calling contract as export_state().
  void import_state(const ckpt::SessionState& state);

  // ---- Send path ------------------------------------------------------------
  /// Accept one application message (the body of Endpoint::send once the
  /// backend has checked the node is alive): accounting, self-loopback,
  /// sequence assignment, first transmission, retransmit-queue entry.
  void send(transport::Message msg);

  // ---- Receive path ---------------------------------------------------------
  /// Frame dispatch (PayloadSink): HELLO handshake, DATA delivery with
  /// dup/epoch filtering, ACK release. Throws wire::DecodeError on
  /// malformed payloads — Conn::read_once maps it to kProtocolError.
  void on_payload(Conn& conn, const std::vector<std::uint8_t>& payload) override;

  /// Record that `peer` is alive with incarnation `epoch`: expires the
  /// re-dial cooldown; an epoch raise purges (surfaces) queued messages
  /// addressed to the dead incarnation and resets the outgoing connection.
  void observe_peer(ProcessId peer, std::uint64_t epoch);

  // ---- Periodic service -----------------------------------------------------
  /// Deferred on_peer_unreachable upcalls, matured chaos-delayed frames,
  /// retransmit scan. Call once per loop turn, or when next_due() arrives.
  void service(std::chrono::steady_clock::time_point now);

  /// Earliest instant service() must run again: the next retransmit /
  /// delayed-frame deadline, or time_point::min() while a surfaced loss
  /// still owes its deferred on_peer_unreachable upcall.
  /// time_point::max() when idle. Recomputed by service(); only ever moved
  /// *earlier* in between.
  std::chrono::steady_clock::time_point next_due() const {
    if (!unreachable_pending_.empty()) {
      return std::chrono::steady_clock::time_point::min();
    }
    return reliability_due_;
  }

  /// Send coalesced ACKs owed for this turn's deliveries. Call at the end
  /// of every loop turn that may have delivered DATA.
  void flush_acks();

  /// True if this turn produced deliveries/losses whose ACKs/deadlines the
  /// backend still has to act on (reactor: re-arm the service timer).
  bool has_pending_acks() const { return !ack_pending_.empty(); }

  // ---- Shutdown -------------------------------------------------------------
  /// Account every still-unacknowledged message as a surfaced loss and
  /// clear all session state. The backend drops sockets/timers itself.
  void shutdown();

  // ---- Accounting -----------------------------------------------------------
  TransportCounters& counters() { return tc_; }
  const TransportCounters& counters() const { return tc_; }
  std::vector<ChaosEvent>& chaos_log() { return chaos_log_; }
  const std::vector<ChaosEvent>& chaos_log() const { return chaos_log_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::vector<std::uint8_t> body;  ///< encoded DATA payload (unframed)
    Clock::time_point next_retx;
    Clock::duration backoff{};
    int attempts = 0;             ///< transmissions performed so far
    std::uint64_t dst_epoch = 0;  ///< destination incarnation targeted
  };
  struct PeerSend {
    SeqNum next_seq = 1;
    std::map<SeqNum, Pending> unacked;
  };
  /// Receive window for one sender: `epoch` is the sender incarnation the
  /// sequence space belongs to; everything <= cum plus the `above` set has
  /// been delivered.
  struct PeerRecv {
    std::uint64_t epoch = 0;
    SeqNum cum = 0;
    std::set<SeqNum> above;
  };
  struct DelayedFrame {
    Clock::time_point due;
    ProcessId dst = kNoProcess;
    std::vector<std::uint8_t> framed;
  };

  /// One (possibly chaos-perturbed) transmission of an encoded DATA body.
  void transmit(ProcessId dst, SeqNum seq, int attempt,
                const std::vector<std::uint8_t>& body);
  void handle_data(wire::Decoder& d, const std::vector<std::uint8_t>& payload);
  void handle_ack(wire::Decoder& d);
  void send_ack(ProcessId peer);
  Clock::duration jittered(Clock::duration d);
  std::uint64_t epoch_of(ProcessId peer) const;

  ProcessId self_ = kNoProcess;
  std::size_t cluster_ = 0;
  const LiveConfig* cfg_ = nullptr;
  const ScaledClock* clock_ = nullptr;
  SessionHost* host_ = nullptr;
  transport::Node* node_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  const std::function<bool(ProcessId, ProcessId)>* link_ok_ = nullptr;

  std::uint64_t epoch_ = 1;
  // Sparse per-peer state: a node only ever talks to its tree neighbours
  // (plus reattachment candidates), so at reactor scale (thousands of
  // nodes) dense n-sized vectors per node would be O(n²) memory for
  // nothing. Keyed maps iterate in ascending peer order, which keeps
  // upcall/scan order identical to the old dense-vector code.
  std::map<ProcessId, PeerSend> peer_send_;
  std::map<ProcessId, PeerRecv> peer_recv_;
  /// Last observed incarnation of each peer (absent == 1, monotone).
  std::map<ProcessId, std::uint64_t> peer_epoch_;

  std::vector<DelayedFrame> delayed_;
  /// Peers owed an ACK after this loop turn's deliveries (coalesced).
  std::set<ProcessId> ack_pending_;
  /// Peers with freshly surfaced losses; on_peer_unreachable runs at the
  /// top of the next service() turn, outside the scans and dispatches that
  /// discovered the losses.
  std::set<ProcessId> unreachable_pending_;
  Clock::time_point reliability_due_ = Clock::time_point::max();
  /// Retransmit jitter only — never consulted for chaos decisions.
  Rng rng_;

  std::vector<ChaosEvent> chaos_log_;
  // tc_.msgs_delivered doubles as the per-node delivery id source.
  TransportCounters tc_;
};

}  // namespace hpd::rt
