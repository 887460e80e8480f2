// The live runtime: a small pool of worker threads, each running one epoll
// loop that multiplexes the I/O, timers and protocol state machines of
// hundreds of nodes. A live run needs `reactor_workers` threads in total,
// whatever the node count, so live detector runs scale to thousands of
// nodes.
//
// Sharding: node `i` belongs to worker `i % W`, permanently. Everything a
// node owns — sockets, session, timers — is touched only by its worker
// thread, so the per-node single-threaded execution contract of
// transport::Node holds by construction and no protocol code grows locks.
//
// Hosted state machines:
//   * rt::Conn for frame I/O — in edge-triggered mode: reads loop to
//     EAGAIN, writes resume from the partial-write offset on the next
//     writable edge. Outgoing dials are nonblocking (rt::connect_start);
//     a pending connect resolves on its first writable edge.
//   * rt::NodeSession for reliable delivery, epochs and chaos. Its
//     retransmit/delay deadlines and the per-node Endpoint timers are
//     multiplexed onto one hierarchical TimerWheel per worker (one wheel
//     entry per node: the min of all that node's deadlines).
//
// Control plane: crash()/revive()/run_on_node_sync() enqueue closures on
// the owning worker (woken through a pipe) and the driver blocks on a
// promise until the worker ran them, which gives the driver a
// happens-before edge over everything the worker did for that node.
//
// Nothing in this directory may block: no sleeps, no blocking socket
// calls, no poll/select (enforced by the `reactor-nonblocking` lint rule).
// The one epoll_wait per worker is the only place a worker parks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "metrics/counters.hpp"
#include "rt/backend.hpp"
#include "rt/chaos.hpp"
#include "rt/clock.hpp"
#include "rt/conn.hpp"
#include "rt/reactor/timer_wheel.hpp"
#include "rt/session.hpp"
#include "rt/socket.hpp"
#include "transport/endpoint.hpp"
#include "transport/node.hpp"

namespace hpd::rt {

class ReactorTransport;

/// One node's Endpoint view of the reactor. All calls except now()/alive()
/// must come from the node's worker thread (i.e. from inside the node's
/// own callbacks).
class ReactorEndpoint final : public transport::Endpoint {
 public:
  SimTime now() const override;
  void send(transport::Message msg) override;
  transport::TimerId set_timer(ProcessId id, int tag, SimTime delay,
                               bool periodic = false,
                               SimTime period = 0.0) override;
  void cancel_timer(transport::TimerId id) override;
  bool alive(ProcessId id) const override;

 private:
  friend class ReactorTransport;
  ReactorEndpoint() = default;
  ReactorTransport* transport_ = nullptr;
  ProcessId self_ = kNoProcess;
};

/// Driver-facing surface of the live runtime. Threading contract: node
/// `i`'s callbacks run on exactly one thread at a time (its worker) and all
/// Endpoint calls for `i` come from `i`'s own callback context;
/// crash()/revive()/run_on_node_sync() are driver-thread entry points and
/// must never be called from a node callback.
class ReactorTransport {
 public:
  explicit ReactorTransport(std::size_t n, LiveConfig cfg = {});
  ~ReactorTransport();

  ReactorTransport(const ReactorTransport&) = delete;
  ReactorTransport& operator=(const ReactorTransport&) = delete;

  /// Restrict which ordered pairs may exchange one-hop messages (mirrors
  /// sim::Network's link filter). Must be set before start().
  void set_link_filter(std::function<bool(ProcessId, ProcessId)> link_ok);

  /// Attach the protocol node for `id`. `metrics` (nullable) receives
  /// on_send accounting — give each node its own registry; the owning
  /// worker writes to it. `on_revive` runs on the node's worker after
  /// revive().
  void register_node(ProcessId id, transport::Node& node,
                     MetricsRegistry* metrics = nullptr,
                     std::function<void()> on_revive = nullptr);

  /// The Endpoint to hand to node `id`'s protocol stack. Valid from
  /// construction (before start()).
  transport::Endpoint& endpoint(ProcessId id);

  void start();
  void stop();

  /// Crash-stop `id` on its worker: on_crash runs there, every socket and
  /// timer of the node is dropped, queued posts for it are abandoned.
  /// Blocks until the worker has executed the crash.
  void crash(ProcessId id);

  /// Bring a crashed node back on its worker: re-bind the same address,
  /// bump the session epoch, run the registered on_revive callback, then
  /// tell every other node about the new incarnation. Blocks until the
  /// node is live again (the observe broadcast is asynchronous).
  void revive(ProcessId id);

  bool alive(ProcessId id) const;

  // ---- Session-epoch continuity (durability) -------------------------------
  /// Current session incarnation of node `id`. Driver-thread only. Safe
  /// even while the node runs: the epoch is only ever written driver-side
  /// while the node is provably stopped (revive / adopt), so the read
  /// races nothing.
  std::uint64_t session_epoch(ProcessId id) const;
  /// Epoch continuity across a real process restart: forward `id`'s
  /// session epoch to at least `epoch` (NodeSession::adopt_epoch — epochs
  /// only move forward). Must be called before start() or while `id` is
  /// crashed.
  void adopt_session_epoch(ProcessId id, std::uint64_t epoch);

  /// Scaled wall clock, SimTime units since start(). Any thread.
  SimTime now() const;
  /// Block the calling (driver) thread until now() >= t.
  void sleep_until(SimTime t) const;

  /// Run `fn` in node `id`'s callback context and wait for it. False when
  /// the node is dead (or dies first) or the reactor is stopping.
  bool run_on_node_sync(ProcessId id, std::function<void()> fn);

  /// Measured fault timeline (SimTime), for the offline oracle.
  std::vector<LifeEvent> crash_events() const;
  std::vector<LifeEvent> revive_events() const;

  // ---- Diagnostics: stable only once stop() returned -----------------------
  std::uint64_t delivered_messages() const;
  std::uint64_t dropped_messages() const;
  std::uint64_t frame_errors() const;
  std::uint64_t connections_accepted() const;
  /// Session-layer counters, aggregated over all nodes.
  TransportCounters stats() const;
  /// All injected chaos events, merged across senders in canonical order.
  std::vector<ChaosEvent> chaos_events() const;
  /// Event-loop counters, summed over workers.
  ReactorCounters reactor_stats() const;

 private:
  friend class ReactorEndpoint;
  using Clock = std::chrono::steady_clock;

  struct Worker;
  struct RNode;

  RNode& node_of(ProcessId id);
  const RNode& node_of(ProcessId id) const;
  Worker& worker_of(ProcessId id);

  void worker_main(Worker& w);
  void worker_iteration(Worker& w);
  void worker_shutdown(Worker& w);
  void dispatch_event(Worker& w, int fd, std::uint32_t events);
  void service_node(Worker& w, RNode& nd, Clock::time_point now);
  void fire_due_timers(RNode& nd, Clock::time_point now);
  void wake(Worker& w);
  bool post_op(Worker& w, ProcessId node, std::function<void()> fn);
  bool run_on_worker_sync(Worker& w, ProcessId node, std::function<void()> fn);

  void do_send(RNode& nd, transport::Message msg);
  Conn* outgoing_conn(RNode& nd, ProcessId dst);
  void drop_outgoing(RNode& nd, ProcessId peer, bool cooldown);
  void drop_inbound(Worker& w, RNode& nd, int fd);
  void do_crash(RNode& nd);
  void shutdown_io(RNode& nd);

  transport::TimerId do_set_timer(RNode& nd, int tag, SimTime delay,
                                  bool periodic, SimTime period);
  void do_cancel_timer(RNode& nd, transport::TimerId id);

  void epoll_add(Worker& w, int fd, std::uint32_t events);
  void epoll_del(Worker& w, int fd);

  LiveConfig cfg_;
  std::string socket_dir_;
  bool own_socket_dir_ = false;
  std::function<bool(ProcessId, ProcessId)> link_ok_;
  std::vector<std::unique_ptr<RNode>> nodes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  ScaledClock clock_;
  bool started_ = false;
  bool stopped_ = false;

  mutable Mutex events_mutex_;
  std::vector<LifeEvent> crashes_ HPD_GUARDED_BY(events_mutex_);
  std::vector<LifeEvent> revives_ HPD_GUARDED_BY(events_mutex_);
};

}  // namespace hpd::rt
