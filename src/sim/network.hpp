// The simulated network: asynchronous point-to-point message delivery with
// randomized (hence non-FIFO) delays, per-node timers, and crash-stop
// failures. All behaviour is deterministic given the Rng seed.
//
// Network is the simulator backend of transport::Endpoint — the interface
// runner::ProcessRuntime is written against — so the same protocol stack
// also runs over the live socket transport (rt::ReactorTransport).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "metrics/counters.hpp"
#include "sim/delay.hpp"
#include "sim/message.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "sim/strategy.hpp"
#include "transport/endpoint.hpp"

namespace hpd::sim {

using TimerId = transport::TimerId;
inline constexpr TimerId kNoTimer = transport::kNoTimer;

class Network final : public transport::Endpoint {
 public:
  /// `link_ok(a, b)` restricts which pairs may exchange messages directly
  /// (one hop); pass nullptr for an unrestricted (complete) network.
  Network(std::size_t n, Scheduler& sched, Rng& rng, DelayModel delay,
          MetricsRegistry& metrics,
          std::function<bool(ProcessId, ProcessId)> link_ok = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  std::size_t size() const { return nodes_.size(); }
  SimTime now() const override { return sched_.now(); }
  Scheduler& scheduler() { return sched_; }
  Rng& rng() { return rng_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Attach the behaviour object for a process. The caller retains ownership
  /// and must keep the node alive for the network's lifetime.
  void register_node(ProcessId id, Node& node);

  /// Invoke on_start() on every registered node (in id order).
  void start();

  /// Crash-stop `id` now: it stops sending, receiving, and firing timers.
  void crash(ProcessId id);

  /// Bring a crashed node back (crash-recovery model). The node's timers
  /// died with it — the owner must re-arm them (see ProcessRuntime::
  /// on_revive). Messages sent to it while dead are gone.
  void revive(ProcessId id);

  bool alive(ProcessId id) const override;
  std::size_t alive_count() const;

  /// Send a one-hop message. Drops silently (with a counter) if the source
  /// has crashed or the link is not allowed; delivery is dropped if the
  /// destination has crashed by arrival time.
  void send(Message msg) override;

  /// Install a scheduling strategy (non-owning; the caller keeps it alive
  /// and must not swap it mid-run). nullptr restores the default behaviour
  /// (one delivery per send, delay sampled from the DelayModel).
  void set_strategy(ScheduleStrategy* strategy) { strategy_ = strategy; }

  /// One-shot or periodic timer for a node. Fires on_timer(tag).
  TimerId set_timer(ProcessId id, int tag, SimTime delay, bool periodic = false,
                    SimTime period = 0.0) override;
  void cancel_timer(TimerId id) override;

  /// Diagnostics.
  std::uint64_t dropped_messages() const { return dropped_; }
  std::uint64_t delivered_messages() const { return delivered_; }
  /// Messages dropped / copies added by the installed strategy (0 without).
  std::uint64_t strategy_dropped() const { return strategy_dropped_; }
  std::uint64_t strategy_duplicated() const { return strategy_duplicated_; }

 private:
  struct TimerRec {
    ProcessId node = kNoProcess;
    int tag = 0;
    SimTime period = 0.0;
    bool periodic = false;
  };

  void deliver(const Message& msg);
  void fire_timer(TimerId id);

  Scheduler& sched_;
  Rng& rng_;
  MetricsRegistry& metrics_;
  DelayModel delay_;
  ScheduleStrategy* strategy_ = nullptr;
  std::function<bool(ProcessId, ProcessId)> link_ok_;
  std::vector<Node*> nodes_;
  std::vector<bool> alive_;
  std::unordered_map<TimerId, TimerRec> timers_;
  TimerId next_timer_ = 1;
  SeqNum next_msg_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t strategy_dropped_ = 0;
  std::uint64_t strategy_duplicated_ = 0;
};

}  // namespace hpd::sim
