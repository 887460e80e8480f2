// Drive one experiment over the live transport: the same ExperimentConfig
// the simulator consumes, executed by the epoll reactor over real sockets.
//
// Differences from runner::run_experiment, by construction of the medium:
//   * wire_encoding is forced on — bytes are the only thing a socket carries;
//   * the delay model is ignored and a schedule strategy is rejected — the
//     kernel scheduler *is* the adversary here;
//   * failures / recoveries give planned times; the measured instants (what
//     the offline oracle must be fed) come back in actual_crashes /
//     actual_recoveries;
//   * metrics, occurrence records and global counts are collected per node
//     (each node's worker owns its storage) and merged after the workers
//     stop.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "metrics/counters.hpp"
#include "rt/backend.hpp"
#include "rt/chaos.hpp"
#include "runner/experiment.hpp"

namespace hpd::rt {

struct LiveResult {
  runner::ExperimentResult result;
  /// True when a stop request (see run_live_experiment) cut the run short:
  /// remaining planned faults were skipped and the workload truncated, so
  /// the offline oracles are not expected to hold. The drain and the
  /// final checkpoint flush still happened.
  bool interrupted = false;
  /// Measured fault instants in SimTime units (worker-thread timestamps).
  std::vector<LifeEvent> actual_crashes;
  std::vector<LifeEvent> actual_recoveries;
  // Transport diagnostics.
  std::uint64_t delivered_messages = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t connections_accepted = 0;
  /// Session-layer accounting (also mirrored into result.metrics.transport()
  /// so it reaches report_json / --json output). The no-silent-loss
  /// invariant: transport.msgs_delivered + transport.surfaced_losses >=
  /// transport.reliable_sent, with equality-of-delivery (delivered == sent,
  /// surfaced == 0) on failure-free runs that drain cleanly.
  TransportCounters transport;
  /// Injected chaos events in canonical order (empty without a ChaosConfig).
  std::vector<ChaosEvent> chaos_events;
  /// Event-loop counters; also mirrored into result.metrics.reactor() for
  /// --json output.
  ReactorCounters reactor;
};

/// Run the experiment over an rt::ReactorTransport configured by `live`.
/// Blocks the calling thread for roughly (horizon + drain) *
/// live.time_scale real seconds.
///
/// `stop` (nullable) is a cooperative early-shutdown request, typically
/// set from a signal handler via hpd_sim's self-pipe: once it reads true
/// the driver skips the rest of the fault plan and workload horizon,
/// finalizes the app on every live node, drains, persists the final
/// checkpoint (when live.ckpt_dir is set), and returns with
/// LiveResult::interrupted set.
LiveResult run_live_experiment(const runner::ExperimentConfig& config,
                               const LiveConfig& live = {},
                               const std::atomic<bool>* stop = nullptr);

}  // namespace hpd::rt
