// Cost accounting for experiments: message counts (by type and in
// hop-weighted form), wire volume in O(n) vector-clock words, vector-clock
// comparison counts (the paper's time-complexity unit), and per-node
// storage peaks (the paper's space-complexity unit).
//
// Threading contract (the thread-confinement convention of
// common/thread_annotations.hpp / docs/STATIC_ANALYSIS.md): a
// MetricsRegistry is single-owner state, never shared between live
// threads, so its fields carry no HPD_GUARDED_BY annotations on purpose.
// Each sim run and each live node writes its own private registry (from
// its reactor worker); merge_from() folds them together only after the
// writing threads have been joined (see rt/live_runner.cpp), which is the
// happens-before edge that makes the unsynchronized reads safe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hpd {

/// Session-layer accounting for the live transport's reliable-delivery
/// layer (rt/session). Sim runs leave this zero: the simulated
/// network delivers exactly what the strategy plans, so there is no
/// retransmission machinery to count. The no-silent-loss invariant the
/// chaos suite checks is `msgs_delivered + surfaced_losses >= reliable_sent`
/// (every accepted message is either delivered or its loss is reported).
struct TransportCounters {
  std::uint64_t reliable_sent = 0;    ///< messages accepted by the session layer
  std::uint64_t msgs_delivered = 0;   ///< unique deliveries to protocol nodes
  std::uint64_t msgs_dropped = 0;     ///< refused before the session layer
  std::uint64_t retransmits = 0;      ///< DATA frames re-sent after timeout
  std::uint64_t dups_suppressed = 0;  ///< duplicate DATA discarded on receive
  std::uint64_t surfaced_losses = 0;  ///< abandoned sends reported upward
  std::uint64_t stale_rejected = 0;   ///< DATA from a superseded sender epoch
  std::uint64_t conn_resets = 0;      ///< connections torn down mid-stream
  std::uint64_t frame_errors = 0;     ///< CRC/decode failures on receive
  std::uint64_t acks_sent = 0;        ///< ACK frames emitted
  std::uint64_t chaos_events = 0;     ///< injected perturbations

  void add(const TransportCounters& other);
};

/// Event-loop accounting for the live runtime (rt/reactor): one record per
/// worker thread, merged after the workers are joined. Zero for sim runs.
/// `ready_events / wakeups` is the multiplexing ratio the reactor exists to
/// raise.
struct ReactorCounters {
  std::uint64_t workers = 0;           ///< worker threads contributing
  std::uint64_t wakeups = 0;           ///< epoll_wait returns
  std::uint64_t ready_events = 0;      ///< fd readiness events dispatched
  std::uint64_t timer_fires = 0;       ///< timer-wheel expirations fired
  std::uint64_t timers_scheduled = 0;  ///< wheel insertions
  std::uint64_t max_outbound_backlog = 0;  ///< bytes, worst single connection
  std::uint64_t max_loop_micros = 0;   ///< worst single loop turn, wall µs

  /// Fold another record in: sums, except the maxima which take max.
  void add(const ReactorCounters& other);
};

/// Durability accounting for the checkpoint subsystem (src/ckpt). Written
/// by whoever owns the CheckpointStore — the daemon loop, or a live
/// backend's driver thread — under the same single-owner-then-merge
/// convention as every other counter block here. Zero when checkpointing
/// is off.
struct CheckpointCounters {
  std::uint64_t writes = 0;           ///< checkpoint files written
  std::uint64_t bytes_written = 0;    ///< total encoded checkpoint bytes
  std::uint64_t restores = 0;         ///< successful restores performed
  std::uint64_t restore_generation = 0;  ///< newest generation restored
  std::uint64_t torn_writes_skipped = 0; ///< corrupt/torn files fallen past

  /// Fold another record in: sums, except restore_generation takes max.
  void add(const CheckpointCounters& other);
};

struct NodeMetrics {
  std::uint64_t msgs_sent = 0;           ///< one-hop sends originated here
  std::uint64_t wire_words_sent = 0;     ///< payload volume originated here
  std::uint64_t intervals_enqueued = 0;  ///< intervals offered to this node's queues
  std::uint64_t intervals_stored_peak = 0;  ///< max simultaneous queued intervals
  std::uint64_t vc_comparisons = 0;      ///< timestamp comparisons performed here
  std::uint64_t detections = 0;          ///< solutions found at this node
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  explicit MetricsRegistry(std::size_t n) : node_(n) {}

  void resize(std::size_t n) { node_.resize(n); }
  std::size_t num_nodes() const { return node_.size(); }

  /// Register a human-readable name for a message type code (idempotent).
  void name_message_type(int type, std::string name);
  const std::string& message_type_name(int type) const;

  /// Record a one-hop message send. `wire_bytes` is non-zero only when the
  /// payload actually travelled encoded (ExperimentConfig::wire_encoding).
  void on_send(ProcessId src, int type, std::size_t wire_words,
               std::size_t wire_bytes = 0);

  /// Fold another registry into this one (counters add, per-node metrics add
  /// index-wise, names union). The live runtime gives every node a
  /// private registry and merges them once the workers have been joined —
  /// calling this while `other`'s owning thread still runs is a data race.
  void merge_from(const MetricsRegistry& other);

  /// Totals.
  std::uint64_t msgs_total() const { return msgs_total_; }
  std::uint64_t msgs_of_type(int type) const;
  std::uint64_t wire_words_total() const { return wire_words_total_; }
  std::uint64_t wire_bytes_total() const { return wire_bytes_total_; }
  std::uint64_t bytes_of_type(int type) const;

  /// Per-node counters; valid ids only.
  NodeMetrics& node(ProcessId id);
  const NodeMetrics& node(ProcessId id) const;

  /// Aggregates over nodes.
  std::uint64_t total_vc_comparisons() const;
  std::uint64_t total_detections() const;
  std::uint64_t total_intervals_enqueued() const;
  std::uint64_t max_node_storage_peak() const;
  std::uint64_t sum_node_storage_peak() const;

  const std::map<int, std::uint64_t>& msgs_by_type() const {
    return msgs_by_type_;
  }

  /// Live-transport session-layer counters (zero for sim runs). Written by
  /// the owning node's reactor worker, like every other field here.
  TransportCounters& transport() { return transport_; }
  const TransportCounters& transport() const { return transport_; }

  /// Reactor event-loop counters (zero for sim runs). Same ownership rule:
  /// merged only after the workers stopped.
  ReactorCounters& reactor() { return reactor_; }
  const ReactorCounters& reactor() const { return reactor_; }

  /// Checkpoint-subsystem counters (zero unless a checkpoint directory is
  /// configured). Same ownership rule.
  CheckpointCounters& checkpoint() { return checkpoint_; }
  const CheckpointCounters& checkpoint() const { return checkpoint_; }

 private:
  std::vector<NodeMetrics> node_;
  TransportCounters transport_;
  ReactorCounters reactor_;
  CheckpointCounters checkpoint_;
  std::map<int, std::uint64_t> msgs_by_type_;
  std::map<int, std::uint64_t> bytes_by_type_;
  std::map<int, std::string> type_names_;
  std::uint64_t msgs_total_ = 0;
  std::uint64_t wire_words_total_ = 0;
  std::uint64_t wire_bytes_total_ = 0;
};

}  // namespace hpd
