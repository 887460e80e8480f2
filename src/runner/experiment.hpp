// Experiment configuration and results: one simulated run of a detection
// algorithm over a workload, with full cost accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "detect/occurrence.hpp"
#include "detect/queue_engine.hpp"
#include "detect/slicing.hpp"
#include "ft/heartbeat.hpp"
#include "ft/reattach.hpp"
#include "metrics/counters.hpp"
#include "net/spanning_tree.hpp"
#include "net/topology.hpp"
#include "sim/delay.hpp"
#include "sim/strategy.hpp"
#include "trace/behavior.hpp"
#include "trace/execution.hpp"

namespace hpd::runner {

enum class DetectorKind {
  kHierarchical,  ///< the paper's Algorithm 1 (one engine per node)
  kCentralized,   ///< the baseline [12] (sink at the tree root, hop relays)
  kSlicing,  ///< computation-slicing sink (slice filter + queue engine)
};

struct FailureEvent {
  SimTime time = 0.0;
  ProcessId node = kNoProcess;
};

struct ExperimentConfig {
  // ---- System shape -------------------------------------------------------
  net::Topology topology{0};
  net::SpanningTree tree{0};  ///< initial spanning tree; root == sink

  // ---- Workload -----------------------------------------------------------
  /// Creates the application behaviour for each process.
  std::function<std::unique_ptr<trace::AppBehavior>(ProcessId)>
      behavior_factory;

  // ---- Detection ----------------------------------------------------------
  DetectorKind detector = DetectorKind::kHierarchical;
  detect::QueueEngine::PruneMode prune_mode =
      detect::QueueEngine::PruneMode::kAllEq10;
  /// Admission rule for DetectorKind::kSlicing (the broken variant exists
  /// for oracle fault-injection tests only).
  detect::SlicingEngine::Mode slicing_mode = detect::SlicingEngine::Mode::kExact;
  /// Bound each detection queue (0 = unbounded): models nodes with fixed
  /// interval memory; full queues reject new intervals (back-pressure).
  std::size_t queue_capacity = 0;
  /// Serialize every protocol message through the byte codec (wire/codec)
  /// and decode at the receiver — exercises the real wire format under
  /// load and fills the byte counters in the metrics.
  bool wire_encoding = false;
  bool track_provenance = false;
  bool record_execution = false;
  /// Store OccurrenceRecords in the result (counts are always collected).
  /// Large sweeps turn this off — records hold full vector timestamps.
  bool keep_occurrence_records = true;
  /// Keep the solution member intervals inside each stored record.
  bool occurrence_solutions = true;
  /// Re-send the last aggregate to a new parent after reattachment
  /// (Section III-F example; reports may have died with the old parent).
  bool resend_last_on_attach = true;

  // ---- Failure handling ---------------------------------------------------
  bool heartbeats = false;  ///< enable the ft layer (hierarchical mode only)
  ft::HeartbeatConfig hb_config{};
  ft::ReattachConfig reattach_config{};
  std::vector<FailureEvent> failures;
  /// Crash-recovery: bring nodes back at the given times. A recovered node
  /// rejoins with a clean slate (no children, predicate down, stale
  /// intervals discarded) but keeps its vector clock (stable storage) and
  /// its report sequence numbers. In hierarchical+heartbeats mode it then
  /// searches for a parent like any orphan; in centralized mode it simply
  /// resumes reporting along the (static) tree.
  std::vector<FailureEvent> recoveries;

  // ---- Simulation ---------------------------------------------------------
  sim::DelayModel delay = sim::DelayModel::uniform(0.5, 1.5);
  /// Optional message-scheduling strategy (non-owning; see sim/strategy.hpp).
  /// The model checker injects delay-bounded / PCT-style reorderings and
  /// drop/duplicate fault plans through this hook; nullptr = default
  /// per-message sampling from `delay`.
  sim::ScheduleStrategy* strategy = nullptr;
  SimTime horizon = 2000.0;  ///< workload window
  SimTime drain = 100.0;     ///< extra time for in-flight traffic to settle
  std::uint64_t seed = 1;
};

/// Per-(initial-tree-)level detection statistics, the basis for measuring
/// the paper's α (probability child aggregates combine one level up).
struct LevelStats {
  std::uint64_t nodes = 0;
  std::uint64_t solutions = 0;        ///< solutions found at this level
  std::uint64_t child_intervals = 0;  ///< intervals received from children

  /// Empirical α: solutions per received child interval (the paper's model
  /// has #aggregates = α · d · (intervals per child) = α · total received).
  double alpha() const {
    return child_intervals == 0
               ? 0.0
               : static_cast<double>(solutions) /
                     static_cast<double>(child_intervals);
  }
};

struct ExperimentResult {
  /// Every detection, at every node, in detection order
  /// (empty if keep_occurrence_records was false).
  std::vector<detect::OccurrenceRecord> occurrences;
  /// Detections flagged global (at the root / sink) — always counted.
  std::uint64_t global_count = 0;
  MetricsRegistry metrics;
  trace::ExecutionRecord execution;  ///< populated iff record_execution
  SimTime end_time = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t dropped_messages = 0;
  std::map<int, LevelStats> levels;  ///< keyed by initial-tree level (leaf=1)

  /// Final control state, for validation under failures.
  std::vector<ProcessId> final_parents;
  std::vector<bool> final_alive;

  std::size_t global_occurrences() const;
  /// Weighted empirical α across internal levels.
  double measured_alpha() const;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace hpd::runner
