// The centralized repeated-detection baseline [12] (Kshemkalyani, IPL 2011):
// a single sink maintains one queue per process and runs the same
// elimination / detection / Eq. (10)-pruning cycle over raw intervals.
//
// All storage and computation concentrate at the sink, and in a multi-hop
// network every interval report is relayed hop-by-hop to the sink — the
// costs the paper's hierarchical algorithm distributes (Table I, Figs. 4–5).
// The relay logic itself lives in the runner (nodes forward kReportCentral
// toward the root); this class is the sink's algorithmic state.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "detect/occurrence.hpp"
#include "detect/queue_engine.hpp"
#include "detect/reorder.hpp"
#include "interval/interval.hpp"

namespace hpd::detect {

class CentralSink {
 public:
  struct Hooks {
    OccurrenceCallback on_occurrence;  ///< every detection is global
    std::function<SimTime()> now;      ///< may be null → 0
  };

  /// `processes` lists every process the conjunction ranges over (including
  /// the sink itself).
  CentralSink(ProcessId self, const std::vector<ProcessId>& processes,
              Hooks hooks,
              QueueEngine::PruneMode mode = QueueEngine::PruneMode::kAllEq10,
              std::size_t queue_capacity = 0);

  ProcessId self() const { return self_; }

  /// A completed local interval of the sink itself (no message involved).
  void local_interval(Interval x);

  /// A raw interval report that reached the sink (x.origin identifies the
  /// source process; the reorder buffer restores per-origin order).
  void report(Interval x);

  /// Extension hook (not part of [12], which has no failure handling):
  /// drop a dead process's queue so the remaining conjunction can progress.
  void remove_process(ProcessId id);

  const QueueEngine& engine() const { return engine_; }
  const ReorderBuffer& reorder() const { return reorder_; }
  SeqNum occurrences() const { return occurrence_count_; }

  // ---- Checkpoint surface (durability) ------------------------------------

  /// Deep image of the sink: the queue engine, the per-origin reorder
  /// state, and the occurrence-numbering counters. A restored sink
  /// continues the global occurrence stream (indices included) exactly
  /// where the snapshot left off.
  struct Snapshot {
    ProcessId self = kNoProcess;
    QueueEngine::Snapshot engine;
    ReorderBuffer::Snapshot reorder;
    SeqNum next_seq = 1;
    SeqNum occurrence_count = 0;
  };

  Snapshot snapshot() const;
  /// The sink must have been constructed with the same `self` and prune
  /// mode (validated; see QueueEngine::restore).
  void restore(const Snapshot& snap);

 private:
  void handle_solutions(std::vector<Solution>&& sols);
  SimTime now() const { return hooks_.now ? hooks_.now() : 0.0; }

  ProcessId self_;
  Hooks hooks_;
  QueueEngine engine_;
  ReorderBuffer reorder_;
  SeqNum next_seq_ = 1;
  SeqNum occurrence_count_ = 0;
};

}  // namespace hpd::detect
