// Per-node engine of the paper's hierarchical detection algorithm
// (Algorithm 1). This is the primary contribution of the paper.
//
// Every node detects Definitely(Φ) within the subtree rooted at itself,
// over one queue of local intervals plus one queue per child. When a
// solution is found the node aggregates it with ⊓ (Theorem 1 / Lemma 1
// justify treating the aggregate as an ordinary interval one level up) and
// reports the aggregate to its parent; the root raises a global detection.
// Queue pruning (Eq. (10)) makes detection repeated at every level.
//
// The class is pure algorithm logic: all I/O goes through injected hooks,
// which makes it directly unit-testable and lets the runner wire it to the
// simulated network. Child sets are dynamic to support the failure handling
// of Section III-F (queues are added / removed as the spanning tree is
// repaired around crashed nodes).
#pragma once

#include <functional>
#include <optional>

#include "common/types.hpp"
#include "detect/occurrence.hpp"
#include "detect/queue_engine.hpp"
#include "detect/reorder.hpp"
#include "interval/interval.hpp"

namespace hpd::core {

class HierNodeEngine {
 public:
  struct Config {
    ProcessId self = kNoProcess;
    bool has_parent = false;  ///< false for the spanning-tree root
    detect::QueueEngine::PruneMode prune_mode =
        detect::QueueEngine::PruneMode::kAllEq10;
    /// Bound each queue (0 = unbounded); see QueueEngine::set_capacity.
    std::size_t queue_capacity = 0;
  };

  struct Hooks {
    /// Transmit an aggregated interval to the current parent. Must be
    /// non-null whenever has_parent is true.
    std::function<void(const Interval&)> send_report;
    /// Raised for every solution found at this node (subtree-level
    /// detection; `global` is set when the node currently has no parent).
    detect::OccurrenceCallback on_occurrence;
    /// Timestamp source for occurrence records (may be null → 0).
    std::function<SimTime()> now;
  };

  HierNodeEngine(const Config& config, Hooks hooks);

  ProcessId self() const { return self_; }
  bool has_parent() const { return has_parent_; }

  // ---- Dynamic tree wiring (Section III-F) -------------------------------

  /// The node was re-rooted / orphaned / adopted.
  void set_has_parent(bool has_parent);

  /// Start accepting reports from `child`, whose first report will carry
  /// sequence number `first_seq` (1 at start-up; negotiated by the attach
  /// handshake after a repair).
  void add_child(ProcessId child, SeqNum first_seq);

  /// The child failed or moved away: its queue and pending reports are
  /// dropped, and detection is re-run — removing the blocking queue may
  /// complete a solution for the shrunken subtree.
  void remove_child(ProcessId child);

  /// Idempotent adoption: (re)establish the report stream for `child`.
  /// Used when an attach handshake is retried.
  void ensure_child(ProcessId child, SeqNum first_seq);

  /// Crash-recovery reset: drop every child queue and all stale local
  /// intervals; the node rejoins the system as a fresh leaf. Report and
  /// occurrence sequence numbers continue (monotone across incarnations),
  /// so downstream reorder buffers stay consistent.
  void reset_as_leaf();

  bool has_child(ProcessId child) const { return engine_.has_queue(child); }
  std::size_t num_children() const { return engine_.num_queues() - 1; }
  bool is_leaf() const { return num_children() == 0; }

  // ---- Inputs -------------------------------------------------------------

  /// A completed local-predicate interval (origin == self, seq increasing).
  void local_interval(Interval x);

  /// A report received from a child (aggregated unless the child is a leaf
  /// in spirit; uniformly treated either way). Reports from unknown
  /// children (e.g. declared dead while the message was in flight) and
  /// stale duplicates are dropped by the reorder buffer.
  void child_report(ProcessId child, Interval x);

  // ---- Re-report support (Section III-F) ----------------------------------

  /// The last aggregate sent to a parent, if any; re-sent on reattachment
  /// because it may have died with the old parent.
  const std::optional<Interval>& last_report() const { return last_report_; }

  /// Sequence number the next generated aggregate will carry.
  SeqNum next_report_seq() const { return next_seq_; }

  /// Re-send last_report() to the (new) parent, if both exist.
  void resend_last_report();

  // ---- Introspection -------------------------------------------------------

  const detect::QueueEngine& engine() const { return engine_; }
  const detect::ReorderBuffer& reorder() const { return reorder_; }
  SeqNum occurrences() const { return occurrence_count_; }

  // ---- Checkpoint surface (durability) ------------------------------------

  /// Deep image of the per-node detection state: queue engine (own + child
  /// queues), reorder buffer, parent linkage, report/occurrence numbering,
  /// and the re-report cache. A restored engine continues its report and
  /// occurrence sequences exactly where the snapshot left off, so
  /// downstream reorder buffers stay consistent across a restart.
  struct Snapshot {
    ProcessId self = kNoProcess;
    bool has_parent = false;
    detect::QueueEngine::Snapshot engine;
    detect::ReorderBuffer::Snapshot reorder;
    SeqNum next_seq = 1;
    SeqNum occurrence_count = 0;
    std::optional<Interval> last_report;
  };

  Snapshot snapshot() const;
  /// The engine must have been constructed with the same `self` and prune
  /// mode (validated; see QueueEngine::restore).
  void restore(const Snapshot& snap);

 private:
  void handle_solutions(std::vector<detect::Solution>&& sols);
  SimTime now() const { return hooks_.now ? hooks_.now() : 0.0; }

  ProcessId self_;
  bool has_parent_;
  Hooks hooks_;
  detect::QueueEngine engine_;
  detect::ReorderBuffer reorder_;
  SeqNum next_seq_ = 1;
  SeqNum occurrence_count_ = 0;
  std::optional<Interval> last_report_;
};

}  // namespace hpd::core
