// FROZEN SEED SNAPSHOT — do not optimize. This is the pre-PR (ISSUE 5)
// implementation, kept verbatim under hpd::reference as the ground truth
// for the differential property tests and the bench_micro baseline kernels.
// The queue-based Definitely(Φ) detection engine — the computational core of
// the paper's Algorithm 1 and of the centralized baseline [12].
//
// The engine maintains one FIFO queue of intervals per source (the node's
// own intervals plus one queue per child for the hierarchical algorithm;
// one queue per process for the centralized sink). Offering an interval
// triggers the elimination / detection / pruning cycle:
//
//   1. Elimination fixpoint (Algorithm 1, lines 4–17): repeatedly compare
//      updated queue heads pairwise; a head y with min(x) ≮ max(y) can never
//      pair with x or any successor of x (timestamps only grow), so y is
//      deleted. Deleted heads expose new heads, which join the next round.
//   2. Solution (lines 18–22): at a fixpoint, if every queue is non-empty
//      the heads are pairwise compatible and form a solution set.
//   3. Pruning for repeated detection (lines 23–33, Eq. (10)): every head
//      whose max is not dominated (no other head with strictly smaller max)
//      is removed — Theorem 3 shows this is safe, Theorem 4 that at least
//      one head is removed. The pruned queues seed the next fixpoint round,
//      so several solutions can emerge from a single offer.
//
// Structural note: the paper's listing places the solution check inside the
// elimination loop; a solution is only sound at a fixpoint (heads exposed by
// a deletion have not been compared yet), so we restructure as fixpoint →
// check → prune → repeat. Pruning uses the exact partial-order test
// max(x_j) ≮ max(x_i); the listing's component-wise loop (line 27) misses
// the equal-vectors corner case.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/types.hpp"
#include "reference/interval.hpp"

namespace hpd::reference::detect {

/// A solution set found by the engine: a snapshot of all queue heads at the
/// moment of detection, in ascending queue-key order.
struct Solution {
  std::vector<Interval> members;
};

class QueueEngine {
 public:
  enum class PruneMode {
    kAllEq10,     ///< remove every head satisfying Eq. (10) — the paper
    kSingleEq10,  ///< remove only the first such head (ablation A4)
    /// Deliberately broken rule for fault-injection testing ONLY: after a
    /// solution, prune *every* head, including those Eq. (10) would keep
    /// because another head's smaller max proves they can still combine
    /// with a successor. Over-pruning silently loses later solutions; the
    /// model checker's differential oracles must detect and shrink it.
    /// Never use outside tests.
    kTestBrokenPruneAll,
  };

  explicit QueueEngine(PruneMode mode = PruneMode::kAllEq10) : mode_(mode) {}

  /// Resource-constrained mode: bound each queue to `max_per_queue`
  /// intervals (0 = unbounded, the default). A full queue rejects new
  /// offers (back-pressure: the in-queue order and the succ() invariant are
  /// preserved; the cost is missed occurrences, quantified by
  /// bench_capacity). Rejected offers are counted.
  void set_capacity(std::size_t max_per_queue) { capacity_ = max_per_queue; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t rejected() const { return rejected_; }

  // ---- Queue management --------------------------------------------------

  void add_queue(ProcessId key);

  /// Remove a queue and everything in it (child failed). Call recheck()
  /// afterwards: dropping the blocking queue may complete a solution.
  void remove_queue(ProcessId key);

  bool has_queue(ProcessId key) const { return queues_.count(key) != 0; }
  std::size_t num_queues() const { return queues_.size(); }
  std::size_t queue_size(ProcessId key) const;
  /// Queue contents, front first (read-only observer for differential
  /// tests; not part of the frozen algorithm).
  const std::deque<Interval>& queue(ProcessId key) const {
    return queues_.at(key);
  }

  /// All queue keys, ascending.
  std::vector<ProcessId> keys() const;

  /// Drop a queue's contents (and its remembered pruned head) without
  /// removing the queue itself — crash-recovery state reset.
  void clear_queue(ProcessId key);

  // ---- Detection ---------------------------------------------------------

  /// Offer an interval to queue `key` (which must exist). Intervals from
  /// one key must arrive in succ() order (see ReorderBuffer). Returns the
  /// solutions detected, in detection order.
  std::vector<Solution> offer(ProcessId key, Interval x);

  /// Re-run detection after structural changes (queue removal).
  std::vector<Solution> recheck();

  /// Restore each queue's most recently *pruned* head (Section III-F
  /// support). Pruning-safety (Theorem 3) is proven for a fixed queue set;
  /// when the detection scope grows — the node gains a child after a tree
  /// repair — the last pruned interval may legitimately belong to a
  /// solution of the enlarged subtree (the paper's Fig. 2(c) expects
  /// exactly this: P4's own x5 must still combine with P2's {x1, x3}
  /// aggregate after P4 becomes the new root). Restored intervals go back
  /// to the queue front; each is restored at most once.
  void restore_pruned();

  // ---- Statistics (the paper's complexity units) --------------------------

  /// Vector-timestamp comparisons performed (time-complexity unit).
  std::uint64_t comparisons() const { return comparisons_; }
  /// Intervals currently stored.
  std::size_t stored() const { return stored_; }
  /// Peak simultaneous storage (space-complexity unit).
  std::size_t stored_peak() const { return stored_peak_; }
  /// Heads deleted by the elimination fixpoint.
  std::uint64_t eliminated() const { return eliminated_; }
  /// Heads deleted by Eq. (10) pruning.
  std::uint64_t pruned() const { return pruned_; }
  /// Solutions found over the engine's lifetime.
  std::uint64_t solutions_found() const { return solutions_found_; }
  /// Intervals ever offered (enqueued) to this engine.
  std::uint64_t offered() const { return offered_; }

  /// Self-check of the engine's core invariant: outside of a detect cycle,
  /// the current queue heads are pairwise compatible (every incompatibility
  /// is resolved the moment it becomes observable). Returns true if the
  /// invariant holds; O(q²·n). Test/debug instrumentation.
  bool heads_compatible() const;

 private:
  bool vc_less_counted(const VectorClock& a, const VectorClock& b);
  bool vc_leq_counted(const VectorClock& a, const VectorClock& b);
  bool all_queues_nonempty() const;
  void pop_head(ProcessId key);

  /// The detection cycle, seeded with the queues whose heads changed.
  std::vector<Solution> detect_loop(std::set<ProcessId> updated);

  std::map<ProcessId, std::deque<Interval>> queues_;
  std::map<ProcessId, Interval> last_pruned_;
  PruneMode mode_;
  std::size_t capacity_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t comparisons_ = 0;
  std::size_t stored_ = 0;
  std::size_t stored_peak_ = 0;
  std::uint64_t eliminated_ = 0;
  std::uint64_t pruned_ = 0;
  std::uint64_t solutions_found_ = 0;
  std::uint64_t offered_ = 0;
};

}  // namespace hpd::reference::detect
