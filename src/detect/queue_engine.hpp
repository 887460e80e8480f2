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
//
// Storage: the queues live in a dense, key-sorted slot vector — one ring
// buffer of intervals per slot — with a ProcessId → slot side index, and
// the detect-loop worklists are slot bitmaps. Steady-state offer() (warm
// rings, n ≤ VectorClock::kInlineCapacity) performs zero heap allocations
// on the no-solution path; intervals are moved, never copied, from offer
// through the queue into the detected Solution. Keys added in ascending
// order are appended, so building a q-queue engine is O(q).
//
// Block summaries: with q > 16 queues the slots are grouped into blocks of
// ⌈√q⌉ consecutive slots, each summarized by the ⊓ of its nonempty heads
// (join of their lo, meet of their hi). For any vectors v,
//   join(lo) ≤ v  ⇔  every member's lo ≤ v,   v ≤ meet(hi)  ⇔  v ≤ every
//   member's hi,
// so one summary test decides a whole block exactly: elimination scans a
// block member by member only when its summary fails (and always scans
// the new head's own block), and Eq. (10) pruning skips every block whose
// meet(hi) ≰ max(x_a), since no member can then have max(x_b) < max(x_a).
// A new head costs O(√q) clock passes instead of O(q). Summaries are built
// lazily, only when a test asks for one, and go stale when a head of their
// block changes; with q ≤ 16 there is one block, which is only ever the
// new head's own, so small engines do no summary work. Blocks whose heads
// have clocks of different widths are always scanned member by member, so
// malformed input fails with the same error as a pairwise scan.
// comparisons() keeps counting the pairwise decisions Algorithm 1 makes
// (Table I's unit); clock_passes() counts the width-n passes actually made.
// See DESIGN.md, key design decision 6. The frozen pre-flattening
// implementation is kept under tests/reference/ and differential tests pin
// this engine to it.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "interval/interval.hpp"

namespace hpd::detect {

/// A solution set found by the engine: a snapshot of all queue heads at the
/// moment of detection, in ascending queue-key order. Members whose head was
/// pruned by Eq. (10) are moved out of the queue, not copied.
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

  bool has_queue(ProcessId key) const {
    return key >= 0 && idx(key) < slot_of_.size() && slot_of_[idx(key)] >= 0;
  }
  std::size_t num_queues() const { return slots_.size(); }
  std::size_t queue_size(ProcessId key) const;

  /// All queue keys, ascending.
  std::vector<ProcessId> keys() const;

  /// Drop a queue's contents (and its remembered pruned head) without
  /// removing the queue itself — crash-recovery state reset.
  void clear_queue(ProcessId key);

  // ---- Detection ---------------------------------------------------------

  /// Offer an interval to queue `key` (which must exist). Intervals from
  /// one key must arrive in succ() order (see ReorderBuffer). Returns the
  /// solutions detected, in detection order. The interval is moved into
  /// the queue; use the const& overload only where a copy is genuinely
  /// needed (replay from recorded executions).
  std::vector<Solution> offer(ProcessId key, Interval&& x);

  /// Copying overload for callers replaying intervals they must keep
  /// (offline replay over a recorded execution). The copy here is explicit
  /// — hot-path callers pass rvalues and hit the move overload.
  std::vector<Solution> offer(ProcessId key, const Interval& x) {
    return offer(key, Interval(x));
  }

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

  /// Vector-timestamp comparisons Algorithm 1 makes (the paper's
  /// time-complexity unit): two per pair of heads in elimination, and in
  /// Eq. (10) pruning every b up to the first with max(x_b) < max(x_a).
  /// Counted whether or not a block summary decided them.
  std::uint64_t comparisons() const { return comparisons_; }
  /// Width-n clock passes this engine object actually made: member tests,
  /// block-summary tests, and two per head folded into a rebuilt summary.
  /// Equal to comparisons() while q ≤ 16. Work done by this process; not
  /// part of the snapshot.
  std::uint64_t clock_passes() const { return clock_passes_; }
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

  // ---- Checkpoint surface (durability) ------------------------------------

  /// Deep image of the engine's full state: every queue's contents in FIFO
  /// order, the remembered pruned heads, and all counters. Serialized by
  /// ckpt/snapshot; restore() rebuilds an engine that continues the
  /// solution stream exactly where the snapshot left off. `prune_mode` and
  /// `capacity` are recorded so a restore into a differently-configured
  /// engine is rejected instead of silently diverging.
  struct Snapshot {
    struct Queue {
      ProcessId key = kNoProcess;
      std::vector<Interval> items;  ///< front first
      Interval last_pruned;
      bool has_pruned = false;
    };
    std::vector<Queue> queues;  ///< ascending key order
    std::uint8_t prune_mode = 0;
    std::uint64_t capacity = 0;
    std::uint64_t rejected = 0;
    std::uint64_t comparisons = 0;
    std::uint64_t stored_peak = 0;
    std::uint64_t eliminated = 0;
    std::uint64_t pruned = 0;
    std::uint64_t solutions_found = 0;
    std::uint64_t offered = 0;
  };

  Snapshot snapshot() const;

  /// Replace this engine's entire state with `snap`. The engine must have
  /// been constructed with the same PruneMode the snapshot was taken under
  /// (the mode changes which solutions the detect loop emits, so a silent
  /// mismatch would corrupt the occurrence stream).
  void restore(const Snapshot& snap);

 private:
  /// FIFO of intervals over a power-of-two ring. Capacity is retained
  /// across pops, so a warm ring never allocates in steady state.
  class Ring {
   public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    const Interval& front() const { return buf_[head_]; }
    /// i-th stored interval, 0 = front (checkpoint capture).
    const Interval& at(std::size_t i) const {
      return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    void push_back(Interval&& x) {
      if (count_ == buf_.size()) {
        grow();
      }
      buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(x);
      ++count_;
    }

    void push_front(Interval&& x) {
      if (count_ == buf_.size()) {
        grow();
      }
      head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
      buf_[head_] = std::move(x);
      ++count_;
    }

    /// Move the head out (solution / pruning path).
    Interval take_front() {
      Interval out = std::move(buf_[head_]);
      advance_head();
      return out;
    }

    /// Destroy the head in place (elimination path) — frees any heap the
    /// stored interval owned without constructing a return value.
    void drop_front() {
      buf_[head_] = Interval();
      advance_head();
    }

    void clear() {
      while (count_ > 0) {
        drop_front();
      }
      head_ = 0;
    }

   private:
    void advance_head() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --count_;
    }
    void grow();

    std::vector<Interval> buf_;  // size is always 0 or a power of two
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  /// Worklist over slot indices (replaces the former std::set<ProcessId>):
  /// one bit per slot, iterated in ascending order — the same order the
  /// key-sorted std::map gave the original implementation.
  class SlotBitmap {
   public:
    void reset(std::size_t bits) {
      words_.assign((bits + 63) / 64, 0);  // retains capacity when warm
      any_ = false;
    }
    void set(std::size_t i) {
      words_[i >> 6] |= std::uint64_t{1} << (i & 63);
      any_ = true;
    }
    bool test(std::size_t i) const {
      return (words_[i >> 6] >> (i & 63)) & 1;
    }
    bool any() const { return any_; }

    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t w = 0; w < words_.size(); ++w) {
        std::uint64_t word = words_[w];
        while (word != 0) {
          fn((w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
          word &= word - 1;
        }
      }
    }

   private:
    std::vector<std::uint64_t> words_;
    bool any_ = false;
  };

  struct Slot {
    ProcessId key = kNoProcess;
    Ring q;
    Interval last_pruned;
    bool has_pruned = false;
  };

  /// ⊓ of the nonempty heads of one block of consecutive slots.
  struct Block {
    VectorClock lo;  ///< join of the heads' lo
    VectorClock hi;  ///< meet of the heads' hi
    bool stale = true;
    bool empty = true;  ///< no head in the block
    /// False when the heads' clocks differ in width: the summary is not
    /// built and the block is always scanned member by member.
    bool usable = false;
  };

  /// Engines with at most this many queues keep one block (no summaries).
  static constexpr std::size_t kSingleBlockQueues = 16;

  bool leq_pass(const VectorClock& a, const VectorClock& b);
  bool less_pass(const VectorClock& a, const VectorClock& b);
  std::int32_t slot_index(ProcessId key) const {
    return has_queue(key) ? slot_of_[idx(key)] : -1;
  }
  void reindex_from(std::size_t pos);

  /// Re-split the slots into blocks after the queue set changed.
  void relayout();
  /// Mark the block holding slot `s` stale (its head changed).
  void touch(std::size_t s) {
    if (!layout_stale_) {
      blocks_[s / block_size_].stale = true;
    }
  }
  /// Block `blk`'s summary, rebuilt first if stale.
  const Block& summary(std::size_t blk);
  /// First slot b ≠ a, ascending, with max(x_b) < max(x_a); slots_.size()
  /// if none (Eq. (10) holds for a).
  std::size_t first_smaller_max(std::size_t a);

  /// The detection cycle, seeded by the `updated_` bitmap (slots whose
  /// heads changed).
  std::vector<Solution> detect_loop();

  /// Queues in ascending key order. Dense: the pairwise head scans walk a
  /// contiguous vector instead of chasing std::map nodes.
  std::vector<Slot> slots_;
  /// key → index into slots_, -1 when absent. Structural changes
  /// (add/remove queue) are rare; lookups are O(1).
  std::vector<std::int32_t> slot_of_;
  /// detect_loop scratch, kept warm across calls (zero steady-state
  /// allocation).
  SlotBitmap updated_;
  SlotBitmap next_;
  SlotBitmap prune_;
  /// Block summaries over slots_ (see the header comment).
  std::vector<Block> blocks_;
  std::size_t block_size_ = 1;
  /// Set when the queue set changed; relayout() runs before the next scan.
  bool layout_stale_ = true;
  /// summary() scratch: the heads of the block being rebuilt.
  std::vector<const Interval*> block_heads_;
  /// Nonempty queues (a solution needs all of them).
  std::size_t live_ = 0;
  /// Slots holding a pruned head for restore_pruned().
  std::size_t held_pruned_ = 0;
  PruneMode mode_;
  std::size_t capacity_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t comparisons_ = 0;
  std::uint64_t clock_passes_ = 0;
  std::size_t stored_ = 0;
  std::size_t stored_peak_ = 0;
  std::uint64_t eliminated_ = 0;
  std::uint64_t pruned_ = 0;
  std::uint64_t solutions_found_ = 0;
  std::uint64_t offered_ = 0;
};

}  // namespace hpd::detect
