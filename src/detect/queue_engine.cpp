#include "detect/queue_engine.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/assert.hpp"

namespace hpd::detect {

void QueueEngine::Ring::grow() {
  const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
  std::vector<Interval> next(cap);
  for (std::size_t i = 0; i < count_; ++i) {
    next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
  }
  buf_ = std::move(next);
  head_ = 0;
}

void QueueEngine::reindex_from(std::size_t pos) {
  for (std::size_t s = pos; s < slots_.size(); ++s) {
    slot_of_[idx(slots_[s].key)] = static_cast<std::int32_t>(s);
  }
}

void QueueEngine::add_queue(ProcessId key) {
  HPD_REQUIRE(key >= 0, "QueueEngine: queue key must be non-negative");
  HPD_REQUIRE(!has_queue(key), "QueueEngine: queue already exists");
  if (idx(key) >= slot_of_.size()) {
    slot_of_.resize(idx(key) + 1, -1);
  }
  // Keep slots_ sorted by key so every scan below runs in ascending key
  // order (the iteration order the detection semantics are specified in).
  // Ascending keys — every set-up path — append without a scan.
  if (slots_.empty() || slots_.back().key < key) {
    slot_of_[idx(key)] = static_cast<std::int32_t>(slots_.size());
    slots_.emplace_back().key = key;
  } else {
    const auto it = std::lower_bound(
        slots_.begin(), slots_.end(), key,
        [](const Slot& s, ProcessId k) { return s.key < k; });
    const auto pos = static_cast<std::size_t>(it - slots_.begin());
    slots_.emplace(it)->key = key;
    reindex_from(pos);
  }
  layout_stale_ = true;
}

void QueueEngine::remove_queue(ProcessId key) {
  const std::int32_t s = slot_index(key);
  HPD_REQUIRE(s >= 0, "QueueEngine: removing unknown queue");
  const std::size_t pos = static_cast<std::size_t>(s);
  const Slot& slot = slots_[pos];
  stored_ -= slot.q.size();
  live_ -= slot.q.empty() ? 0U : 1U;
  held_pruned_ -= slot.has_pruned ? 1U : 0U;
  slot_of_[idx(key)] = -1;
  slots_.erase(slots_.begin() + s);
  reindex_from(pos);
  layout_stale_ = true;
}

void QueueEngine::restore_pruned() {
  if (held_pruned_ == 0) {
    return;
  }
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.has_pruned) {
      continue;
    }
    live_ += slot.q.empty() ? 1U : 0U;
    slot.q.push_front(std::move(slot.last_pruned));
    slot.last_pruned = Interval();
    slot.has_pruned = false;
    touch(s);
    ++stored_;
    stored_peak_ = std::max(stored_peak_, stored_);
  }
  held_pruned_ = 0;
}

std::size_t QueueEngine::queue_size(ProcessId key) const {
  const std::int32_t s = slot_index(key);
  HPD_REQUIRE(s >= 0, "QueueEngine: unknown queue");
  return slots_[static_cast<std::size_t>(s)].q.size();
}

std::vector<ProcessId> QueueEngine::keys() const {
  std::vector<ProcessId> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    out.push_back(slot.key);
  }
  return out;
}

void QueueEngine::clear_queue(ProcessId key) {
  const std::int32_t s = slot_index(key);
  HPD_REQUIRE(s >= 0, "QueueEngine: unknown queue");
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  stored_ -= slot.q.size();
  live_ -= slot.q.empty() ? 0U : 1U;
  held_pruned_ -= slot.has_pruned ? 1U : 0U;
  slot.q.clear();
  slot.last_pruned = Interval();
  slot.has_pruned = false;
  touch(static_cast<std::size_t>(s));
}

QueueEngine::Snapshot QueueEngine::snapshot() const {
  Snapshot snap;
  snap.queues.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    Snapshot::Queue q;
    q.key = slot.key;
    q.items.reserve(slot.q.size());
    for (std::size_t i = 0; i < slot.q.size(); ++i) {
      q.items.push_back(slot.q.at(i));
    }
    q.last_pruned = slot.last_pruned;
    q.has_pruned = slot.has_pruned;
    snap.queues.push_back(std::move(q));
  }
  snap.prune_mode = static_cast<std::uint8_t>(mode_);
  snap.capacity = capacity_;
  snap.rejected = rejected_;
  snap.comparisons = comparisons_;
  snap.stored_peak = stored_peak_;
  snap.eliminated = eliminated_;
  snap.pruned = pruned_;
  snap.solutions_found = solutions_found_;
  snap.offered = offered_;
  return snap;
}

void QueueEngine::restore(const Snapshot& snap) {
  HPD_REQUIRE(snap.prune_mode == static_cast<std::uint8_t>(mode_),
              "QueueEngine::restore: prune-mode mismatch");
  slots_.clear();
  slot_of_.clear();
  layout_stale_ = true;
  stored_ = 0;
  live_ = 0;
  held_pruned_ = 0;
  for (const Snapshot::Queue& q : snap.queues) {
    add_queue(q.key);
    Slot& slot = slots_[static_cast<std::size_t>(slot_index(q.key))];
    for (const Interval& x : q.items) {
      // Raw re-enqueue: the snapshot was taken at a detect-loop fixpoint,
      // so replaying the contents must not re-run detection (offered_ et
      // al. already account for these intervals).
      slot.q.push_back(Interval(x));
      ++stored_;
    }
    live_ += slot.q.empty() ? 0U : 1U;
    slot.last_pruned = q.last_pruned;
    slot.has_pruned = q.has_pruned;
    held_pruned_ += slot.has_pruned ? 1U : 0U;
  }
  capacity_ = snap.capacity;
  rejected_ = snap.rejected;
  comparisons_ = snap.comparisons;
  stored_peak_ = std::max<std::size_t>(snap.stored_peak, stored_);
  eliminated_ = snap.eliminated;
  pruned_ = snap.pruned;
  solutions_found_ = snap.solutions_found;
  offered_ = snap.offered;
}

bool QueueEngine::leq_pass(const VectorClock& a, const VectorClock& b) {
  ++clock_passes_;
  return vc_leq(a, b);
}

bool QueueEngine::less_pass(const VectorClock& a, const VectorClock& b) {
  ++clock_passes_;
  return vc_less(a, b);
}

void QueueEngine::relayout() {
  const std::size_t q = slots_.size();
  std::size_t size = std::max<std::size_t>(q, 1);
  if (q > kSingleBlockQueues) {
    size = static_cast<std::size_t>(std::sqrt(static_cast<double>(q)));
    while (size * size < q) {
      ++size;  // ⌈√q⌉
    }
  }
  block_size_ = size;
  blocks_.resize((q + size - 1) / size);
  for (Block& blk : blocks_) {
    blk.stale = true;
  }
  layout_stale_ = false;
}

const QueueEngine::Block& QueueEngine::summary(std::size_t blk) {
  Block& b = blocks_[blk];
  if (!b.stale) {
    return b;
  }
  block_heads_.clear();
  const std::size_t end = std::min(slots_.size(), (blk + 1) * block_size_);
  for (std::size_t s = blk * block_size_; s < end; ++s) {
    if (!slots_[s].q.empty()) {
      block_heads_.push_back(&slots_[s].q.front());
    }
  }
  b.empty = block_heads_.empty();
  b.usable = !b.empty;
  if (b.usable) {
    const std::size_t width = block_heads_.front()->lo.size();
    for (const Interval* x : block_heads_) {
      b.usable &= width != 0 && x->lo.size() == width && x->hi.size() == width;
    }
  }
  if (b.usable) {
    b.lo = block_heads_.front()->lo;
    b.hi = block_heads_.front()->hi;
    meet_join_into(b.lo, b.hi,
                   std::span<const Interval* const>(block_heads_).subspan(1));
    clock_passes_ += 2 * block_heads_.size();
  }
  b.stale = false;
  return b;
}

std::size_t QueueEngine::first_smaller_max(std::size_t a) {
  const VectorClock& max_a = slots_[a].q.front().hi;
  const std::size_t nslots = slots_.size();
  for (std::size_t blk = 0; blk < blocks_.size(); ++blk) {
    if (blk != a / block_size_) {
      const Block& sum = summary(blk);
      // max(x_b) < max(x_a) implies meet(hi) ≤ max(x_b) ≤ max(x_a).
      if (sum.usable && !leq_pass(sum.hi, max_a)) {
        continue;
      }
    }
    const std::size_t end = std::min(nslots, (blk + 1) * block_size_);
    for (std::size_t b = blk * block_size_; b < end; ++b) {
      if (b != a && less_pass(slots_[b].q.front().hi, max_a)) {
        return b;
      }
    }
  }
  return nslots;
}

bool QueueEngine::heads_compatible() const {
  for (const Slot& sa : slots_) {
    if (sa.q.empty()) {
      continue;
    }
    for (const Slot& sb : slots_) {
      if (&sb == &sa || sb.q.empty()) {
        continue;
      }
      if (!vc_leq(sa.q.front().lo, sb.q.front().hi)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<Solution> QueueEngine::offer(ProcessId key, Interval&& x) {
  const std::int32_t s = slot_index(key);
  HPD_REQUIRE(s >= 0, "QueueEngine::offer: unknown queue");
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  if (capacity_ != 0 && slot.q.size() >= capacity_) {
    ++rejected_;  // back-pressure: bounded node memory (see set_capacity)
    return {};
  }
  const bool was_empty = slot.q.empty();
  slot.q.push_back(std::move(x));
  ++offered_;
  ++stored_;
  stored_peak_ = std::max(stored_peak_, stored_);
  if (!was_empty) {
    // Algorithm 1, line 2: only a new head can enable progress.
    return {};
  }
  ++live_;
  updated_.reset(slots_.size());
  updated_.set(static_cast<std::size_t>(s));
  return detect_loop();
}

std::vector<Solution> QueueEngine::recheck() {
  updated_.reset(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].q.empty()) {
      updated_.set(s);
    }
  }
  if (!updated_.any()) {
    return {};
  }
  return detect_loop();
}

std::vector<Solution> QueueEngine::detect_loop() {
  std::vector<Solution> solutions;
  if (layout_stale_) {
    relayout();
  }
  const std::size_t nslots = slots_.size();
  while (updated_.any()) {
    // ---- One elimination round (lines 5–17) ----
    updated_.for_each([&](std::size_t a) { touch(a); });
    // Heads present this round; deletions apply only after it.
    const std::size_t live = live_;
    next_.reset(nslots);
    updated_.for_each([&](std::size_t a) {
      Slot& sa = slots_[a];
      if (sa.q.empty()) {
        return;
      }
      const Interval& x = sa.q.front();
      // Algorithm 1 compares x with every other head, both ways.
      comparisons_ += 2 * (live - 1);
      for (std::size_t blk = 0; blk < blocks_.size(); ++blk) {
        // Which member tests the block's summary leaves open.
        bool test_y = true;  // min(x) ≤ max(y)
        bool test_x = true;  // min(y) ≤ max(x)
        if (blk != a / block_size_) {
          const Block& sum = summary(blk);
          if (sum.empty) {
            continue;
          }
          if (sum.usable) {
            test_y = !leq_pass(x.lo, sum.hi);
            test_x = !leq_pass(sum.lo, x.hi);
            if (!test_y && !test_x) {
              continue;
            }
          }
        }
        const std::size_t end = std::min(nslots, (blk + 1) * block_size_);
        for (std::size_t b = blk * block_size_; b < end; ++b) {
          const Slot& sb = slots_[b];
          if (b == a || sb.q.empty()) {
            continue;
          }
          const Interval& y = sb.q.front();
          // Non-strict comparison: raw event timestamps from different
          // processes are never equal (so this matches the paper's strict
          // test exactly), while aggregated cuts may legitimately coincide
          // (see overlap_cuts in interval/interval.hpp).
          if (test_y && !leq_pass(x.lo, y.hi)) {
            // y can never pair with x or any successor of x: delete y.
            next_.set(b);
          }
          if (test_x && !leq_pass(y.lo, x.hi)) {
            next_.set(a);
          }
        }
      }
    });
    if (next_.any()) {
      next_.for_each([&](std::size_t c) {
        Ring& q = slots_[c].q;
        if (!q.empty()) {
          q.drop_front();
          live_ -= q.empty() ? 1U : 0U;
          --stored_;
          ++eliminated_;
        }
      });
      std::swap(updated_, next_);
      continue;
    }

    // ---- Fixpoint reached: solution check (lines 18–22) ----
    if (live_ != nslots) {
      break;
    }

    // ---- Pruning decision (lines 23–33, Eq. (10)) ----
    // Decided before the solution snapshot so pruned heads can be *moved*
    // into the Solution instead of copied; the comparisons below observe
    // the same heads either way.
    prune_.reset(nslots);
    std::size_t prune_count = 0;
    for (std::size_t a = 0; a < nslots; ++a) {
      bool removable = true;
      if (mode_ != PruneMode::kTestBrokenPruneAll) {
        // Algorithm 1 tests b = 0, 1, ... (b ≠ a) up to the first
        // max(x_b) < max(x_a), which makes Eq. (10) fail.
        const std::size_t hit = first_smaller_max(a);
        removable = hit == nslots;
        comparisons_ += removable ? nslots - 1 : hit + (hit < a ? 1 : 0);
      }
      if (removable) {
        prune_.set(a);
        ++prune_count;
        if (mode_ == PruneMode::kSingleEq10) {
          break;
        }
      }
    }
    // Theorem 4 (liveness): at least one head always satisfies Eq. (10).
    HPD_ASSERT(prune_count > 0,
               "QueueEngine: Eq.(10) pruned nothing (violates Theorem 4)");

    Solution sol;
    sol.members.reserve(nslots);
    for (std::size_t s = 0; s < nslots; ++s) {
      Slot& slot = slots_[s];
      if (prune_.test(s)) {
        // The head leaves the queue: remember a copy for restore_pruned()
        // and move the original straight into the solution.
        Interval head = slot.q.take_front();
        --stored_;
        live_ -= slot.q.empty() ? 1U : 0U;
        held_pruned_ += slot.has_pruned ? 0U : 1U;
        slot.last_pruned = head;
        slot.has_pruned = true;
        sol.members.push_back(std::move(head));
        ++pruned_;
      } else {
        sol.members.push_back(slot.q.front());
      }
    }
    solutions.push_back(std::move(sol));
    ++solutions_found_;
    std::swap(updated_, prune_);
  }
  return solutions;
}

}  // namespace hpd::detect
