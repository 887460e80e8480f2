#include "detect/slicing.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/assert.hpp"

namespace hpd::detect {

// ---- SlicingEngine ---------------------------------------------------------

void SlicingEngine::add_queue(ProcessId key) {
  engine_.add_queue(key);  // duplicate / invalid keys rejected there
  // Insert in ascending key order (streams are few; structural changes
  // are rare).
  auto it = std::lower_bound(
      streams_.begin(), streams_.end(), key,
      [](const Stream& s, ProcessId k) { return s.key < k; });
  Stream s;
  s.key = key;
  streams_.insert(it, std::move(s));
  if (idx(key) >= slot_of_.size()) {
    slot_of_.resize(idx(key) + 1, -1);
  }
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    slot_of_[idx(streams_[i].key)] = static_cast<std::int32_t>(i);
  }
}

void SlicingEngine::remove_queue(ProcessId key) {
  const std::int32_t slot = slot_index(key);
  if (slot < 0) {
    return;
  }
  engine_.remove_queue(key);
  streams_.erase(streams_.begin() + slot);
  slot_of_[idx(key)] = -1;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    slot_of_[idx(streams_[i].key)] = static_cast<std::int32_t>(i);
  }
}

std::size_t SlicingEngine::first_past(const Stream& s,
                                      const VectorClock& x_hi) const {
  // vc_leq(hist[t].lo, x_hi) is a true-prefix along the stream (lo grows
  // component-wise under succ()); find the first false.
  std::size_t lo = 0;
  std::size_t hi = s.hist.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++slice_comparisons_;
    if (vc_leq(s.hist[mid].lo, x_hi)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::size_t SlicingEngine::first_witness(const Stream& s,
                                         const VectorClock& x_lo) const {
  // vc_leq(x_lo, hist[t].hi) is a false-prefix (hi grows component-wise);
  // find the first true.
  std::size_t lo = 0;
  std::size_t hi = s.hist.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++slice_comparisons_;
    if (vc_leq(x_lo, s.hist[mid].hi)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool SlicingEngine::doomed_via(const Stream& s, const Interval& x) const {
  const std::size_t t = first_past(s, x.hi);
  if (t == s.hist.size()) {
    return false;  // window not yet closed by any recorded interval
  }
  if (mode_ == Mode::kTestBrokenEagerDoom) {
    // BROKEN: treats a closed window as an empty one — discards x even
    // when an earlier interval on this stream could still pair with it.
    return true;
  }
  // Window [S, T): empty iff x's lower cut cannot reach the hi of the
  // interval just before T (then it reaches no earlier one either).
  if (t == 0) {
    return true;
  }
  ++slice_comparisons_;
  return !vc_leq(x.lo, s.hist[t - 1].hi);
}

bool SlicingEngine::is_doomed(const Interval& x) const {
  for (const Stream& s : streams_) {
    if (s.key == x.origin) {
      continue;  // own predecessors precede x; the window is never closed
    }
    if (doomed_via(s, x)) {
      return true;
    }
  }
  return false;
}

SlicingEngine::JoinIrreducibleCut SlicingEngine::jcut(
    const Interval& x) const {
  JoinIrreducibleCut cut;
  cut.frontier = x.lo;
  cut.closed = true;
  for (const Stream& s : streams_) {
    if (s.key == x.origin) {
      continue;
    }
    const std::size_t w = first_witness(s, x.lo);
    if (w == s.hist.size()) {
      cut.closed = false;  // provisional: stream has no witness yet
      continue;
    }
    cut.frontier.merge(s.hist[w].lo);
  }
  return cut;
}

std::vector<Solution> SlicingEngine::offer(ProcessId key, Interval&& x) {
  const std::int32_t slot = slot_index(key);
  HPD_REQUIRE(slot >= 0, "SlicingEngine: offer to unknown stream");
  HPD_DASSERT(key == x.origin, "SlicingEngine: stream key is the origin");
  Stream& s = streams_[static_cast<std::size_t>(slot)];
  HPD_DASSERT(s.hist.empty() || (vc_leq(s.hist.back().lo, x.lo) &&
                                 vc_leq(s.hist.back().hi, x.hi)),
              "SlicingEngine: stream not in succ() order");
  s.hist.push_back(SliceEntry{x.lo, x.hi});
  if (is_doomed(x)) {
    ++discarded_;
    return {};
  }
  ++admitted_;
  const JoinIrreducibleCut cut = jcut(x);
  ++jcuts_computed_;
  if (cut.closed) {
    ++jcuts_closed_;
  }
  return engine_.offer(key, std::move(x));
}

SlicingEngine::Snapshot SlicingEngine::snapshot() const {
  Snapshot snap;
  snap.streams.reserve(streams_.size());
  for (const Stream& s : streams_) {
    Snapshot::Stream out;
    out.key = s.key;
    out.hist.reserve(s.hist.size());
    for (const SliceEntry& e : s.hist) {
      out.hist.push_back(Snapshot::Entry{e.lo, e.hi});
    }
    snap.streams.push_back(std::move(out));
  }
  snap.engine = engine_.snapshot();
  snap.mode = static_cast<std::uint8_t>(mode_);
  snap.admitted = admitted_;
  snap.discarded = discarded_;
  snap.jcuts_computed = jcuts_computed_;
  snap.jcuts_closed = jcuts_closed_;
  snap.slice_comparisons = slice_comparisons_;
  return snap;
}

void SlicingEngine::restore(const Snapshot& snap) {
  HPD_REQUIRE(snap.mode == static_cast<std::uint8_t>(mode_),
              "SlicingEngine::restore: slice-mode mismatch");
  streams_.clear();
  slot_of_.clear();
  engine_.restore(snap.engine);
  streams_.reserve(snap.streams.size());
  for (const Snapshot::Stream& in : snap.streams) {
    Stream s;
    s.key = in.key;
    s.hist.reserve(in.hist.size());
    for (const Snapshot::Entry& e : in.hist) {
      s.hist.push_back(SliceEntry{e.lo, e.hi});
    }
    if (idx(in.key) >= slot_of_.size()) {
      slot_of_.resize(idx(in.key) + 1, -1);
    }
    slot_of_[idx(in.key)] = static_cast<std::int32_t>(streams_.size());
    streams_.push_back(std::move(s));
  }
  admitted_ = snap.admitted;
  discarded_ = snap.discarded;
  jcuts_computed_ = snap.jcuts_computed;
  jcuts_closed_ = snap.jcuts_closed;
  slice_comparisons_ = snap.slice_comparisons;
}

// ---- SlicingDetector -------------------------------------------------------

SlicingDetector::SlicingDetector(ProcessId self,
                                 const std::vector<ProcessId>& processes,
                                 Hooks hooks, QueueEngine::PruneMode mode,
                                 std::size_t queue_capacity,
                                 SlicingEngine::Mode slice_mode)
    : self_(self), hooks_(std::move(hooks)), slicer_(slice_mode, mode) {
  slicer_.set_capacity(queue_capacity);
  bool saw_self = false;
  for (const ProcessId p : processes) {
    slicer_.add_queue(p);
    if (p == self_) {
      saw_self = true;
    } else {
      reorder_.track(p, 1);
    }
  }
  HPD_REQUIRE(saw_self, "SlicingDetector: sink must be among the processes");
}

void SlicingDetector::local_interval(Interval x) {
  HPD_DASSERT(x.origin == self_, "SlicingDetector: local interval origin");
  handle_solutions(slicer_.offer(self_, std::move(x)));
}

void SlicingDetector::report(Interval x) {
  const ProcessId origin = x.origin;
  if (!slicer_.has_queue(origin)) {
    return;  // stale report from a removed process
  }
  for (Interval& y : reorder_.push(origin, std::move(x))) {
    handle_solutions(slicer_.offer(origin, std::move(y)));
  }
}

void SlicingDetector::remove_process(ProcessId id) {
  HPD_REQUIRE(id != self_, "SlicingDetector: cannot remove the sink itself");
  if (!slicer_.has_queue(id)) {
    return;
  }
  slicer_.remove_queue(id);
  reorder_.untrack(id);
  handle_solutions(slicer_.recheck());
}

SlicingDetector::Snapshot SlicingDetector::snapshot() const {
  Snapshot snap;
  snap.self = self_;
  snap.slicer = slicer_.snapshot();
  snap.reorder = reorder_.snapshot();
  snap.next_seq = next_seq_;
  snap.occurrence_count = occurrence_count_;
  return snap;
}

void SlicingDetector::restore(const Snapshot& snap) {
  HPD_REQUIRE(snap.self == self_, "SlicingDetector::restore: sink id mismatch");
  slicer_.restore(snap.slicer);
  reorder_.restore(snap.reorder);
  next_seq_ = snap.next_seq;
  occurrence_count_ = snap.occurrence_count;
}

void SlicingDetector::handle_solutions(std::vector<Solution>&& sols) {
  for (Solution& sol : sols) {
    OccurrenceRecord rec;
    rec.detector = self_;
    rec.index = ++occurrence_count_;
    rec.time = now();
    rec.global = true;
    rec.aggregate = aggregate(std::span<const Interval>(sol.members), self_,
                              next_seq_++);
    rec.latest_member_completion = rec.aggregate.completed_at;
    rec.solution = std::move(sol.members);
    if (hooks_.on_occurrence) {
      hooks_.on_occurrence(rec);
    }
  }
}

}  // namespace hpd::detect
