#include "detect/centralized.hpp"

#include <utility>

#include "common/assert.hpp"

namespace hpd::detect {

CentralSink::CentralSink(ProcessId self,
                         const std::vector<ProcessId>& processes, Hooks hooks,
                         QueueEngine::PruneMode mode,
                         std::size_t queue_capacity)
    : self_(self), hooks_(std::move(hooks)), engine_(mode) {
  engine_.set_capacity(queue_capacity);
  bool saw_self = false;
  for (const ProcessId p : processes) {
    engine_.add_queue(p);
    if (p == self_) {
      saw_self = true;
    } else {
      reorder_.track(p, 1);
    }
  }
  HPD_REQUIRE(saw_self, "CentralSink: sink must be among the processes");
}

void CentralSink::local_interval(Interval x) {
  HPD_DASSERT(x.origin == self_, "CentralSink: local interval origin");
  handle_solutions(engine_.offer(self_, std::move(x)));
}

void CentralSink::report(Interval x) {
  const ProcessId origin = x.origin;
  if (!engine_.has_queue(origin)) {
    return;  // stale report from a removed process
  }
  for (Interval& y : reorder_.push(origin, std::move(x))) {
    handle_solutions(engine_.offer(origin, std::move(y)));
  }
}

void CentralSink::remove_process(ProcessId id) {
  HPD_REQUIRE(id != self_, "CentralSink: cannot remove the sink itself");
  if (!engine_.has_queue(id)) {
    return;
  }
  engine_.remove_queue(id);
  reorder_.untrack(id);
  handle_solutions(engine_.recheck());
}

CentralSink::Snapshot CentralSink::snapshot() const {
  Snapshot snap;
  snap.self = self_;
  snap.engine = engine_.snapshot();
  snap.reorder = reorder_.snapshot();
  snap.next_seq = next_seq_;
  snap.occurrence_count = occurrence_count_;
  return snap;
}

void CentralSink::restore(const Snapshot& snap) {
  HPD_REQUIRE(snap.self == self_, "CentralSink::restore: sink id mismatch");
  engine_.restore(snap.engine);
  reorder_.restore(snap.reorder);
  next_seq_ = snap.next_seq;
  occurrence_count_ = snap.occurrence_count;
}

void CentralSink::handle_solutions(std::vector<Solution>&& sols) {
  for (Solution& sol : sols) {
    OccurrenceRecord rec;
    rec.detector = self_;
    rec.index = ++occurrence_count_;
    rec.time = now();
    rec.global = true;
    rec.aggregate = aggregate(sol.members, self_, next_seq_++);
    rec.latest_member_completion = rec.aggregate.completed_at;
    rec.solution = std::move(sol.members);
    if (hooks_.on_occurrence) {
      hooks_.on_occurrence(rec);
    }
  }
}

}  // namespace hpd::detect
