#include "core/hier_engine.hpp"

#include <span>
#include <utility>

#include "common/assert.hpp"

namespace hpd::core {

HierNodeEngine::HierNodeEngine(const Config& config, Hooks hooks)
    : self_(config.self),
      has_parent_(config.has_parent),
      hooks_(std::move(hooks)),
      engine_(config.prune_mode) {
  HPD_REQUIRE(self_ >= 0, "HierNodeEngine: bad self id");
  engine_.set_capacity(config.queue_capacity);
  engine_.add_queue(self_);  // Q0: local intervals
}

void HierNodeEngine::set_has_parent(bool has_parent) {
  has_parent_ = has_parent;
}

void HierNodeEngine::add_child(ProcessId child, SeqNum first_seq) {
  HPD_REQUIRE(child != self_, "HierNodeEngine: cannot adopt self");
  // The detection scope grows: recently pruned heads become viable again
  // (see QueueEngine::restore_pruned). No solution can complete yet — the
  // new child's queue starts empty — so no recheck is needed here.
  engine_.restore_pruned();
  engine_.add_queue(child);
  reorder_.track(child, first_seq);
}

void HierNodeEngine::ensure_child(ProcessId child, SeqNum first_seq) {
  if (engine_.has_queue(child)) {
    reorder_.track(child, first_seq);
    return;
  }
  add_child(child, first_seq);
}

void HierNodeEngine::remove_child(ProcessId child) {
  engine_.remove_queue(child);
  reorder_.untrack(child);
  handle_solutions(engine_.recheck());
}

void HierNodeEngine::reset_as_leaf() {
  for (const ProcessId key : engine_.keys()) {
    if (key == self_) {
      engine_.clear_queue(self_);
    } else {
      engine_.remove_queue(key);
      reorder_.untrack(key);
    }
  }
}

void HierNodeEngine::local_interval(Interval x) {
  HPD_DASSERT(x.origin == self_, "HierNodeEngine: local interval origin");
  handle_solutions(engine_.offer(self_, std::move(x)));
}

void HierNodeEngine::child_report(ProcessId child, Interval x) {
  if (!engine_.has_queue(child)) {
    return;  // stale report from a removed child
  }
  for (Interval& y : reorder_.push(child, std::move(x))) {
    handle_solutions(engine_.offer(child, std::move(y)));
  }
}

HierNodeEngine::Snapshot HierNodeEngine::snapshot() const {
  Snapshot snap;
  snap.self = self_;
  snap.has_parent = has_parent_;
  snap.engine = engine_.snapshot();
  snap.reorder = reorder_.snapshot();
  snap.next_seq = next_seq_;
  snap.occurrence_count = occurrence_count_;
  snap.last_report = last_report_;
  return snap;
}

void HierNodeEngine::restore(const Snapshot& snap) {
  HPD_REQUIRE(snap.self == self_, "HierNodeEngine::restore: node id mismatch");
  has_parent_ = snap.has_parent;
  engine_.restore(snap.engine);
  reorder_.restore(snap.reorder);
  next_seq_ = snap.next_seq;
  occurrence_count_ = snap.occurrence_count;
  last_report_ = snap.last_report;
}

void HierNodeEngine::resend_last_report() {
  if (last_report_.has_value() && has_parent_ && hooks_.send_report) {
    hooks_.send_report(*last_report_);
  }
}

void HierNodeEngine::handle_solutions(std::vector<detect::Solution>&& sols) {
  for (detect::Solution& sol : sols) {
    Interval agg = aggregate(std::span<const Interval>(sol.members), self_,
                             next_seq_++);
    detect::OccurrenceRecord rec;
    rec.detector = self_;
    rec.index = ++occurrence_count_;
    rec.time = now();
    rec.latest_member_completion = agg.completed_at;
    rec.global = !has_parent_;
    rec.aggregate = agg;
    rec.solution = std::move(sol.members);
    if (hooks_.on_occurrence) {
      hooks_.on_occurrence(rec);
    }
    if (has_parent_) {
      HPD_ASSERT(hooks_.send_report != nullptr,
                 "HierNodeEngine: has parent but no send hook");
      hooks_.send_report(agg);
      last_report_ = std::move(agg);
    }
  }
}

}  // namespace hpd::core
