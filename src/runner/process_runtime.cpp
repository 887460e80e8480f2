#include "runner/process_runtime.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace hpd::runner {

ProcessRuntime::ProcessRuntime(ProcessId self, const Shared& shared, Rng rng)
    : self_(self),
      shared_(shared),
      rng_(rng),
      core_(self, shared.config->topology.size(),
            [this](const Interval& x) { on_local_interval(x); }) {
  const ExperimentConfig& cfg = *shared_.config;
  parent_ = cfg.tree.parent(self_);
  children_ = cfg.tree.children(self_);
  core_.set_track_provenance(cfg.track_provenance);
  core_.set_time_source([this] { return shared_.net->now(); });
  if (cfg.record_execution) {
    core_.enable_recording([this] { return shared_.net->now(); });
  }
  setup_app();
  setup_detector();
  setup_ft();
}

void ProcessRuntime::setup_app() {
  const ExperimentConfig& cfg = *shared_.config;
  HPD_REQUIRE(cfg.behavior_factory != nullptr,
              "ExperimentConfig: behavior_factory is required");
  behavior_ = cfg.behavior_factory(self_);
  actx_.self = self_;
  actx_.core = &core_;
  actx_.rng = &rng_;
  actx_.topo = &cfg.topology;
  actx_.parent = [this] { return parent_; };
  actx_.children = [this] { return children_; };
  actx_.send_app = [this](ProcessId dst, int subtype, SeqNum round) {
    app_send(dst, subtype, round);
  };
  actx_.set_timer = [this](int tag, SimTime delay) {
    shared_.net->set_timer(self_, kAppTagBase + tag, std::max(0.0, delay));
  };
  actx_.now = [this] { return shared_.net->now(); };
}

void ProcessRuntime::setup_detector() {
  const ExperimentConfig& cfg = *shared_.config;
  if (cfg.detector == DetectorKind::kHierarchical) {
    core::HierNodeEngine::Config hc;
    hc.self = self_;
    hc.has_parent = (parent_ != kNoProcess);
    hc.prune_mode = cfg.prune_mode;
    hc.queue_capacity = cfg.queue_capacity;
    core::HierNodeEngine::Hooks hooks;
    hooks.send_report = [this](const Interval& agg) { queue_report(agg); };
    hooks.on_occurrence = [this](const detect::OccurrenceRecord& rec) {
      record_occurrence(rec);
    };
    hooks.now = [this] { return shared_.net->now(); };
    hier_.emplace(hc, std::move(hooks));
    for (const ProcessId c : children_) {
      hier_->add_child(c, 1);
    }
  } else if (self_ == shared_.sink) {
    std::vector<ProcessId> all(cfg.topology.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<ProcessId>(i);
    }
    if (cfg.detector == DetectorKind::kCentralized) {
      detect::CentralSink::Hooks hooks;
      hooks.on_occurrence = [this](const detect::OccurrenceRecord& rec) {
        record_occurrence(rec);
      };
      hooks.now = [this] { return shared_.net->now(); };
      sink_.emplace(self_, all, std::move(hooks), cfg.prune_mode,
                    cfg.queue_capacity);
    } else {
      detect::SlicingDetector::Hooks hooks;
      hooks.on_occurrence = [this](const detect::OccurrenceRecord& rec) {
        record_occurrence(rec);
      };
      hooks.now = [this] { return shared_.net->now(); };
      slicing_sink_.emplace(self_, all, std::move(hooks), cfg.prune_mode,
                            cfg.queue_capacity, cfg.slicing_mode);
    }
  }
}

void ProcessRuntime::setup_ft() {
  const ExperimentConfig& cfg = *shared_.config;
  if (!cfg.heartbeats) {
    return;
  }
  HPD_REQUIRE(cfg.detector == DetectorKind::kHierarchical,
              "heartbeats / repair are only wired for the hierarchical "
              "detector (the centralized baseline has no failure handling)");
  ft::HeartbeatAgent::Hooks hb_hooks;
  hb_hooks.send = [this](ProcessId dst, const proto::HeartbeatPayload& p) {
    send(dst, proto::kHeartbeat, p);
  };
  hb_hooks.on_failed = [this](ProcessId nbr, bool was_parent) {
    on_neighbor_failed(nbr, was_parent);
  };
  hb_hooks.now = [this] { return shared_.net->now(); };
  hb_.emplace(self_, cfg.hb_config, std::move(hb_hooks));
  if (parent_ == kNoProcess) {
    hb_->init_as_root();
  } else {
    hb_->init_with_parent(parent_, cfg.tree.path_to_root(self_));
  }
  for (const ProcessId c : children_) {
    hb_->add_child(c);
  }

  ft::ReattachProtocol::Hooks ra_hooks;
  ra_hooks.broadcast_probe = [this] {
    for (const ProcessId nbr : shared_.config->topology.neighbors(self_)) {
      send(nbr, proto::kProbe, proto::ProbePayload{});
    }
  };
  ra_hooks.send_attach_req = [this](ProcessId dst) {
    proto::AttachReqPayload p;
    p.next_report_seq = attach_first_seq();
    send(dst, proto::kAttachReq, p);
  };
  ra_hooks.set_timer = [this](int tag, SimTime delay) {
    const int runtime_tag = (tag == ft::ReattachProtocol::kProbeWindowTag)
                                ? kTagProbeWindow
                                : kTagRetry;
    shared_.net->set_timer(self_, runtime_tag, delay);
  };
  ra_hooks.on_attached = [this](ProcessId p) { on_attached(p); };
  ra_hooks.on_search_exhausted = [this] { on_search_exhausted(); };
  reattach_.emplace(self_, cfg.reattach_config, std::move(ra_hooks));
}

void ProcessRuntime::on_start() {
  if (behavior_) {
    behavior_->on_start(actx_);
  }
  if (hb_) {
    // Random phase so the fleet's beats do not synchronize.
    const SimTime phase =
        rng_.uniform_real(0.0, shared_.config->hb_config.period);
    shared_.net->set_timer(self_, kTagHeartbeat, phase, /*periodic=*/true,
                           shared_.config->hb_config.period);
    // Even the deployment-time root probes for a smaller-id tree: if the
    // network ever splits and heals, exactly one of any two adjacent trees'
    // roots can merge under the other, re-unifying detection.
    const SimTime period = shared_.config->reattach_config.root_merge_period;
    if (parent_ == kNoProcess && period > 0.0) {
      shared_.net->set_timer(self_, kTagRootMerge, period);
    }
  }
}

void ProcessRuntime::on_revive() {
  HPD_DEBUG("node " << self_ << ": reviving at t=" << shared_.net->now());
  // Volatile state died with the old incarnation.
  children_.clear();
  await_flip_go_ = false;
  searching_as_delegate_ = false;
  delegating_ = false;
  active_delegate_ = kNoProcess;
  pending_flip_child_ = kNoProcess;
  outbox_.clear();
  last_sent_.reset();
  core_.abandon_open_interval();
  if (hier_) {
    hier_->reset_as_leaf();
  }
  if (hb_) {
    hb_->reset();
    parent_ = kNoProcess;
    const SimTime phase =
        rng_.uniform_real(0.0, shared_.config->hb_config.period);
    shared_.net->set_timer(self_, kTagHeartbeat, phase, /*periodic=*/true,
                           shared_.config->hb_config.period);
  }
  // In centralized / slicing mode the tree is static: keep the old parent
  // so relayed reporting resumes immediately.
  if (behavior_) {
    // Behaviours re-arm their timers; already-executed steps are guarded by
    // their own per-round / per-action state.
    behavior_->on_start(actx_);
  }
  if (reattach_) {
    reattach_->reset();
    reattach_->begin(ft::ReattachProtocol::Mode::kOrphan, self_);
  }
}

void ProcessRuntime::app_send(ProcessId dst, int subtype, SeqNum round) {
  proto::AppPayload p;
  p.subtype = subtype;
  p.round = round;
  p.stamp = core_.prepare_send(dst);
  send(dst, proto::kApp, p);
}

void ProcessRuntime::on_message(const transport::Message& msg) {
  if (!shared_.config->wire_encoding) {
    dispatch(msg);
    return;
  }
  // Wire mode: the payload travelled as bytes; decode and re-dispatch.
  const auto& bytes =
      std::any_cast<const std::vector<std::uint8_t>&>(msg.payload);
  const wire::DecodedMessage dm = wire::decode(bytes);
  HPD_ASSERT(dm.type == msg.type, "wire: tag/type mismatch");
  transport::Message typed = msg;
  switch (dm.type) {
    case proto::kApp:
      typed.payload = dm.app;
      break;
    case proto::kReportHier:
    case proto::kReportCentral:
      typed.payload = dm.report;
      break;
    case proto::kHeartbeat:
      typed.payload = dm.heartbeat;
      break;
    case proto::kProbe:
      typed.payload = proto::ProbePayload{};
      break;
    case proto::kProbeAck:
      typed.payload = dm.probe_ack;
      break;
    case proto::kAttachReq:
      typed.payload = dm.attach_req;
      break;
    case proto::kAttachAck:
      typed.payload = dm.attach_ack;
      break;
    case proto::kDelegate:
      typed.payload = dm.delegate;
      break;
    case proto::kDelegateFail:
      typed.payload = dm.delegate_fail;
      break;
    case proto::kFlip:
      typed.payload = dm.flip;
      break;
    case proto::kFlipAck:
      typed.payload = dm.flip_ack;
      break;
    case proto::kFlipGo:
      typed.payload = proto::FlipGoPayload{};
      break;
    case proto::kDisown:
      typed.payload = proto::DisownPayload{};
      break;
    default:
      HPD_REQUIRE(false, "wire: unknown decoded type");
  }
  dispatch(typed);
}

void ProcessRuntime::dispatch(const transport::Message& msg) {
  switch (msg.type) {
    case proto::kApp: {
      const auto& p = std::any_cast<const proto::AppPayload&>(msg.payload);
      core_.receive(msg.src, p.stamp);
      if (behavior_) {
        behavior_->on_app_message(actx_, msg.src, p.subtype, p.round);
      }
      break;
    }
    case proto::kReportHier: {
      const auto& p = std::any_cast<const proto::ReportPayload&>(msg.payload);
      if (hier_ && hier_->has_child(msg.src)) {
        ++child_intervals_received_;
        hier_->child_report(msg.src, p.interval);
      }
      break;
    }
    case proto::kReportCentral: {
      const auto& p = std::any_cast<const proto::ReportPayload&>(msg.payload);
      if (sink_) {
        sink_->report(p.interval);
      } else if (slicing_sink_) {
        slicing_sink_->report(p.interval);
      } else if (parent_ != kNoProcess) {
        // Relay one hop toward the sink (a fresh message: the paper counts
        // every hop of the centralized algorithm's reports).
        send(parent_, proto::kReportCentral, p);
      }
      // Orphaned relay in centralized mode: the report is lost — the
      // baseline has no failure handling.
      break;
    }
    case proto::kHeartbeat: {
      if (hb_) {
        hb_->on_heartbeat(
            msg.src, std::any_cast<const proto::HeartbeatPayload&>(msg.payload));
      }
      break;
    }
    case proto::kProbe: {
      if (hb_) {
        proto::ProbeAckPayload ack;
        ack.attached = hb_->attached();
        ack.root_path = hb_->root_path();
        send(msg.src, proto::kProbeAck, ack);
      }
      break;
    }
    case proto::kProbeAck: {
      if (reattach_) {
        reattach_->on_probe_ack(
            msg.src, std::any_cast<const proto::ProbeAckPayload&>(msg.payload));
      }
      break;
    }
    case proto::kAttachReq: {
      const auto& p =
          std::any_cast<const proto::AttachReqPayload&>(msg.payload);
      handle_attach_request(msg.src, p.next_report_seq);
      break;
    }
    case proto::kAttachAck: {
      if (reattach_) {
        reattach_->on_attach_ack(
            msg.src,
            std::any_cast<const proto::AttachAckPayload&>(msg.payload));
      }
      break;
    }
    case proto::kDelegate: {
      const auto& p = std::any_cast<const proto::DelegatePayload&>(msg.payload);
      handle_delegate(msg.src, p.orphan);
      break;
    }
    case proto::kDelegateFail: {
      const auto& p =
          std::any_cast<const proto::DelegateFailPayload&>(msg.payload);
      handle_delegate_fail(msg.src, p.orphan);
      break;
    }
    case proto::kFlip: {
      const auto& p = std::any_cast<const proto::FlipPayload&>(msg.payload);
      handle_flip(msg.src, p.orphan);
      break;
    }
    case proto::kFlipAck: {
      const auto& p = std::any_cast<const proto::FlipAckPayload&>(msg.payload);
      handle_flip_ack(msg.src, p.first_seq);
      break;
    }
    case proto::kFlipGo: {
      handle_flip_go(msg.src);
      break;
    }
    case proto::kDisown: {
      // Our parent has (wrongly or rightly) declared us dead and dropped
      // our queue. Treat it exactly like a parent failure: clear the
      // relation and search for a parent again (possibly the same node —
      // the attach handshake re-establishes the report stream cleanly).
      if (msg.src == parent_) {
        if (hb_) {
          hb_->clear_parent();
        }
        on_neighbor_failed(msg.src, /*was_parent=*/true);
      }
      break;
    }
    default:
      HPD_WARN("node " << self_ << ": unknown message type " << msg.type);
  }
}

void ProcessRuntime::on_timer(int tag) {
  if (tag == kTagHeartbeat) {
    if (hb_) {
      hb_->on_tick();
    }
  } else if (tag == kTagProbeWindow) {
    if (reattach_) {
      reattach_->on_timer(ft::ReattachProtocol::kProbeWindowTag);
    }
  } else if (tag == kTagRetry) {
    if (reattach_) {
      reattach_->on_timer(ft::ReattachProtocol::kRetryTag);
    }
  } else if (tag == kTagRootMerge) {
    // Periodic partition healing: while we head a surviving partition,
    // probe for a smaller-id tree to merge back into.
    if (parent_ == kNoProcess && hb_ && hb_->is_root() && reattach_) {
      reattach_->begin(ft::ReattachProtocol::Mode::kRootMerge, self_);
      const SimTime period = shared_.config->reattach_config.root_merge_period;
      if (period > 0.0) {
        shared_.net->set_timer(self_, kTagRootMerge, period);
      }
    }
  } else if (tag >= kAppTagBase && behavior_) {
    behavior_->on_timer(actx_, tag - kAppTagBase);
  }
}

void ProcessRuntime::on_local_interval(const Interval& x) {
  if (hier_) {
    hier_->local_interval(x);
  } else if (sink_) {
    sink_->local_interval(x);
  } else if (slicing_sink_) {
    slicing_sink_->local_interval(x);
  } else if (parent_ != kNoProcess) {
    proto::ReportPayload p{x};
    send(parent_, proto::kReportCentral, p);
  }
}

void ProcessRuntime::queue_report(const Interval& agg) {
  outbox_.push_back(agg);
  flush_outbox();
}

void ProcessRuntime::flush_outbox() {
  if (parent_ == kNoProcess || await_flip_go_) {
    return;  // orphaned or mid-flip: buffer until the parent is ready
  }
  while (!outbox_.empty()) {
    proto::ReportPayload p{outbox_.front()};
    send(parent_, proto::kReportHier, p);
    last_sent_ = std::move(outbox_.front());
    outbox_.pop_front();
  }
}

void ProcessRuntime::on_neighbor_failed(ProcessId neighbor, bool was_parent) {
  HPD_DEBUG("node " << self_ << ": neighbor " << neighbor << " failed (parent="
                    << was_parent << ") at t=" << shared_.net->now());
  if (was_parent) {
    parent_ = kNoProcess;
    await_flip_go_ = false;
    searching_as_delegate_ = false;
    if (behavior_) {
      behavior_->on_tree_changed(actx_);
    }
    if (reattach_) {
      reattach_->begin(ft::ReattachProtocol::Mode::kOrphan, self_);
    }
  } else {
    children_.erase(std::remove(children_.begin(), children_.end(), neighbor),
                    children_.end());
    if (hier_) {
      hier_->remove_child(neighbor);  // may complete solutions via recheck
    }
    // Best effort: if the child is actually alive (a false-positive
    // timeout), tell it so it can reattach instead of reporting into the
    // void forever.
    send(neighbor, proto::kDisown, proto::DisownPayload{});
    if (delegating_ && neighbor == active_delegate_) {
      send_next_delegate();  // the delegate died mid-search
    }
    if (behavior_) {
      behavior_->on_tree_changed(actx_);
    }
  }
}

void ProcessRuntime::on_peer_unreachable(ProcessId peer) {
  // The live transport gave up on messages to `peer` (retransmit budget
  // exhausted, or the peer's incarnation changed under queued messages).
  // For tree neighbors that is indistinguishable from a detected failure,
  // so route it through the same path the heartbeat timeout uses — the
  // hb_ state must be cleared first or the next heartbeat round would
  // re-report the same neighbor. Non-tree traffic (probes, attach
  // requests) has its own retry logic and is left alone.
  if (!hb_ || peer == self_) {
    return;
  }
  HPD_DEBUG("node " << self_ << ": transport surfaced loss to peer " << peer
                    << " at t=" << shared_.net->now());
  if (peer == parent_) {
    hb_->clear_parent();
    on_neighbor_failed(peer, /*was_parent=*/true);
  } else if (std::find(children_.begin(), children_.end(), peer) !=
             children_.end()) {
    hb_->remove_child(peer);
    on_neighbor_failed(peer, /*was_parent=*/false);
  }
}

bool ProcessRuntime::should_resend_last() const {
  if (!shared_.config->resend_last_on_attach || !last_sent_.has_value()) {
    return false;
  }
  const SeqNum next = outbox_.empty()
                          ? (hier_ ? hier_->next_report_seq() : SeqNum{1})
                          : outbox_.front().seq;
  return last_sent_->seq + 1 == next;
}

SeqNum ProcessRuntime::attach_first_seq() const {
  if (should_resend_last()) {
    return last_sent_->seq;
  }
  if (!outbox_.empty()) {
    return outbox_.front().seq;
  }
  return hier_ ? hier_->next_report_seq() : 1;
}

void ProcessRuntime::on_attached(ProcessId new_parent) {
  HPD_DEBUG("node " << self_ << ": attached to " << new_parent << " at t="
                    << shared_.net->now());
  const ProcessId former_parent = searching_as_delegate_ ? parent_ : kNoProcess;
  parent_ = new_parent;
  if (hb_) {
    hb_->set_parent(new_parent);
  }
  if (hier_) {
    hier_->set_has_parent(true);  // an ex-partition-root stops being global
  }
  if (should_resend_last()) {
    // The last report may have died with the old parent; the attach
    // handshake told the new parent to expect exactly this sequence.
    proto::ReportPayload p{*last_sent_};
    send(parent_, proto::kReportHier, p);
  }
  flush_outbox();
  if (behavior_) {
    behavior_->on_tree_changed(actx_);
  }
  if (searching_as_delegate_) {
    // We attached on behalf of an orphaned ancestor: re-root the orphan's
    // subtree at this node by flipping the edges back to the orphan.
    searching_as_delegate_ = false;
    if (former_parent != kNoProcess) {
      pending_flip_child_ = former_parent;
      proto::FlipPayload p{search_forbidden_};
      send(former_parent, proto::kFlip, p);
    }
  }
}

void ProcessRuntime::on_search_exhausted() {
  if (reattach_ &&
      reattach_->mode() == ft::ReattachProtocol::Mode::kRootMerge) {
    return;  // still a (partition) root; the periodic probe will retry
  }
  if (searching_as_delegate_) {
    // Delegated search found nothing around this node: recurse into our
    // own children, or report failure to the delegator (our parent).
    searching_as_delegate_ = false;
    if (!children_.empty()) {
      start_delegation(search_forbidden_);
    } else if (parent_ != kNoProcess) {
      proto::DelegateFailPayload p{search_forbidden_};
      send(parent_, proto::kDelegateFail, p);
    }
    return;
  }
  // Orphan: nothing viable in our own neighbourhood; search the subtree
  // before conceding and heading the surviving partition.
  if (!children_.empty()) {
    start_delegation(self_);
  } else {
    become_root();
  }
}

void ProcessRuntime::start_delegation(ProcessId orphan) {
  delegating_ = true;
  delegation_orphan_ = orphan;
  delegation_candidates_ = children_;
  delegation_next_ = 0;
  send_next_delegate();
}

void ProcessRuntime::send_next_delegate() {
  while (delegation_next_ < delegation_candidates_.size()) {
    const ProcessId c = delegation_candidates_[delegation_next_++];
    if (std::find(children_.begin(), children_.end(), c) != children_.end()) {
      active_delegate_ = c;
      proto::DelegatePayload p{delegation_orphan_};
      send(c, proto::kDelegate, p);
      return;
    }
  }
  // Every branch exhausted.
  delegating_ = false;
  active_delegate_ = kNoProcess;
  if (delegation_orphan_ == self_) {
    become_root();
  } else if (parent_ != kNoProcess) {
    proto::DelegateFailPayload p{delegation_orphan_};
    send(parent_, proto::kDelegateFail, p);
  }
}

void ProcessRuntime::handle_delegate(ProcessId from, ProcessId orphan) {
  if (from != parent_ || !reattach_.has_value()) {
    return;  // stale (the tree moved on)
  }
  searching_as_delegate_ = true;
  search_forbidden_ = orphan;
  reattach_->begin(ft::ReattachProtocol::Mode::kDelegate, orphan);
}

void ProcessRuntime::handle_delegate_fail(ProcessId from, ProcessId orphan) {
  if (delegating_ && orphan == delegation_orphan_ && from == active_delegate_) {
    send_next_delegate();
  }
}

void ProcessRuntime::handle_flip(ProcessId from, ProcessId orphan) {
  if (std::find(children_.begin(), children_.end(), from) == children_.end()) {
    return;  // stale flip
  }
  HPD_DEBUG("node " << self_ << ": flipping under former child " << from
                    << " at t=" << shared_.net->now());
  const ProcessId former_parent = parent_;
  // The former child becomes our parent; drop its queue (its aggregates now
  // describe a subtree *containing us*).
  children_.erase(std::remove(children_.begin(), children_.end(), from),
                  children_.end());
  if (hb_) {
    hb_->remove_child(from);
  }
  await_flip_go_ = true;  // hold reports until the new parent is ready
  parent_ = from;
  if (hb_) {
    hb_->set_parent(from);
  }
  if (hier_) {
    hier_->remove_child(from);  // recheck may emit reports into the outbox
  }
  delegating_ = false;
  active_delegate_ = kNoProcess;
  proto::FlipAckPayload ack{attach_first_seq()};
  send(from, proto::kFlipAck, ack);
  if (former_parent != kNoProcess) {
    // Continue re-rooting toward the orphan.
    pending_flip_child_ = former_parent;
    proto::FlipPayload p{orphan};
    send(former_parent, proto::kFlip, p);
  }
  if (behavior_) {
    behavior_->on_tree_changed(actx_);
  }
}

void ProcessRuntime::handle_flip_ack(ProcessId from, SeqNum first_seq) {
  if (from != pending_flip_child_) {
    return;
  }
  pending_flip_child_ = kNoProcess;
  if (std::find(children_.begin(), children_.end(), from) ==
      children_.end()) {
    children_.push_back(from);
  }
  if (hb_) {
    hb_->add_child(from);
  }
  if (hier_) {
    hier_->ensure_child(from, first_seq);
  }
  send(from, proto::kFlipGo, proto::FlipGoPayload{});
  if (behavior_) {
    behavior_->on_tree_changed(actx_);
  }
}

void ProcessRuntime::handle_flip_go(ProcessId from) {
  if (parent_ != from || !await_flip_go_) {
    return;
  }
  await_flip_go_ = false;
  if (should_resend_last()) {
    proto::ReportPayload p{*last_sent_};
    send(parent_, proto::kReportHier, p);
  }
  flush_outbox();
  if (behavior_) {
    behavior_->on_tree_changed(actx_);
  }
}

void ProcessRuntime::become_root() {
  HPD_DEBUG("node " << self_ << ": becoming root at t="
                    << shared_.net->now());
  parent_ = kNoProcess;
  if (hb_) {
    hb_->become_root();
  }
  if (hier_) {
    hier_->set_has_parent(false);
  }
  outbox_.clear();
  if (behavior_) {
    behavior_->on_tree_changed(actx_);
  }
  // Partition healing: keep looking for a smaller-id tree to merge into
  // (connectivity may return, e.g. when a crashed cut vertex recovers).
  const SimTime period = shared_.config->reattach_config.root_merge_period;
  if (period > 0.0) {
    shared_.net->set_timer(self_, kTagRootMerge, period);
  }
}

void ProcessRuntime::handle_attach_request(ProcessId from, SeqNum first_seq) {
  bool accept = false;
  if (hb_ && hb_->attached() && from != self_) {
    const auto& path = hb_->root_path();
    accept = std::find(path.begin(), path.end(), from) == path.end();
  }
  if (accept && hier_) {
    if (std::find(children_.begin(), children_.end(), from) ==
        children_.end()) {
      children_.push_back(from);
    }
    hb_->add_child(from);
    hier_->ensure_child(from, first_seq);
    if (behavior_) {
      behavior_->on_tree_changed(actx_);
    }
  }
  proto::AttachAckPayload ack;
  ack.accepted = accept;
  send(from, proto::kAttachAck, ack);
}

void ProcessRuntime::record_occurrence(const detect::OccurrenceRecord& rec) {
  shared_.metrics->node(self_).detections += 1;
  if (rec.global && shared_.global_count != nullptr) {
    ++(*shared_.global_count);
  }
  if (shared_.occurrences != nullptr) {
    if (shared_.config->occurrence_solutions) {
      shared_.occurrences->push_back(rec);
    } else {
      detect::OccurrenceRecord slim;
      slim.detector = rec.detector;
      slim.index = rec.index;
      slim.time = rec.time;
      slim.latest_member_completion = rec.latest_member_completion;
      slim.global = rec.global;
      // Keep the scalar coverage info; only the O(n) clocks are stripped.
      slim.aggregate.weight = rec.aggregate.weight;
      slim.aggregate.origin = rec.aggregate.origin;
      slim.aggregate.seq = rec.aggregate.seq;
      shared_.occurrences->push_back(std::move(slim));
    }
  }
}

}  // namespace hpd::runner
