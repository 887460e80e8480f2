// One protocol process: application layer (workload behaviour + vector
// clock), detection layer (hierarchical engine, or centralized sink /
// relay), and failure-handling layer (heartbeats + reattachment), sharing
// the process's single transport endpoint.
//
// The runtime is written against transport::Endpoint only, so the exact
// same code executes inside the deterministic simulator (sim::Network) and
// over real sockets (rt::ReactorTransport).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/hier_engine.hpp"
#include "detect/centralized.hpp"
#include "detect/slicing.hpp"
#include "ft/heartbeat.hpp"
#include "ft/reattach.hpp"
#include "proto/messages.hpp"
#include "runner/experiment.hpp"
#include "trace/app_core.hpp"
#include "transport/endpoint.hpp"
#include "transport/node.hpp"
#include "wire/codec.hpp"

namespace hpd::runner {

// Byte encoding per payload type (wire mode); the report payload needs the
// tag because it appears under two message types.
inline std::vector<std::uint8_t> encode_payload(int, const proto::AppPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(int type,
                                                const proto::ReportPayload& p) {
  return wire::encode_report(p, type);
}
inline std::vector<std::uint8_t> encode_payload(
    int, const proto::HeartbeatPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(int,
                                                const proto::ProbePayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(
    int, const proto::ProbeAckPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(
    int, const proto::AttachReqPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(
    int, const proto::AttachAckPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(
    int, const proto::DelegatePayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(
    int, const proto::DelegateFailPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(int,
                                                const proto::FlipPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(
    int, const proto::FlipAckPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(int,
                                                const proto::FlipGoPayload& p) {
  return wire::encode(p);
}
inline std::vector<std::uint8_t> encode_payload(int,
                                                const proto::DisownPayload& p) {
  return wire::encode(p);
}

class ProcessRuntime final : public transport::Node {
 public:
  /// Experiment-wide context shared by all runtimes (owned by the driver).
  /// In the live runtime, metrics / occurrences / global_count point at
  /// per-node storage (merged at shutdown) so reactor workers never share
  /// mutable state.
  struct Shared {
    const ExperimentConfig* config = nullptr;
    transport::Endpoint* net = nullptr;
    MetricsRegistry* metrics = nullptr;
    std::vector<detect::OccurrenceRecord>* occurrences = nullptr;  // nullable
    std::uint64_t* global_count = nullptr;
    ProcessId sink = kNoProcess;  ///< initial tree root
  };

  ProcessRuntime(ProcessId self, const Shared& shared, Rng rng);

  // transport::Node
  void on_start() override;
  void on_message(const transport::Message& msg) override;
  void on_timer(int tag) override;
  void on_peer_unreachable(ProcessId peer) override;

  // ---- Inspection (results collection / tests) ---------------------------

  ProcessId self() const { return self_; }

  /// Close any still-open local interval at the end of the run.
  void finalize_app() { core_.finalize(); }

  /// Crash recovery: the network has just revived this node; reset all
  /// layers to a fresh-leaf incarnation, re-arm timers, and (in
  /// fault-tolerant mode) start searching for a parent.
  void on_revive();

  ProcessId current_parent() const { return parent_; }
  const std::vector<ProcessId>& current_children() const { return children_; }
  const trace::AppCore& core() const { return core_; }
  const core::HierNodeEngine* hier() const {
    return hier_ ? &*hier_ : nullptr;
  }
  const detect::CentralSink* sink() const {
    return sink_ ? &*sink_ : nullptr;
  }
  const detect::SlicingDetector* slicing_sink() const {
    return slicing_sink_ ? &*slicing_sink_ : nullptr;
  }
  std::uint64_t child_intervals_received() const {
    return child_intervals_received_;
  }

 private:
  // Timer tags.
  static constexpr int kTagHeartbeat = 1;
  static constexpr int kTagProbeWindow = 2;
  static constexpr int kTagRetry = 3;
  static constexpr int kTagRootMerge = 4;
  static constexpr int kAppTagBase = 10;

  void setup_app();
  void setup_detector();
  void setup_ft();

  /// Send a protocol payload, typed in-memory or byte-encoded (wire mode).
  template <typename P>
  void send(ProcessId dst, int type, const P& p) {
    transport::Message m;
    m.src = self_;
    m.dst = dst;
    m.type = type;
    m.wire_words = p.wire_words();
    if (shared_.config->wire_encoding) {
      std::vector<std::uint8_t> bytes = encode_payload(type, p);
      m.wire_bytes = bytes.size();
      m.payload = std::move(bytes);
    } else {
      m.payload = p;
    }
    shared_.net->send(std::move(m));
  }

  /// The typed dispatch (payload already decoded in wire mode).
  void dispatch(const transport::Message& msg);

  // Application plumbing.
  void app_send(ProcessId dst, int subtype, SeqNum round);
  void on_local_interval(const Interval& x);

  // Hierarchical report path with an outbox that survives orphanhood.
  void queue_report(const Interval& agg);
  void flush_outbox();

  // Failure handling.
  void on_neighbor_failed(ProcessId neighbor, bool was_parent);
  void on_attached(ProcessId new_parent);
  void on_search_exhausted();
  void become_root();
  void handle_attach_request(ProcessId from, SeqNum first_seq);

  /// Re-sending the last delivered aggregate is only coherent when it
  /// directly precedes the next report the parent will see; a node that
  /// generated aggregates while it had no parent (orphan buffering cleared
  /// by become_root, or a partition-root phase) has a gap that must not be
  /// advertised.
  bool should_resend_last() const;
  SeqNum attach_first_seq() const;

  // Subtree-wide parent search (DFS delegation) and the FLIP re-rooting
  // chain — see ft/reattach.hpp.
  void start_delegation(ProcessId orphan);
  void send_next_delegate();
  void handle_delegate(ProcessId from, ProcessId orphan);
  void handle_delegate_fail(ProcessId from, ProcessId orphan);
  void handle_flip(ProcessId from, ProcessId orphan);
  void handle_flip_ack(ProcessId from, SeqNum first_seq);
  void handle_flip_go(ProcessId from);

  void record_occurrence(const detect::OccurrenceRecord& rec);

  ProcessId self_;
  Shared shared_;
  Rng rng_;

  // Dynamic tree view (single source of truth for this node).
  ProcessId parent_ = kNoProcess;
  std::vector<ProcessId> children_;

  trace::AppCore core_;
  std::unique_ptr<trace::AppBehavior> behavior_;
  trace::AppContext actx_;

  std::optional<core::HierNodeEngine> hier_;
  std::optional<detect::CentralSink> sink_;
  std::optional<detect::SlicingDetector> slicing_sink_;

  std::optional<ft::HeartbeatAgent> hb_;
  std::optional<ft::ReattachProtocol> reattach_;

  // Hierarchical report outbox (pending while orphaned) + last delivered.
  std::deque<Interval> outbox_;
  std::optional<Interval> last_sent_;
  /// Reports are held back until the new parent confirmed the queue exists
  /// (FLIP_GO), so a report cannot overtake the flip handshake.
  bool await_flip_go_ = false;

  // Delegated-search bookkeeping.
  bool searching_as_delegate_ = false;
  ProcessId search_forbidden_ = kNoProcess;
  bool delegating_ = false;
  ProcessId delegation_orphan_ = kNoProcess;
  std::vector<ProcessId> delegation_candidates_;
  std::size_t delegation_next_ = 0;
  ProcessId active_delegate_ = kNoProcess;
  ProcessId pending_flip_child_ = kNoProcess;

  std::uint64_t child_intervals_received_ = 0;
};

}  // namespace hpd::runner
