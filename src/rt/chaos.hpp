// Deterministic fault injection for the live transport.
//
// The chaos layer sits at the frame boundary of rt::ReactorTransport: just
// before a DATA frame is written to its outgoing connection, the sender
// consults plan_frame() and may drop the frame, duplicate it, flip a byte
// inside the CRC-protected region, hold it back for a while, or reset the
// whole connection. This mirrors the sim backend's sim::Strategy semantics
// (a DeliveryPlan of zero/one/many delayed copies) so the same fault plan
// can be expressed against either backend.
//
// Determinism contract: every decision is a pure function of
// (cfg.seed, src, dst, seq, attempt) — no generator state is threaded
// between calls and no wall clock is consulted. Two runs with the same
// seed, the same config and the same per-peer sequence numbers therefore
// produce the same chaos-event log (see transport_conformance_test).
// Retransmissions carry a fresh `attempt` ordinal so a retry of a dropped
// frame is a new coin toss, not a guaranteed repeat of the first outcome.
//
// Chaos applies to DATA frames only. HELLO and ACK frames are never
// perturbed: connection resets already exercise handshake/ack loss, and
// keeping the control plane clean is what makes the event log reproducible
// (ack timing is wall-clock dependent, DATA sequence numbers are not).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace hpd::rt {

/// One directional link suppression window: frames src -> dst are swallowed
/// while `from <= now < until` (until < 0 → forever). kNoProcess on either
/// side is a wildcard, so {kNoProcess, 3} isolates node 3's inbound half —
/// asymmetric partitions fall out of listing only one direction.
struct ChaosPartition {
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  SimTime from = 0.0;
  SimTime until = -1.0;

  bool covers(ProcessId s, ProcessId d, SimTime now) const {
    if (src != kNoProcess && src != s) return false;
    if (dst != kNoProcess && dst != d) return false;
    if (now < from) return false;
    return until < 0.0 || now < until;
  }
};

/// Frame-level fault plan. All probabilities are independent per frame
/// transmission; `until` bounds the injection window in SimTime so tests
/// can stop injecting before the drain phase and assert a clean flush.
struct ChaosConfig {
  double drop_p = 0.0;     ///< Swallow the frame.
  double dup_p = 0.0;      ///< Send `1 + dup_copies` identical frames.
  double corrupt_p = 0.0;  ///< Flip one byte (CRC catches it downstream).
  double reset_p = 0.0;    ///< Close the outgoing connection, frame lost.
  double delay_p = 0.0;    ///< Hold the frame back uniform(0, delay_max].
  SimTime delay_max = 4.0;
  int dup_copies = 1;      ///< Extra copies when a duplication fires.
  SimTime until = -1.0;    ///< Injection window end; < 0 → no limit.
  std::uint64_t seed = 0x51ab5u;
  std::vector<ChaosPartition> partitions;

  bool any_faults() const {
    return drop_p > 0.0 || dup_p > 0.0 || corrupt_p > 0.0 || reset_p > 0.0 ||
           delay_p > 0.0 || !partitions.empty();
  }
  bool active_at(SimTime now) const { return until < 0.0 || now < until; }
};

/// A recorded injection, one per perturbed frame transmission. Logs are
/// kept per sender thread and merged after join; canonical_sort gives the
/// run-independent order the determinism test compares.
struct ChaosEvent {
  enum class Kind : std::uint8_t {
    kDrop,
    kDuplicate,
    kCorrupt,
    kDelay,
    kReset,
    kPartition,
  };
  Kind kind = Kind::kDrop;
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  SeqNum seq = 0;
  int attempt = 0;

  friend bool operator==(const ChaosEvent& a, const ChaosEvent& b) {
    return a.kind == b.kind && a.src == b.src && a.dst == b.dst &&
           a.seq == b.seq && a.attempt == b.attempt;
  }
};

const char* to_string(ChaosEvent::Kind kind);

/// Sort by (src, dst, seq, attempt, kind): a total order independent of the
/// wall-clock interleaving the events were produced under.
void canonical_sort(std::vector<ChaosEvent>& events);

/// The outcome of the per-frame rolls, precedence already applied:
/// reset > drop > {corrupt, duplicate, delay} (the latter three compose).
struct ChaosDecision {
  bool reset = false;
  bool drop = false;
  bool corrupt = false;
  int copies = 1;        ///< Total transmissions (>= 1).
  SimTime delay = 0.0;   ///< 0 → send immediately.
};

/// Pure function of (cfg.seed, src, dst, seq, attempt); see file comment.
ChaosDecision plan_frame(const ChaosConfig& cfg, ProcessId src, ProcessId dst,
                         SeqNum seq, int attempt);

/// Which byte of a `size`-byte framed buffer a corruption flips. Any byte
/// works — length prefix, payload and CRC trailer are all covered by the
/// reader's integrity checks — but the choice must be deterministic.
std::size_t corrupt_offset(const ChaosConfig& cfg, ProcessId src,
                           ProcessId dst, SeqNum seq, int attempt,
                           std::size_t size);

/// True when some partition window currently suppresses src -> dst.
bool partitioned(const ChaosConfig& cfg, ProcessId src, ProcessId dst,
                 SimTime now);

}  // namespace hpd::rt
