// Intervals of local-predicate truth and the paper's aggregation operator ⊓.
//
// An interval x is identified by two vector timestamps: lo = min(x), the
// timestamp of the first event of the truth period, and hi = max(x), the
// timestamp of the last event of the truth period. Aggregated intervals
// (Section III-C) are identified by *cuts* rather than events, but are
// represented identically and treated uniformly (Theorems 1 and 2).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "vc/vector_clock.hpp"

namespace hpd {

/// Test-only provenance: which base intervals an aggregate represents.
/// Shared immutable DAG. Not counted as wire words; the codec serializes
/// it (flattened to the base set) only when attached, so differential
/// oracles can follow solutions across a real socket (rt::ReactorTransport).
struct Provenance {
  ProcessId origin = kNoProcess;  ///< process of the base interval
  SeqNum seq = 0;                 ///< per-origin interval number
  std::vector<std::shared_ptr<const Provenance>> parts;  ///< empty for base
};

struct Interval {
  VectorClock lo;  ///< min(x)
  VectorClock hi;  ///< max(x)

  /// Process that produced this interval: the process where the local
  /// predicate held (base interval) or the subtree root that generated the
  /// aggregate.
  ProcessId origin = kNoProcess;

  /// Per-origin monotone sequence number; establishes the succ() relation
  /// of Section III-D for intervals of the same origin.
  SeqNum seq = 0;

  /// Number of base intervals this interval represents (1 if not aggregated).
  std::uint32_t weight = 1;

  /// True iff produced by the aggregation operator ⊓.
  bool aggregated = false;

  /// Instrumentation (not on the wire): simulation time at which the truth
  /// period completed. Aggregates carry the max over their members, so a
  /// detector can compute detection latency = now − completed_at.
  SimTime completed_at = 0.0;

  /// Optional test instrumentation (see Provenance).
  std::shared_ptr<const Provenance> provenance;

  /// Words on the wire: two vector timestamps plus a small constant header.
  std::size_t wire_size() const { return lo.wire_size() + hi.wire_size() + 4; }

  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const Interval& x);

/// Pairwise overlap test of the paper (Section III-C):
///   overlap(x, y)  ⇔  min(x) < max(y)  ∧  min(y) < max(x).
/// For x == y this degenerates to min(x) < max(x).
bool overlap(const Interval& x, const Interval& y);

/// overlap(X): every ordered pair of *distinct* intervals in X satisfies
/// min(xi) < max(xj) — the paper's Definitely(Φ) condition, Eq. (2).
/// Self pairs are excluded: along a single process, min(x) precedes-or-
/// equals max(x) by program order, and a single-event interval (lo == hi)
/// must not falsify the condition (Definitely of one local interval holds
/// trivially).
bool overlap(std::span<const Interval> xs);

/// Cut-level overlap: like overlap(x, y) but with non-strict comparisons.
///
/// Rationale (library erratum to the paper): aggregated intervals are
/// identified by *cuts*, and the join of the members' mins can coincide
/// exactly with the meet of another set's maxes even though every
/// underlying raw pair strictly crosses — the paper's Theorem 1 infers a
/// strict vector inequality from pairwise strict inequalities, which does
/// not hold in general. Two raw event timestamps from different processes
/// can never be equal, so for non-aggregated intervals this test coincides
/// with the strict one; for aggregates it repairs the (rare) missed
/// detection. The universally valid direction sandwich is:
///   overlap(⊓X, ⊓Y) ∧ parts ⇒ overlap(X ∪ Y) ⇒ overlap_cuts(⊓X, ⊓Y) ∧ parts.
bool overlap_cuts(const Interval& x, const Interval& y);

/// The aggregation operator ⊓ of Eqs. (5) and (6):
///   min(⊓X)[i] = max over x in X of min(x)[i]
///   max(⊓X)[i] = min over x in X of max(x)[i]
/// `origin` and `seq` identify the aggregate at the generating node.
/// Provenance is attached iff every input carries provenance.
Interval aggregate(std::span<const Interval> xs, ProcessId origin, SeqNum seq);

/// Convenience overload for exactly two sets' aggregates (Theorem 1 tests).
/// Computed directly — the inputs are not copied into a temporary array.
Interval aggregate(const Interval& a, const Interval& b, ProcessId origin,
                   SeqNum seq);

/// The bounds of ⊓ accumulated in place over intervals held elsewhere:
/// lo ← lo ⊔ x.lo (Eq. (5)) and hi ← hi ⊓ x.hi (Eq. (6)) for every x in
/// `xs`. Every clock must have lo's width. QueueEngine keeps its block
/// summaries of queue heads with it.
void meet_join_into(VectorClock& lo, VectorClock& hi,
                    std::span<const Interval* const> xs);

/// succ relation of Section III-D: y is a successor of x iff they share an
/// origin and max(x) < min(y). (Theorem 2 proves aggregates generated at the
/// same node are totally ordered this way.)
bool is_successor(const Interval& x, const Interval& y);

/// Collect the base (origin, seq) pairs under an interval's provenance,
/// sorted by (origin, seq). Empty if provenance was not tracked.
std::vector<std::pair<ProcessId, SeqNum>> base_intervals(const Interval& x);

/// Attach base provenance to an interval (used by the trace layer when
/// provenance tracking is enabled).
void attach_base_provenance(Interval& x);

}  // namespace hpd
