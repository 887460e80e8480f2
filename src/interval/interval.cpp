#include "interval/interval.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"
#include "vc/simd.hpp"

namespace hpd {

std::string Interval::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Interval& x) {
  os << (x.aggregated ? "agg" : "int") << "[P" << x.origin << "#" << x.seq
     << " lo=" << x.lo << " hi=" << x.hi << " w=" << x.weight << ']';
  return os;
}

bool overlap(const Interval& x, const Interval& y) {
  return vc_less(x.lo, y.hi) && vc_less(y.lo, x.hi);
}

bool overlap(std::span<const Interval> xs) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (i != j && !vc_less(xs[i].lo, xs[j].hi)) {
        return false;
      }
    }
  }
  return true;
}

bool overlap_cuts(const Interval& x, const Interval& y) {
  return vc_leq(x.lo, y.hi) && vc_leq(y.lo, x.hi);
}

namespace {

// Provenance is attached iff every input carries one. Decided up front so
// the hot path (provenance tracking off — any input without a record)
// never touches a shared_ptr at all: a raw pointer read per input here,
// zero refcount traffic below.
bool all_have_provenance(std::span<const Interval> xs) {
  for (const Interval& x : xs) {
    if (x.provenance == nullptr) {
      return false;
    }
  }
  return true;
}

// Eqs. (5)/(6) folded in place: lo ← lo ⊔ at(k).lo and hi ← hi ⊓ at(k).hi
// for every k < count, over raw pointers. Going through component_max/min
// would materialize a fresh clock per step — a heap allocation each for
// n > VectorClock::kInlineCapacity, ~5x the cost of the arithmetic. Small
// clocks keep the fused scalar loop (it unrolls in place); larger ones take
// the dispatched many-input kernel, which keeps the lo/hi accumulators in
// registers across every input instead of a read-modify-write pass per
// input.
template <typename At>
void fold_bounds(VectorClock& lo, VectorClock& hi, std::size_t count, At at) {
  ClockValue* pl = lo.data();
  ClockValue* ph = hi.data();
  const std::size_t n = lo.size();
  HPD_REQUIRE(hi.size() == n, "aggregate: lo/hi size mismatch");
  if (n <= VectorClock::kInlineCapacity) {
    for (std::size_t k = 0; k < count; ++k) {
      HPD_REQUIRE(at(k).lo.size() == n && at(k).hi.size() == n,
                  "aggregate: clock size mismatch");
      const ClockValue* ql = at(k).lo.data();
      const ClockValue* qh = at(k).hi.data();
      for (std::size_t i = 0; i < n; ++i) {
        pl[i] = std::max(pl[i], ql[i]);  // Eq. (5)
        ph[i] = std::min(ph[i], qh[i]);  // Eq. (6)
      }
    }
    return;
  }
  for (std::size_t k = 0; k < count; ++k) {
    HPD_REQUIRE(at(k).lo.size() == n && at(k).hi.size() == n,
                "aggregate: clock size mismatch");
  }
  // Pointer groups are bounded so the scratch stays on the stack for any
  // batch size; max/min are elementwise, so grouping cannot change a bit of
  // the result.
  const auto& ker = vc_simd::kernels();
  constexpr std::size_t kGroup = 32;
  const ClockValue* qls[kGroup];
  const ClockValue* qhs[kGroup];
  std::size_t k = 0;
  while (k < count) {
    const std::size_t group = std::min(kGroup, count - k);
    for (std::size_t g = 0; g < group; ++g) {
      qls[g] = at(k + g).lo.data();
      qhs[g] = at(k + g).hi.data();
    }
    ker.meet_join_many(pl, ph, qls, qhs, group, n);
    k += group;
  }
}

}  // namespace

Interval aggregate(std::span<const Interval> xs, ProcessId origin, SeqNum seq) {
  HPD_REQUIRE(!xs.empty(), "aggregate: empty interval set");
  const bool all_provenance = all_have_provenance(xs);
  Interval out;
  out.lo = xs.front().lo;
  out.hi = xs.front().hi;
  out.weight = 0;
  for (const Interval& x : xs) {
    out.weight += x.weight;
    out.completed_at = std::max(out.completed_at, x.completed_at);
  }
  fold_bounds(out.lo, out.hi, xs.size() - 1,
              [&](std::size_t k) -> const Interval& { return xs[k + 1]; });
  out.origin = origin;
  out.seq = seq;
  out.aggregated = true;
  if (all_provenance) {
    auto prov = std::make_shared<Provenance>();
    prov->origin = origin;
    prov->seq = seq;
    prov->parts.reserve(xs.size());
    for (const Interval& x : xs) {
      prov->parts.push_back(x.provenance);
    }
    out.provenance = std::move(prov);
  }
  return out;
}

Interval aggregate(const Interval& a, const Interval& b, ProcessId origin,
                   SeqNum seq) {
  // Direct computation — no temporary Interval array, so no deep copies of
  // the inputs' clocks (the former implementation copied both intervals
  // just to build a span).
  Interval out;
  out.lo = component_max(a.lo, b.lo);  // Eq. (5)
  out.hi = component_min(a.hi, b.hi);  // Eq. (6)
  out.weight = a.weight + b.weight;
  out.completed_at = std::max(a.completed_at, b.completed_at);
  out.origin = origin;
  out.seq = seq;
  out.aggregated = true;
  if (a.provenance != nullptr && b.provenance != nullptr) {
    auto prov = std::make_shared<Provenance>();
    prov->origin = origin;
    prov->seq = seq;
    prov->parts.reserve(2);
    prov->parts.push_back(a.provenance);
    prov->parts.push_back(b.provenance);
    out.provenance = std::move(prov);
  }
  return out;
}

void meet_join_into(VectorClock& lo, VectorClock& hi,
                    std::span<const Interval* const> xs) {
  fold_bounds(lo, hi, xs.size(),
              [&](std::size_t k) -> const Interval& { return *xs[k]; });
}

bool is_successor(const Interval& x, const Interval& y) {
  return x.origin == y.origin && vc_less(x.hi, y.lo);
}

namespace {

void collect_bases(const Provenance& p,
                   std::vector<std::pair<ProcessId, SeqNum>>& out) {
  if (p.parts.empty()) {
    out.emplace_back(p.origin, p.seq);
    return;
  }
  for (const auto& part : p.parts) {
    if (part != nullptr) {
      collect_bases(*part, out);
    }
  }
}

}  // namespace

std::vector<std::pair<ProcessId, SeqNum>> base_intervals(const Interval& x) {
  std::vector<std::pair<ProcessId, SeqNum>> out;
  if (x.provenance != nullptr) {
    collect_bases(*x.provenance, out);
    std::sort(out.begin(), out.end());
  }
  return out;
}

void attach_base_provenance(Interval& x) {
  auto prov = std::make_shared<Provenance>();
  prov->origin = x.origin;
  prov->seq = x.seq;
  x.provenance = std::move(prov);
}

}  // namespace hpd
