// Differential property tests: the ISSUE-5 hot path (small-buffer
// VectorClock, fused comparison kernels, slot-flattened QueueEngine)
// against the frozen pre-optimization implementations kept verbatim under
// tests/reference/ (namespace hpd::reference). The optimization claims
// *bit-identical semantics* — every observable (solutions, statistics,
// queue contents, comparison counts) must match over fuzzed schedules,
// including structural fault-tolerance operations.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "detect/queue_engine.hpp"
#include "reference/queue_engine.hpp"
#include "reference/vector_clock.hpp"
#include "vc/vector_clock.hpp"

namespace hpd {
namespace {

// ---- VectorClock kernels vs the frozen seed --------------------------------

reference::VectorClock ref_clock(const VectorClock& vc) {
  reference::VectorClock out(vc.size());
  for (std::size_t i = 0; i < vc.size(); ++i) {
    out[i] = vc[i];
  }
  return out;
}

VectorClock random_clock(Rng& rng, std::size_t n, ClockValue max_value) {
  VectorClock vc(n);
  for (std::size_t i = 0; i < n; ++i) {
    vc[i] = static_cast<ClockValue>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_value)));
  }
  return vc;
}

TEST(VcDifferentialTest, FusedKernelsMatchSeedOverFuzzedPairs) {
  Rng rng(20260807);
  for (int iter = 0; iter < 4000; ++iter) {
    // Straddle the inline capacity (16): both storage modes must agree.
    const std::size_t n = 1 + rng.uniform_index(40);
    // Small component range so equal / dominated pairs actually occur.
    const auto max_value =
        static_cast<ClockValue>(1 + rng.uniform_index(4) * 40);
    VectorClock a = random_clock(rng, n, max_value);
    VectorClock b = rng.uniform_int(0, 4) == 0 ? a  // force equality often
                                               : random_clock(rng, n, max_value);
    const reference::VectorClock ra = ref_clock(a);
    const reference::VectorClock rb = ref_clock(b);

    EXPECT_EQ(static_cast<int>(compare(a, b)),
              static_cast<int>(reference::compare(ra, rb)));
    EXPECT_EQ(vc_less(a, b), reference::vc_less(ra, rb));
    EXPECT_EQ(vc_less(b, a), reference::vc_less(rb, ra));
    EXPECT_EQ(vc_leq(a, b), reference::vc_leq(ra, rb));
    EXPECT_EQ(vc_concurrent(a, b), reference::vc_concurrent(ra, rb));
    EXPECT_EQ(a == b, ra == rb);
    EXPECT_EQ(a.total(), ra.total());

    const VectorClock mx = component_max(a, b);
    const VectorClock mn = component_min(a, b);
    const reference::VectorClock rmx = reference::component_max(ra, rb);
    const reference::VectorClock rmn = reference::component_min(ra, rb);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(mx[i], rmx[i]);
      EXPECT_EQ(mn[i], rmn[i]);
    }

    VectorClock m = a;
    reference::VectorClock rm = ra;
    m.merge(b);
    rm.merge(rb);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(m[i], rm[i]);
    }
  }
}

TEST(VcDifferentialTest, CopyAndMoveSemanticsAcrossStorageModes) {
  Rng rng(42);
  for (const std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{64}}) {
    VectorClock a = random_clock(rng, n, 1000);
    const VectorClock snapshot = a;
    VectorClock moved = std::move(a);
    EXPECT_EQ(moved, snapshot);
    VectorClock assigned;
    assigned = snapshot;             // empty -> n
    EXPECT_EQ(assigned, snapshot);
    assigned = random_clock(rng, n, 9);  // same-size reuse path
    assigned = VectorClock();            // n -> empty
    EXPECT_TRUE(assigned.empty());
    VectorClock move_assigned = random_clock(rng, 3, 5);
    move_assigned = std::move(moved);    // 3 -> n
    EXPECT_EQ(move_assigned, snapshot);
  }
}

// ---- QueueEngine vs the frozen seed ----------------------------------------

// Interval stream generator: per-origin own component strictly increases so
// succ() holds; cross components are random (same scheme as fuzz_test).
struct StreamGen {
  Rng rng;
  std::size_t n;
  std::vector<ClockValue> last_hi;

  StreamGen(std::uint64_t seed, std::size_t n_procs)
      : rng(seed), n(n_procs), last_hi(n_procs, 0) {}

  Interval next(ProcessId origin, SeqNum seq) {
    Interval x;
    x.lo = VectorClock(n);
    x.hi = VectorClock(n);
    const ClockValue lo_own = last_hi[idx(origin)] + 1 +
                              static_cast<ClockValue>(rng.uniform_int(0, 2));
    const ClockValue hi_own =
        lo_own + static_cast<ClockValue>(rng.uniform_int(0, 3));
    last_hi[idx(origin)] = hi_own;
    for (std::size_t i = 0; i < n; ++i) {
      const ClockValue base = static_cast<ClockValue>(rng.uniform_int(0, 12));
      x.lo[i] = base;
      x.hi[i] = base + static_cast<ClockValue>(rng.uniform_int(0, 6));
    }
    x.lo[idx(origin)] = lo_own;
    x.hi[idx(origin)] = hi_own;
    for (std::size_t i = 0; i < n; ++i) {
      if (x.lo[i] > x.hi[i]) {
        std::swap(x.lo[i], x.hi[i]);
      }
    }
    x.origin = origin;
    x.seq = seq;
    return x;
  }
};

reference::Interval ref_interval(const Interval& x) {
  reference::Interval out;
  out.lo = ref_clock(x.lo);
  out.hi = ref_clock(x.hi);
  out.origin = x.origin;
  out.seq = x.seq;
  out.weight = x.weight;
  out.aggregated = x.aggregated;
  out.completed_at = x.completed_at;
  return out;
}

void expect_same_member(const Interval& m, const reference::Interval& r) {
  ASSERT_EQ(m.lo.size(), r.lo.size());
  for (std::size_t i = 0; i < m.lo.size(); ++i) {
    EXPECT_EQ(m.lo[i], r.lo[i]);
    EXPECT_EQ(m.hi[i], r.hi[i]);
  }
  EXPECT_EQ(m.origin, r.origin);
  EXPECT_EQ(m.seq, r.seq);
  EXPECT_EQ(m.weight, r.weight);
  EXPECT_EQ(m.aggregated, r.aggregated);
}

void expect_same_state(detect::QueueEngine& eng,
                       reference::detect::QueueEngine& ref) {
  EXPECT_EQ(eng.comparisons(), ref.comparisons());
  EXPECT_EQ(eng.stored(), ref.stored());
  EXPECT_EQ(eng.stored_peak(), ref.stored_peak());
  EXPECT_EQ(eng.eliminated(), ref.eliminated());
  EXPECT_EQ(eng.pruned(), ref.pruned());
  EXPECT_EQ(eng.solutions_found(), ref.solutions_found());
  EXPECT_EQ(eng.offered(), ref.offered());
  EXPECT_EQ(eng.rejected(), ref.rejected());
  EXPECT_EQ(eng.num_queues(), ref.num_queues());
  EXPECT_EQ(eng.keys(), ref.keys());
  for (const ProcessId k : eng.keys()) {
    EXPECT_EQ(eng.queue_size(k), ref.queue_size(k)) << "queue " << k;
  }
  EXPECT_EQ(eng.heads_compatible(), ref.heads_compatible());
}

void expect_same_solutions(
    const std::vector<detect::Solution>& got,
    const std::vector<reference::detect::Solution>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    ASSERT_EQ(got[s].members.size(), want[s].members.size());
    for (std::size_t m = 0; m < got[s].members.size(); ++m) {
      expect_same_member(got[s].members[m], want[s].members[m]);
    }
  }
}

class EngineDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// 1000 fuzzed schedules total across the 10 seeds x 100 rounds, each mixing
// offers with the fault-tolerance operations (remove_queue + recheck,
// restore_pruned, clear_queue) and randomized capacity / prune mode.
TEST_P(EngineDifferentialTest, FlattenedEngineMatchesSeedExactly) {
  Rng rng(GetParam() * 1013904223u + 12345u);
  for (int round = 0; round < 100; ++round) {
    const std::size_t n = 2 + rng.uniform_index(5);
    const auto mode = static_cast<detect::QueueEngine::PruneMode>(
        rng.uniform_index(3));
    detect::QueueEngine eng(mode);
    reference::detect::QueueEngine ref(
        static_cast<reference::detect::QueueEngine::PruneMode>(mode));
    if (rng.uniform_int(0, 3) == 0) {
      const std::size_t cap = 1 + rng.uniform_index(4);
      eng.set_capacity(cap);
      ref.set_capacity(cap);
    }
    for (std::size_t i = 0; i < n; ++i) {
      eng.add_queue(static_cast<ProcessId>(i));
      ref.add_queue(static_cast<ProcessId>(i));
    }
    StreamGen gen(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)), n);
    std::vector<SeqNum> next_seq(n, 0);
    std::vector<bool> removed(n, false);
    const int steps = 20 + static_cast<int>(rng.uniform_index(40));
    for (int s = 0; s < steps; ++s) {
      const int action = static_cast<int>(rng.uniform_int(0, 19));
      if (action == 0 && eng.num_queues() > 1) {
        // Child failure: drop a random live queue, then recheck.
        ProcessId victim;
        do {
          victim = static_cast<ProcessId>(rng.uniform_index(n));
        } while (removed[idx(victim)]);
        removed[idx(victim)] = true;
        eng.remove_queue(victim);
        ref.remove_queue(victim);
        expect_same_solutions(eng.recheck(), ref.recheck());
      } else if (action == 1) {
        // Tree repair: resurrect pruned heads.
        eng.restore_pruned();
        ref.restore_pruned();
        expect_same_solutions(eng.recheck(), ref.recheck());
      } else if (action == 2 && eng.num_queues() > 0) {
        // Crash recovery: wipe one queue's state.
        const auto live = eng.keys();
        const ProcessId victim = live[rng.uniform_index(live.size())];
        eng.clear_queue(victim);
        ref.clear_queue(victim);
      } else {
        ProcessId p = static_cast<ProcessId>(rng.uniform_index(n));
        if (removed[idx(p)]) {
          continue;
        }
        const Interval x = gen.next(p, next_seq[idx(p)]++);
        const reference::Interval rx = ref_interval(x);
        // Rvalue offer on the optimized engine, by-value on the seed.
        expect_same_solutions(eng.offer(p, Interval(x)), ref.offer(p, rx));
      }
      expect_same_state(eng, ref);
      if (::testing::Test::HasFailure()) {
        FAIL() << "divergence at seed " << GetParam() << " round " << round
               << " step " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---- Block summaries (q > 16) vs the frozen seed ---------------------------

// Round-structured stream for wide engines, shaped like a real execution.
// In round r every lo component lies in [10r, 10r+3] and every hi component
// is 10r+9 except the origin's own, which ends in [10r+5, 10r+8] or, for
// one interval in four, at 10r+9. So the intervals of one round overlap
// pairwise, a later round eliminates an earlier one, and Eq. (10) keeps
// exactly the heads that end at 10r+9 (another head's max is smaller) —
// equal maxes included. One interval in 2q has seen the end of another
// process j's round (lo[j] = 10r+9), which eliminates j's interval of that
// round unless it too ends at 10r+9. Each unit of `noise` raises, with
// probability 1/4, one random cross lo component into [10r+4, 10r+5] and
// lowers, likewise, one cross hi component into [10r+4, 10r+6], so some
// same-round pairs conflict as well. Own components strictly increase
// across rounds, so succ() holds.
struct RoundGen {
  Rng rng;
  std::size_t n;
  int noise;
  std::vector<ClockValue> round;

  RoundGen(std::uint64_t seed, std::size_t n_procs, int noise_components)
      : rng(seed), n(n_procs), noise(noise_components), round(n_procs, 0) {}

  ClockValue draw(ClockValue base, int lo, int hi) {
    return base + static_cast<ClockValue>(rng.uniform_int(lo, hi));
  }

  Interval next(ProcessId origin, SeqNum seq) {
    const std::size_t p = idx(origin);
    const ClockValue base = 10 * ++round[p];
    Interval x;
    x.lo = VectorClock(n);
    x.hi = VectorClock(n);
    for (std::size_t i = 0; i < n; ++i) {
      x.lo[i] = draw(base, 0, 3);
      x.hi[i] = base + 9;
    }
    if (rng.uniform_int(0, 3) != 0) {
      x.hi[p] = draw(base, 5, 8);
    }
    for (int k = 0; k < noise; ++k) {
      const std::size_t j = rng.uniform_index(4 * n);
      const std::size_t l = rng.uniform_index(4 * n);
      if (j < n && j != p) {
        x.lo[j] = draw(base, 4, 5);
      }
      if (l < n && l != p) {
        x.hi[l] = draw(base, 4, 6);
      }
    }
    if (rng.uniform_index(2 * n) == 0) {
      const std::size_t j = rng.uniform_index(n);
      if (j != p && round[j] == round[p]) {
        x.lo[j] = base + 9;
      }
    }
    x.origin = origin;
    x.seq = seq;
    return x;
  }
};

/// Queue contents, front first, of both engines.
void expect_same_contents(const detect::QueueEngine& eng,
                          const reference::detect::QueueEngine& ref) {
  for (const detect::QueueEngine::Snapshot::Queue& q : eng.snapshot().queues) {
    const auto& want = ref.queue(q.key);
    ASSERT_EQ(q.items.size(), want.size()) << "queue " << q.key;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const Interval& got = q.items[i];
      bool same = got.lo.size() == want[i].lo.size() &&
                  got.origin == want[i].origin && got.seq == want[i].seq;
      for (std::size_t k = 0; same && k < got.lo.size(); ++k) {
        same = got.lo[k] == want[i].lo[k] && got.hi[k] == want[i].hi[k];
      }
      if (!same) {  // per-component diagnostics only on a mismatch
        expect_same_member(got, want[i]);
      }
    }
  }
}

/// Cheap per-step observables (heads_compatible is O(q²·n); it is checked
/// with the contents every few dozen steps).
void expect_same_counters(const detect::QueueEngine& eng,
                          const reference::detect::QueueEngine& ref) {
  EXPECT_EQ(eng.comparisons(), ref.comparisons());
  EXPECT_EQ(eng.stored(), ref.stored());
  EXPECT_EQ(eng.stored_peak(), ref.stored_peak());
  EXPECT_EQ(eng.eliminated(), ref.eliminated());
  EXPECT_EQ(eng.pruned(), ref.pruned());
  EXPECT_EQ(eng.solutions_found(), ref.solutions_found());
  EXPECT_EQ(eng.offered(), ref.offered());
  EXPECT_EQ(eng.rejected(), ref.rejected());
  EXPECT_EQ(eng.keys(), ref.keys());
  for (const ProcessId k : eng.keys()) {
    EXPECT_EQ(eng.queue_size(k), ref.queue_size(k)) << "queue " << k;
  }
}

struct BlockedCase {
  std::size_t queues;
  int noise;  ///< RoundGen's noise units
  int mode;   ///< QueueEngine::PruneMode
  int steps;
};

std::vector<BlockedCase> blocked_cases() {
  std::vector<BlockedCase> out;
  for (int mode = 0; mode < 3; ++mode) {
    out.push_back({64, 0, mode, 1500});
    out.push_back({64, 1, mode, 1500});
    out.push_back({100, 0, mode, 1500});
    out.push_back({100, 1, mode, 1500});
    out.push_back({341, 0, mode, 2500});
  }
  return out;
}

// Readable, stable test ids (gtest would print the struct's bytes,
// padding included).
void PrintTo(const BlockedCase& c, std::ostream* os) {
  *os << "q" << c.queues << " noise " << c.noise << " mode " << c.mode
      << " steps " << c.steps;
}

class BlockedEngineDifferentialTest
    : public ::testing::TestWithParam<BlockedCase> {};

// Each prune mode, unbounded and bounded queues, with remove_queue +
// recheck, clear_queue, restore_pruned (with and without a recheck after
// it) and snapshot → restore into a fresh engine mixed into the stream.
TEST_P(BlockedEngineDifferentialTest, BlockedEngineMatchesSeedExactly) {
  const BlockedCase c = GetParam();
  const std::size_t n = c.queues;
  const int m = c.mode;
  Rng rng(n * 7919u + static_cast<std::uint64_t>(c.noise * 3 + m));
  {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{2}}) {
      const auto mode = static_cast<detect::QueueEngine::PruneMode>(m);
      detect::QueueEngine eng(mode);
      reference::detect::QueueEngine ref(
          static_cast<reference::detect::QueueEngine::PruneMode>(m));
      eng.set_capacity(cap);
      ref.set_capacity(cap);
      for (std::size_t i = 0; i < n; ++i) {
        eng.add_queue(static_cast<ProcessId>(i));
        ref.add_queue(static_cast<ProcessId>(i));
      }
      const auto seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
      RoundGen gen(seed, n, c.noise);
      std::vector<SeqNum> next_seq(n, 0);
      std::vector<bool> removed(n, false);
      for (int s = 0; s < c.steps; ++s) {
        const int action = static_cast<int>(rng.uniform_int(0, 199));
        if (action == 0 && eng.num_queues() > n / 2) {
          const auto live = eng.keys();
          const ProcessId victim = live[rng.uniform_index(live.size())];
          removed[idx(victim)] = true;
          eng.remove_queue(victim);
          ref.remove_queue(victim);
          expect_same_solutions(eng.recheck(), ref.recheck());
        } else if (action == 1) {
          eng.restore_pruned();
          ref.restore_pruned();
          expect_same_solutions(eng.recheck(), ref.recheck());
        } else if (action <= 4) {
          // As HierNodeEngine::add_child does: restored heads must be seen
          // by the next offer without a recheck in between.
          eng.restore_pruned();
          ref.restore_pruned();
        } else if (action == 5) {
          const auto live = eng.keys();
          const ProcessId victim = live[rng.uniform_index(live.size())];
          eng.clear_queue(victim);
          ref.clear_queue(victim);
        } else if (action == 6) {
          detect::QueueEngine fresh(mode);
          fresh.restore(eng.snapshot());
          eng = std::move(fresh);
        } else {
          ProcessId p = static_cast<ProcessId>(rng.uniform_index(n));
          {
            // The process furthest behind, so rounds complete; ties go to
            // the first from a random start, so arrival order varies.
            const std::size_t start = idx(p);
            for (std::size_t k = 0; k < n; ++k) {
              const std::size_t i = (start + k) % n;
              if (!removed[i] && (removed[idx(p)] ||
                                  gen.round[i] < gen.round[idx(p)])) {
                p = static_cast<ProcessId>(i);
              }
            }
          }
          if (removed[idx(p)]) {
            continue;
          }
          const SeqNum seq = next_seq[idx(p)]++;
          const Interval x = gen.next(p, seq);
          expect_same_solutions(eng.offer(p, Interval(x)),
                                ref.offer(p, ref_interval(x)));
        }
        expect_same_counters(eng, ref);
        if (s % 64 == 63) {
          expect_same_contents(eng, ref);
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << "divergence at q " << n << " mode " << m << " capacity "
                 << cap << " step " << s;
        }
      }
      expect_same_contents(eng, ref);
      EXPECT_EQ(eng.heads_compatible(), ref.heads_compatible());
      if (cap == 0) {
        EXPECT_GT(eng.solutions_found(), 2u);  // the stream does detect
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WideEngines, BlockedEngineDifferentialTest,
    ::testing::ValuesIn(blocked_cases()),
    [](const ::testing::TestParamInfo<BlockedCase>& param) {
      std::ostringstream name;
      name << "q" << param.param.queues << "_noise" << param.param.noise
           << "_mode" << param.param.mode;
      return name.str();
    });

}  // namespace
}  // namespace hpd
