// Differential fuzzing of the detection engines against deliberately naive
// re-implementations. The references below are written directly from the
// restructured pseudocode with no sharing of code or data structures with
// the production engines; any divergence on randomized streams is a bug in
// one of them.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "detect/queue_engine.hpp"
#include "detect/slicing.hpp"

namespace hpd::detect {
namespace {

// ---- Naive Definitely reference ------------------------------------------

struct NaiveDefinitely {
  std::map<ProcessId, std::list<Interval>> queues;
  std::vector<std::vector<std::pair<ProcessId, SeqNum>>> solutions;
  std::uint64_t eliminated = 0;
  std::uint64_t pruned = 0;
  // Mirror of the engine's configuration knobs, re-implemented from their
  // documented semantics (not from the engine code).
  QueueEngine::PruneMode mode = QueueEngine::PruneMode::kAllEq10;
  std::size_t capacity = 0;  // 0 = unbounded
  std::uint64_t rejected = 0;

  void add_queue(ProcessId key) { queues[key]; }

  static bool leq(const VectorClock& a, const VectorClock& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] > b[i]) {
        return false;
      }
    }
    return true;
  }
  static bool less(const VectorClock& a, const VectorClock& b) {
    return leq(a, b) && !(a == b);
  }

  bool all_nonempty() const {
    for (const auto& [k, q] : queues) {
      if (q.empty()) {
        return false;
      }
    }
    return true;
  }

  void offer(ProcessId key, const Interval& x) {
    auto& q = queues.at(key);
    if (capacity != 0 && q.size() >= capacity) {
      ++rejected;  // back-pressure: a full queue turns the offer away
      return;
    }
    const bool was_empty = q.empty();
    q.push_back(x);
    if (!was_empty) {
      return;
    }
    run({key});
  }

  void recheck() {
    std::vector<ProcessId> updated;
    for (const auto& [k, q] : queues) {
      if (!q.empty()) {
        updated.push_back(k);
      }
    }
    if (!updated.empty()) {
      run(std::move(updated));
    }
  }

  void run(std::vector<ProcessId> updated) {
    while (!updated.empty()) {
      // One elimination round.
      std::vector<ProcessId> dead;
      for (const ProcessId a : updated) {
        if (queues.at(a).empty()) {
          continue;
        }
        const Interval& xa = queues.at(a).front();
        for (auto& [b, qb] : queues) {
          if (b == a || qb.empty()) {
            continue;
          }
          const Interval& yb = qb.front();
          if (!leq(xa.lo, yb.hi)) {
            dead.push_back(b);
          }
          if (!leq(yb.lo, xa.hi)) {
            dead.push_back(a);
          }
        }
      }
      std::sort(dead.begin(), dead.end());
      dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
      if (!dead.empty()) {
        for (const ProcessId c : dead) {
          if (!queues.at(c).empty()) {
            queues.at(c).pop_front();
            ++eliminated;
          }
        }
        updated = dead;
        continue;
      }
      if (!all_nonempty()) {
        break;
      }
      // Solution.
      std::vector<std::pair<ProcessId, SeqNum>> sol;
      for (const auto& [k, q2] : queues) {
        sol.emplace_back(k, q2.front().seq);
      }
      solutions.push_back(sol);
      // Prune per mode: Eq. (10) over all qualifying heads, the
      // single-head ablation (first qualifying head in ascending key
      // order), or the deliberately broken everything-goes rule.
      std::vector<ProcessId> prune;
      for (const auto& [a, qa] : queues) {
        bool removable = true;
        if (mode != QueueEngine::PruneMode::kTestBrokenPruneAll) {
          for (const auto& [b, qb] : queues) {
            if (a != b && less(qb.front().hi, qa.front().hi)) {
              removable = false;
            }
          }
        }
        if (removable) {
          prune.push_back(a);
          if (mode == QueueEngine::PruneMode::kSingleEq10) {
            break;
          }
        }
      }
      for (const ProcessId c : prune) {
        queues.at(c).pop_front();
        ++pruned;
      }
      updated = prune;
    }
  }
};

// ---- Random interval stream generator --------------------------------------
//
// Produces per-origin streams with strictly increasing (lo, hi) windows,
// random overlap structure across origins, and occasional equal vectors to
// poke the cut-equality corner.

struct StreamGen {
  Rng rng;
  std::size_t n;
  std::vector<ClockValue> last_hi;  // per origin, own-component floor

  StreamGen(std::uint64_t seed, std::size_t n_procs)
      : rng(seed), n(n_procs), last_hi(n_procs, 0) {}

  Interval next(ProcessId origin, SeqNum seq) {
    Interval x;
    x.lo = VectorClock(n);
    x.hi = VectorClock(n);
    // Own component strictly increases between successive intervals.
    const ClockValue lo_own =
        last_hi[idx(origin)] + 1 +
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
    // Keep lo <= hi on every component (lo was sampled independently).
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

class EngineFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzzTest, DefinitelyEngineMatchesNaiveReference) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 2 + rng.uniform_index(4);
    QueueEngine engine;
    NaiveDefinitely naive;
    for (std::size_t i = 0; i < n; ++i) {
      engine.add_queue(static_cast<ProcessId>(i));
      naive.add_queue(static_cast<ProcessId>(i));
    }
    StreamGen gen(GetParam() * 1000 + static_cast<std::uint64_t>(round), n);
    std::vector<SeqNum> next_seq(n, 1);
    std::vector<std::vector<std::pair<ProcessId, SeqNum>>> engine_solutions;
    const int steps = 60;
    for (int s = 0; s < steps; ++s) {
      const auto p = static_cast<ProcessId>(rng.uniform_index(n));
      const Interval x = gen.next(p, next_seq[idx(p)]++);
      naive.offer(p, x);
      for (const auto& sol : engine.offer(p, x)) {
        std::vector<std::pair<ProcessId, SeqNum>> ids;
        for (const auto& m : sol.members) {
          ids.emplace_back(m.origin, m.seq);
        }
        engine_solutions.push_back(std::move(ids));
      }
    }
    ASSERT_EQ(engine_solutions, naive.solutions)
        << "round " << round << " n " << n;
    EXPECT_EQ(engine.eliminated(), naive.eliminated) << "round " << round;
    EXPECT_EQ(engine.pruned(), naive.pruned) << "round " << round;
  }
}

// The differential holds across every prune rule (including the broken one
// — both sides over-prune identically, so the *differential* still agrees;
// only the model checker's offline oracles can call it wrong) and across
// bounded queue capacities, where both sides must reject the same offers.
TEST_P(EngineFuzzTest, PruneModesAndCapacitiesMatchNaiveReference) {
  const QueueEngine::PruneMode modes[] = {
      QueueEngine::PruneMode::kAllEq10,
      QueueEngine::PruneMode::kSingleEq10,
      QueueEngine::PruneMode::kTestBrokenPruneAll,
  };
  const std::size_t capacities[] = {0, 1, 2, 4};
  Rng rng(GetParam() ^ 0x9e3779b9);
  for (const auto mode : modes) {
    for (const std::size_t cap : capacities) {
      for (int round = 0; round < 8; ++round) {
        const std::size_t n = 2 + rng.uniform_index(4);
        QueueEngine engine(mode);
        engine.set_capacity(cap);
        NaiveDefinitely naive;
        naive.mode = mode;
        naive.capacity = cap;
        for (std::size_t i = 0; i < n; ++i) {
          engine.add_queue(static_cast<ProcessId>(i));
          naive.add_queue(static_cast<ProcessId>(i));
        }
        StreamGen gen(GetParam() * 271 + static_cast<std::uint64_t>(round), n);
        std::vector<SeqNum> next_seq(n, 1);
        std::vector<std::vector<std::pair<ProcessId, SeqNum>>> engine_solutions;
        for (int s = 0; s < 50; ++s) {
          const auto p = static_cast<ProcessId>(rng.uniform_index(n));
          const Interval x = gen.next(p, next_seq[idx(p)]++);
          naive.offer(p, x);
          for (const auto& sol : engine.offer(p, x)) {
            std::vector<std::pair<ProcessId, SeqNum>> ids;
            for (const auto& m : sol.members) {
              ids.emplace_back(m.origin, m.seq);
            }
            engine_solutions.push_back(std::move(ids));
          }
        }
        ASSERT_EQ(engine_solutions, naive.solutions)
            << "mode " << static_cast<int>(mode) << " cap " << cap
            << " round " << round;
        EXPECT_EQ(engine.eliminated(), naive.eliminated);
        EXPECT_EQ(engine.pruned(), naive.pruned);
        EXPECT_EQ(engine.rejected(), naive.rejected)
            << "mode " << static_cast<int>(mode) << " cap " << cap;
      }
    }
  }
}

// The engine must never violate its own invariants, whatever the stream:
// every reported solution has one member per queue, members are current
// heads at detection time (checked via seq monotonicity), and liveness
// holds (a solution always prunes at least one head).
TEST_P(EngineFuzzTest, EngineInvariantsUnderAdversarialStreams) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 2 + rng.uniform_index(5);
    QueueEngine engine;
    for (std::size_t i = 0; i < n; ++i) {
      engine.add_queue(static_cast<ProcessId>(i));
    }
    StreamGen gen(GetParam() * 77 + static_cast<std::uint64_t>(round), n);
    std::vector<SeqNum> next_seq(n, 1);
    std::map<ProcessId, SeqNum> last_solution_seq;
    for (int s = 0; s < 80; ++s) {
      const auto p = static_cast<ProcessId>(rng.uniform_index(n));
      const std::uint64_t pruned_before = engine.pruned();
      const auto sols =
          engine.offer(p, gen.next(p, next_seq[idx(p)]++));
      for (const auto& sol : sols) {
        ASSERT_EQ(sol.members.size(), n);
        for (const auto& m : sol.members) {
          // Per-origin solution sequence numbers never go backwards (a
          // surviving head may be reused in the next solution).
          auto it = last_solution_seq.find(m.origin);
          if (it != last_solution_seq.end()) {
            EXPECT_GE(m.seq, it->second);
          }
          last_solution_seq[m.origin] = m.seq;
        }
      }
      if (!sols.empty()) {
        EXPECT_GT(engine.pruned(), pruned_before);  // Theorem 4
      }
      // Core invariant: surviving heads are always pairwise compatible.
      EXPECT_TRUE(engine.heads_compatible()) << "step " << s;
    }
    // Conservation: everything offered is stored, eliminated, or pruned.
    EXPECT_EQ(engine.offered(),
              engine.stored() + engine.eliminated() + engine.pruned());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Values(5u, 6u, 7u, 8u, 1000u, 2000u));

// ---- Dynamic queue changes (the failure path) ---------------------------------

TEST_P(EngineFuzzTest, DynamicQueueChangesMatchNaiveReference) {
  // Randomly add and remove queues mid-stream (what failures and adoptions
  // do) and check the engine against the naive model extended with the
  // same operations.
  Rng rng(GetParam() ^ 0x1a2b);
  for (int round = 0; round < 25; ++round) {
    QueueEngine engine;
    NaiveDefinitely naive;
    std::vector<ProcessId> live;
    ProcessId next_id = 0;
    auto add = [&](ProcessId id) {
      engine.add_queue(id);
      naive.add_queue(id);
      live.push_back(id);
    };
    for (int i = 0; i < 3; ++i) {
      add(next_id++);
    }
    const std::size_t n_dims = 16;  // clock width independent of queue count
    StreamGen gen(GetParam() * 13 + static_cast<std::uint64_t>(round), n_dims);
    std::vector<SeqNum> next_seq(n_dims, 1);
    std::vector<std::vector<std::pair<ProcessId, SeqNum>>> engine_solutions;

    auto collect = [&](const std::vector<Solution>& sols) {
      for (const auto& sol : sols) {
        std::vector<std::pair<ProcessId, SeqNum>> ids;
        for (const auto& m : sol.members) {
          ids.emplace_back(m.origin, m.seq);
        }
        engine_solutions.push_back(std::move(ids));
      }
    };

    for (int s = 0; s < 70; ++s) {
      const double roll = rng.uniform01();
      if (roll < 0.08 && live.size() < 6 && next_id < 16) {
        add(next_id++);
      } else if (roll < 0.14 && live.size() > 2) {
        const std::size_t pick = rng.uniform_index(live.size());
        const ProcessId victim = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        engine.remove_queue(victim);
        collect(engine.recheck());
        // Naive model: drop the queue, then re-run its cycle seeded by
        // every non-empty queue (mirrors QueueEngine::recheck).
        naive.queues.erase(victim);
        naive.recheck();
      } else {
        const ProcessId p = live[rng.uniform_index(live.size())];
        const Interval x = gen.next(p, next_seq[idx(p)]++);
        naive.offer(p, x);
        collect(engine.offer(p, x));
      }
    }
    ASSERT_EQ(engine_solutions, naive.solutions) << "round " << round;
  }
}

// ---- Regular-predicate streams against the slicing engine ------------------
//
// StreamGen above samples cross components adversarially; real regular
// predicates (conjunctions of local predicates over channels with monotone
// conditions) produce interval timestamps from actual vector clocks, where
// remote components only grow by receiving messages. RegularGen simulates
// exactly that — n processes, predicate toggles, sends whose receipt merges
// clocks — with a tunable message rate to steer between the two boundary
// regimes of the slice: p_msg = 0 keeps every interval concurrent (the
// slice is the full computation), while heavy messaging chains intervals
// causally (slices collapse toward empty and the filter discards).

struct RegularGen {
  Rng rng;
  std::size_t n;
  double p_msg;
  std::vector<VectorClock> clock;
  std::vector<bool> open;
  std::vector<VectorClock> open_lo;

  RegularGen(std::uint64_t seed, std::size_t n_procs, double msg_p)
      : rng(seed), n(n_procs), p_msg(msg_p), clock(n_procs, VectorClock(n_procs)),
        open(n_procs, false), open_lo(n_procs) {}

  void tick(std::size_t p) { clock[p][p] = clock[p][p] + 1; }

  std::optional<Interval> step(std::vector<SeqNum>& next_seq) {
    const std::size_t p = rng.uniform_index(n);
    const double roll = rng.uniform01();
    if (roll < p_msg && n > 1) {
      std::size_t q = rng.uniform_index(n - 1);
      if (q >= p) {
        ++q;
      }
      tick(p);
      clock[q].merge(clock[p]);
      tick(q);
    } else if (!open[p] && roll < p_msg + 0.35) {
      tick(p);
      open[p] = true;
      open_lo[p] = clock[p];
    } else if (open[p]) {
      tick(p);
      Interval x;
      x.lo = open_lo[p];
      x.hi = clock[p];
      x.origin = static_cast<ProcessId>(p);
      x.seq = next_seq[p]++;
      open[p] = false;
      return x;
    } else {
      tick(p);
    }
    return std::nullopt;
  }
};

TEST_P(EngineFuzzTest, SlicingEngineMatchesNaiveOnRegularStreams) {
  const QueueEngine::PruneMode modes[] = {
      QueueEngine::PruneMode::kAllEq10,
      QueueEngine::PruneMode::kSingleEq10,
  };
  Rng rng(GetParam() ^ 0x511c);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 2 + rng.uniform_index(4);
    const auto mode = modes[rng.uniform_index(2)];
    // Capacity stays 0: the slice filter relieves queue pressure, so under
    // a bounded queue the two sides legitimately reject different offers.
    SlicingEngine sliced(SlicingEngine::Mode::kExact, mode);
    NaiveDefinitely naive;
    naive.mode = mode;
    for (std::size_t i = 0; i < n; ++i) {
      sliced.add_queue(static_cast<ProcessId>(i));
      naive.add_queue(static_cast<ProcessId>(i));
    }
    RegularGen gen(GetParam() * 733 + static_cast<std::uint64_t>(round), n,
                   rng.uniform01() * 0.5);
    std::vector<SeqNum> next_seq(n, 1);
    std::vector<std::vector<std::pair<ProcessId, SeqNum>>> sliced_solutions;
    for (int s = 0; s < 400; ++s) {
      const auto x = gen.step(next_seq);
      if (!x) {
        continue;
      }
      naive.offer(x->origin, *x);
      for (const auto& sol : sliced.offer(x->origin, *x)) {
        std::vector<std::pair<ProcessId, SeqNum>> ids;
        for (const auto& m : sol.members) {
          ids.emplace_back(m.origin, m.seq);
        }
        sliced_solutions.push_back(std::move(ids));
      }
    }
    ASSERT_EQ(sliced_solutions, naive.solutions)
        << "round " << round << " n " << n;
  }
}

TEST_P(EngineFuzzTest, SlicingDetectorMatchesNaiveOnRegularStreams) {
  const std::size_t n = 3;
  std::vector<ProcessId> all = {0, 1, 2};
  std::vector<std::vector<std::pair<ProcessId, SeqNum>>> detected;
  SlicingDetector::Hooks hooks;
  hooks.on_occurrence = [&](const OccurrenceRecord& rec) {
    std::vector<std::pair<ProcessId, SeqNum>> ids;
    for (const auto& m : rec.solution) {
      ids.emplace_back(m.origin, m.seq);
    }
    detected.push_back(std::move(ids));
  };
  SlicingDetector det(0, all, std::move(hooks));
  NaiveDefinitely naive;
  for (std::size_t i = 0; i < n; ++i) {
    naive.add_queue(static_cast<ProcessId>(i));
  }
  RegularGen gen(GetParam() * 31 + 7, n, 0.3);
  std::vector<SeqNum> next_seq(n, 1);
  for (int s = 0; s < 600; ++s) {
    const auto x = gen.step(next_seq);
    if (!x) {
      continue;
    }
    naive.offer(x->origin, *x);
    if (x->origin == 0) {
      det.local_interval(*x);
    } else {
      det.report(*x);
    }
  }
  EXPECT_EQ(detected, naive.solutions);
}

TEST_P(EngineFuzzTest, SlicingBoundaryRegimesBehaveAsPredicted) {
  // Full slice: synchronized truth rounds (every process opens, an
  // all-to-all exchange makes each close causally dominate every open).
  // Every interval belongs to a solution, so the filter must admit all of
  // them and the engine must find one solution per round.
  {
    const std::size_t n = 3;
    const std::size_t rounds = 5 + GetParam() % 7;
    SlicingEngine sliced;
    for (std::size_t p = 0; p < n; ++p) {
      sliced.add_queue(static_cast<ProcessId>(p));
    }
    std::vector<VectorClock> clock(n, VectorClock(n));
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<VectorClock> lo(n);
      for (std::size_t p = 0; p < n; ++p) {
        clock[p][p] = clock[p][p] + 1;
        lo[p] = clock[p];
      }
      const std::vector<VectorClock> snapshot = clock;
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = 0; q < n; ++q) {
          if (q != p) {
            clock[p].merge(snapshot[q]);
          }
        }
        clock[p][p] = clock[p][p] + 1;
      }
      for (std::size_t p = 0; p < n; ++p) {
        Interval x;
        x.lo = lo[p];
        x.hi = clock[p];
        x.origin = static_cast<ProcessId>(p);
        x.seq = r + 1;
        sliced.offer(x.origin, std::move(x));
      }
    }
    EXPECT_EQ(sliced.discarded_by_slice(), 0u)
        << "every interval is in a solution; none may be discarded";
    EXPECT_EQ(sliced.inner().solutions_found(), rounds);
  }
  // Empty slice: with NO communication, no interval ever causally overlaps
  // a remote one — Definitely(Φ) cannot hold, and once each remote stream
  // has advanced, every arrival is provably doomed at admission.
  {
    SlicingEngine sliced;
    for (ProcessId p = 0; p < 3; ++p) {
      sliced.add_queue(p);
    }
    RegularGen gen(GetParam() * 101 + 3, 3, 0.0);
    std::vector<SeqNum> next_seq(3, 1);
    std::size_t offered = 0;
    for (int s = 0; s < 500; ++s) {
      if (const auto x = gen.step(next_seq)) {
        sliced.offer(x->origin, *x);
        ++offered;
      }
    }
    EXPECT_GT(offered, 0u);
    EXPECT_EQ(sliced.inner().solutions_found(), 0u);
    EXPECT_GT(sliced.discarded_by_slice(), 0u)
        << "disjoint histories must collapse the slice to empty";
  }
  // Chained regime: heavy messaging serializes intervals causally; a
  // nonzero share of arrivals must be provably doomed.
  {
    std::uint64_t discarded = 0;
    for (std::uint64_t sub = 0; sub < 10; ++sub) {
      SlicingEngine sliced;
      for (ProcessId p = 0; p < 3; ++p) {
        sliced.add_queue(p);
      }
      RegularGen gen(GetParam() * 919 + sub, 3, 0.55);
      std::vector<SeqNum> next_seq(3, 1);
      for (int s = 0; s < 500; ++s) {
        if (const auto x = gen.step(next_seq)) {
          sliced.offer(x->origin, *x);
        }
      }
      discarded += sliced.discarded_by_slice();
    }
    EXPECT_GT(discarded, 0u)
        << "causally chained streams never produced an empty slice";
  }
}

}  // namespace
}  // namespace hpd::detect
