#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <string>
#include <vector>

#include "core/hier_engine.hpp"
#include "detect/centralized.hpp"
#include "detect/queue_engine.hpp"
#include "detect/reorder.hpp"

namespace hpd::detect {
namespace {

Interval iv(ProcessId origin, SeqNum seq, VectorClock lo, VectorClock hi) {
  Interval x;
  x.origin = origin;
  x.seq = seq;
  x.lo = std::move(lo);
  x.hi = std::move(hi);
  return x;
}

// Round r's two-process intervals, mutually overlapping within a round
// (each sees the other's start) and eliminating across rounds.
Interval crossing(ProcessId p, ClockValue round) {
  const ClockValue b = (round - 1) * 4;
  if (p == 0) {
    return iv(0, round, {static_cast<ClockValue>(b + 1), b},
              {static_cast<ClockValue>(b + 4), static_cast<ClockValue>(b + 2)});
  }
  return iv(1, round, {b, static_cast<ClockValue>(b + 1)},
            {static_cast<ClockValue>(b + 2), static_cast<ClockValue>(b + 4)});
}

TEST(QueueEngineTest, SingleQueueEveryIntervalIsASolution) {
  QueueEngine e;
  e.add_queue(3);
  const auto s1 = e.offer(3, iv(3, 1, {1}, {2}));
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_EQ(s1[0].members.size(), 1u);
  EXPECT_EQ(s1[0].members[0].seq, 1u);
  const auto s2 = e.offer(3, iv(3, 2, {3}, {4}));
  ASSERT_EQ(s2.size(), 1u);
  EXPECT_EQ(e.stored(), 0u);  // pruned away
  EXPECT_EQ(e.solutions_found(), 2u);
}

TEST(QueueEngineTest, TwoQueueSolutionAndPruning) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  // First interval waits for the other queue.
  EXPECT_TRUE(e.offer(0, iv(0, 1, {1, 0}, {3, 2})).empty());
  EXPECT_EQ(e.stored(), 1u);
  const auto sols = e.offer(1, iv(1, 1, {0, 1}, {2, 3}));
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0].members.size(), 2u);
  // Eq. (10): neither max dominates the other -> both pruned.
  EXPECT_EQ(e.stored(), 0u);
  EXPECT_EQ(e.pruned(), 2u);
  EXPECT_EQ(e.eliminated(), 0u);
}

TEST(QueueEngineTest, EliminationRemovesStaleInterval) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  // y (on queue 1) ends causally before x (queue 0) starts:
  // min(x) = (5,4) dominates max(y) = (1,2) -> y can never pair with x.
  EXPECT_TRUE(e.offer(1, iv(1, 1, {0, 1}, {1, 2})).empty());
  EXPECT_TRUE(e.offer(0, iv(0, 1, {5, 4}, {7, 5})).empty());
  EXPECT_EQ(e.eliminated(), 1u);
  EXPECT_EQ(e.stored(), 1u);  // only x remains
  EXPECT_EQ(e.queue_size(1), 0u);
  EXPECT_EQ(e.queue_size(0), 1u);
}

TEST(QueueEngineTest, EliminationExposesNextIntervalWhichSolves) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  // Stale y1 then good y2 queued behind it on queue 1.
  EXPECT_TRUE(e.offer(1, iv(1, 1, {0, 1}, {1, 2})).empty());
  EXPECT_TRUE(e.offer(1, iv(1, 2, {4, 3}, {6, 8})).empty());
  // x overlaps y2 but eliminates y1.
  const auto sols = e.offer(0, iv(0, 1, {5, 4}, {7, 5}));
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0].members[1].seq, 2u);
  EXPECT_EQ(e.eliminated(), 1u);
}

TEST(QueueEngineTest, RepeatedDetectionAcrossRounds) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  // Queue 1 accumulates two rounds' intervals while queue 0 is empty.
  EXPECT_TRUE(e.offer(1, crossing(1, 1)).empty());
  EXPECT_TRUE(e.offer(1, crossing(1, 2)).empty());
  const auto s1 = e.offer(0, crossing(0, 1));
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_EQ(s1[0].members[0].seq, 1u);
  // Feeding queue 0's second round produces the second solution.
  const auto s2 = e.offer(0, crossing(0, 2));
  ASSERT_EQ(s2.size(), 1u);
  EXPECT_EQ(s2[0].members[0].seq, 2u);
  EXPECT_EQ(e.solutions_found(), 2u);
  EXPECT_EQ(e.stored(), 0u);
}

TEST(QueueEngineTest, PruneKeepsLaggard) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  // max(x0) < max(x1) strictly: Eq. (10) removes only x0.
  const Interval x0 = iv(0, 1, {1, 1}, {2, 2});
  const Interval x1 = iv(1, 1, {1, 1}, {3, 3});
  EXPECT_TRUE(e.offer(0, x0).empty());
  const auto sols = e.offer(1, x1);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(e.pruned(), 1u);
  EXPECT_EQ(e.queue_size(1), 1u);  // x1 kept: may pair with succ(x0)
  EXPECT_EQ(e.queue_size(0), 0u);
}

TEST(QueueEngineTest, SinglePruneModeRemovesOne) {
  QueueEngine e(QueueEngine::PruneMode::kSingleEq10);
  e.add_queue(0);
  e.add_queue(1);
  EXPECT_TRUE(e.offer(0, iv(0, 1, {1, 0}, {3, 2})).empty());
  const auto sols = e.offer(1, iv(1, 1, {0, 1}, {2, 3}));
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(e.pruned(), 1u);
  EXPECT_EQ(e.stored(), 1u);
}

TEST(QueueEngineTest, RemoveQueueUnblocksSolution) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  e.add_queue(2);
  EXPECT_TRUE(e.offer(0, iv(0, 1, {1, 0, 0}, {3, 2, 2})).empty());
  EXPECT_TRUE(e.offer(1, iv(1, 1, {0, 1, 0}, {2, 3, 2})).empty());
  // Queue 2 never delivers; removing it (child died) completes the set.
  e.remove_queue(2);
  const auto sols = e.recheck();
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0].members.size(), 2u);
  EXPECT_EQ(e.num_queues(), 2u);
}

TEST(QueueEngineTest, RemoveQueueDropsStoredIntervals) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  e.offer(0, iv(0, 1, {1, 0}, {3, 2}));
  EXPECT_EQ(e.stored(), 1u);
  e.remove_queue(0);
  EXPECT_EQ(e.stored(), 0u);
  EXPECT_FALSE(e.has_queue(0));
  EXPECT_THROW(e.offer(0, iv(0, 2, {4, 0}, {5, 2})), AssertionError);
}

TEST(QueueEngineTest, StatsTrackPeaksAndComparisons) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  e.offer(0, iv(0, 1, {1, 0}, {3, 2}));
  e.offer(0, iv(0, 2, {4, 3}, {6, 4}));
  EXPECT_EQ(e.stored_peak(), 2u);
  EXPECT_EQ(e.offered(), 2u);
  EXPECT_EQ(e.comparisons(), 0u);  // queue 1 still empty: nothing compared
  e.offer(1, iv(1, 1, {0, 1}, {2, 3}));
  EXPECT_GT(e.comparisons(), 0u);
}

TEST(QueueEngineTest, DuplicateQueueRejected) {
  QueueEngine e;
  e.add_queue(0);
  EXPECT_THROW(e.add_queue(0), AssertionError);
  EXPECT_THROW(e.remove_queue(5), AssertionError);
}

TEST(QueueEngineTest, RestorePrunedRevivesLastHead) {
  // A leaf-turned-root scenario (paper Fig. 2(c)): the single-queue engine
  // consumed x5 as a trivial solution; when a child queue appears, x5 must
  // come back to combine with the child's aggregate.
  QueueEngine e;
  e.add_queue(0);
  EXPECT_EQ(e.offer(0, iv(0, 1, {1, 0}, {2, 5})).size(), 1u);
  EXPECT_EQ(e.stored(), 0u);
  e.restore_pruned();
  EXPECT_EQ(e.stored(), 1u);
  e.add_queue(1);
  const auto sols = e.offer(1, iv(1, 1, {0, 1}, {5, 2}));
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0].members[0].seq, 1u);
}

TEST(QueueEngineTest, RestorePrunedIsOneShot) {
  QueueEngine e;
  e.add_queue(0);
  e.offer(0, iv(0, 1, {1}, {2}));
  e.restore_pruned();
  EXPECT_EQ(e.stored(), 1u);
  e.restore_pruned();  // nothing left to restore
  EXPECT_EQ(e.stored(), 1u);
}

TEST(QueueEngineTest, RestorePrunedKeepsQueueOrderAndRevives) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  // Solution prunes both heads; a later interval is already queued behind.
  e.offer(0, crossing(0, 1));
  e.offer(0, crossing(0, 2));
  e.offer(1, crossing(1, 1));  // solution on round 1, both heads pruned
  EXPECT_EQ(e.solutions_found(), 1u);
  EXPECT_EQ(e.queue_size(0), 1u);
  e.restore_pruned();
  // Restored round-1 heads sit in front of anything queued behind them.
  EXPECT_EQ(e.queue_size(0), 2u);
  EXPECT_EQ(e.queue_size(1), 1u);
  // Revival semantics: the restored pair forms the same solution again
  // (this is why restore is only used when the detection scope changes).
  const auto again = e.recheck();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].members[0].seq, 1u);
  // Detection then proceeds normally with the later intervals.
  const auto sols = e.offer(1, crossing(1, 2));
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0].members[0].seq, 2u);
}

TEST(QueueEngineTest, RemoveQueueForgetsItsPrunedHead) {
  QueueEngine e;
  e.add_queue(0);
  e.add_queue(1);
  e.offer(0, crossing(0, 1));
  e.offer(1, crossing(1, 1));  // solution; both pruned
  e.remove_queue(1);
  e.restore_pruned();
  EXPECT_EQ(e.queue_size(0), 1u);  // queue 0's head restored
  EXPECT_FALSE(e.has_queue(1));    // queue 1's pruned head gone with it
}

// ---- Block summaries ---------------------------------------------------------

// Round r of a q-queue engine on q-wide clocks, as in BM_OfferThroughput:
// every lo is below every hi, so the round's q heads form one solution.
Interval wide_round(std::size_t q, std::size_t p, ClockValue round) {
  VectorClock lo(q);
  VectorClock hi(q);
  for (std::size_t i = 0; i < q; ++i) {
    lo[i] = 2 * round;
    hi[i] = 2 * round + 1;
  }
  lo[p] -= 1;
  hi[p] += 1;
  return iv(static_cast<ProcessId>(p), round, std::move(lo), std::move(hi));
}

TEST(QueueEngineTest, OneBlockMakesExactlyThePairwisePasses) {
  // q ≤ 16 keeps a single block: no summary is built or tested, so every
  // clock pass is one of Algorithm 1's comparisons.
  for (const std::size_t q : {2u, 4u, 16u}) {
    QueueEngine e;
    for (std::size_t p = 0; p < q; ++p) {
      e.add_queue(static_cast<ProcessId>(p));
    }
    for (ClockValue r = 1; r <= 3; ++r) {
      for (std::size_t p = 0; p < q; ++p) {
        e.offer(static_cast<ProcessId>(p), wide_round(q, p, r));
      }
    }
    EXPECT_EQ(e.solutions_found(), 3u);
    EXPECT_EQ(e.clock_passes(), e.comparisons()) << "q " << q;
  }
}

TEST(QueueEngineTest, BlockSummariesCutClockPassesNotComparisons) {
  const std::size_t q = 341;
  QueueEngine e;
  for (std::size_t p = 0; p < q; ++p) {
    e.add_queue(static_cast<ProcessId>(p));
  }
  for (std::size_t p = 0; p + 1 < q; ++p) {
    EXPECT_TRUE(e.offer(static_cast<ProcessId>(p), wide_round(q, p, 1)).empty());
  }
  // The k-th head is compared both ways with the k heads before it.
  EXPECT_EQ(e.comparisons(), (q - 1) * (q - 2));
  EXPECT_LT(e.clock_passes() * 4, e.comparisons());
  // The last head completes the round; no max is below another, so Eq. (10)
  // tests all q − 1 others for each head and prunes every one.
  const auto sols = e.offer(static_cast<ProcessId>(q - 1),
                            wide_round(q, q - 1, 1));
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0].members.size(), q);
  EXPECT_EQ(e.pruned(), q);
  EXPECT_EQ(e.comparisons(), 2 * q * (q - 1));
}

TEST(QueueEngineTest, WidthMismatchThrowsTheSameErrorAtAnyQ) {
  // A head of the wrong width fails in vc_leq, whether it is compared with
  // single heads (q = 4) or with block summaries (q = 64).
  std::string pairwise;
  for (const std::size_t q : {4u, 64u}) {
    QueueEngine e;
    for (std::size_t p = 0; p < q; ++p) {
      e.add_queue(static_cast<ProcessId>(p));
    }
    for (std::size_t p = 0; p + 1 < q; ++p) {
      e.offer(static_cast<ProcessId>(p), wide_round(q, p, 1));
    }
    try {
      e.offer(static_cast<ProcessId>(q - 1), wide_round(q + 1, q - 1, 1));
      ADD_FAILURE() << "no error at q " << q;
    } catch (const AssertionError& err) {
      EXPECT_NE(std::string(err.what()).find("vc_leq"), std::string::npos);
      if (pairwise.empty()) {
        pairwise = err.what();
      }
      EXPECT_EQ(err.what(), pairwise) << "q " << q;
    }
  }
}

TEST(QueueEngineTest, MixedWidthsInsideABlockAreScannedNotSummarized) {
  // Only a restored image can hold heads of different widths; the block
  // holding them has no summary and its members fail the pairwise test.
  const std::size_t q = 64;
  QueueEngine e;
  for (std::size_t p = 0; p < q; ++p) {
    e.add_queue(static_cast<ProcessId>(p));
  }
  for (std::size_t p = 0; p + 1 < q; ++p) {
    e.offer(static_cast<ProcessId>(p), wide_round(q, p, 1));
  }
  QueueEngine::Snapshot snap = e.snapshot();
  snap.queues[5].items[0] = wide_round(q + 1, 5, 1);
  QueueEngine restored;
  restored.restore(snap);
  EXPECT_THROW(restored.recheck(), AssertionError);
}

TEST(QueueEngineSetupTest, HundredThousandQueuesSetUpInUnderASecond) {
  // Set-up is linear: ascending keys append to the slot vector, and
  // restore_pruned() returns at once while nothing was pruned, so a star
  // root adopting its children one by one is not quadratic.
  constexpr std::size_t kQueues = 100000;
  const auto start = std::chrono::steady_clock::now();
  std::vector<ProcessId> procs(kQueues);
  for (std::size_t p = 0; p < kQueues; ++p) {
    procs[p] = static_cast<ProcessId>(p);
  }
  CentralSink sink(0, procs, CentralSink::Hooks{});
  core::HierNodeEngine::Config config;
  config.self = 0;
  core::HierNodeEngine root(config, core::HierNodeEngine::Hooks{});
  for (std::size_t p = 1; p < kQueues; ++p) {
    root.add_child(static_cast<ProcessId>(p), 1);
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(sink.engine().num_queues(), kQueues);
  EXPECT_EQ(root.engine().num_queues(), kQueues);
  EXPECT_LT(took.count(), 1.0);
}

// ---- ReorderBuffer ----------------------------------------------------------

TEST(ReorderBufferTest, InOrderPassThrough) {
  ReorderBuffer rb;
  rb.track(7, 1);
  auto out = rb.push(7, iv(7, 1, {1}, {2}));
  ASSERT_EQ(out.size(), 1u);
  out = rb.push(7, iv(7, 2, {3}, {4}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 2u);
  EXPECT_EQ(rb.pending(), 0u);
}

TEST(ReorderBufferTest, GapHoldsAndReleases) {
  ReorderBuffer rb;
  rb.track(7, 1);
  EXPECT_TRUE(rb.push(7, iv(7, 3, {5}, {6})).empty());
  EXPECT_TRUE(rb.push(7, iv(7, 2, {3}, {4})).empty());
  EXPECT_EQ(rb.pending(), 2u);
  const auto out = rb.push(7, iv(7, 1, {1}, {2}));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 2u);
  EXPECT_EQ(out[2].seq, 3u);
  EXPECT_EQ(rb.pending(), 0u);
}

TEST(ReorderBufferTest, StaleAndUnknownDropped) {
  ReorderBuffer rb;
  rb.track(7, 5);
  EXPECT_TRUE(rb.push(7, iv(7, 4, {1}, {2})).empty());  // below expected
  EXPECT_TRUE(rb.push(8, iv(8, 1, {1}, {2})).empty());  // unknown origin
  EXPECT_EQ(rb.dropped_stale(), 2u);
  EXPECT_EQ(rb.push(7, iv(7, 5, {3}, {4})).size(), 1u);
}

TEST(ReorderBufferTest, RetrackResetsStream) {
  ReorderBuffer rb;
  rb.track(7, 1);
  rb.push(7, iv(7, 2, {3}, {4}));  // parked
  EXPECT_EQ(rb.pending(), 1u);
  rb.track(7, 10);  // re-adoption with a new starting seq
  EXPECT_EQ(rb.pending(), 0u);
  EXPECT_EQ(rb.push(7, iv(7, 10, {9}, {9})).size(), 1u);
}

TEST(ReorderBufferTest, UntrackDropsEverything) {
  ReorderBuffer rb;
  rb.track(7, 1);
  rb.push(7, iv(7, 2, {3}, {4}));
  rb.untrack(7);
  EXPECT_FALSE(rb.tracking(7));
  EXPECT_EQ(rb.pending(), 0u);
  EXPECT_TRUE(rb.push(7, iv(7, 1, {1}, {2})).empty());
}

}  // namespace
}  // namespace hpd::detect
