// The three-way differential harness: the hierarchical detector, the
// centralized sink, and the computation-slicing sink must agree on the
// global occurrence sets of every schedule.
//
// Two engines agreeing could mean both share a bug; three independent
// implementations (tree aggregation, flat queue engine, slice-filtered
// queue engine) agreeing pins the semantics down. Family A runs every
// fault-free case ONLINE under each engine and anchors each engine's
// global sequence to the three OFFLINE references computed over that
// engine's own recorded execution — a true like-for-like comparison even
// though the engines' report traffic perturbs message schedules
// differently. Family B covers crash + reattach fault plans: the online
// run is hierarchical (the sink engines have no repair plane), and the
// three offline engines must still agree on what the recorded execution
// contained.
//
// On divergence the failing case is shrunk (mc/shrink) and the minimal
// repro is printed, ready for `hpd_sim --repro`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "detect/offline/hier_replay.hpp"
#include "detect/offline/replay.hpp"
#include "detect/offline/slicing_replay.hpp"
#include "interval/interval.hpp"
#include "mc/checker.hpp"
#include "mc/repro.hpp"
#include "mc/shrink.hpp"
#include "mc/strategies.hpp"
#include "runner/experiment.hpp"

namespace hpd::mc {
namespace {

using BaseSet = std::vector<std::pair<ProcessId, SeqNum>>;

BaseSet bases_of(const std::vector<Interval>& members) {
  BaseSet out;
  for (const auto& m : members) {
    const auto part = base_intervals(m);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string show(const std::vector<BaseSet>& seq) {
  std::string out;
  for (const auto& bases : seq) {
    out += '{';
    for (std::size_t i = 0; i < bases.size(); ++i) {
      out += (i ? " P" : "P") + std::to_string(bases[i].first) + "#" +
             std::to_string(bases[i].second);
    }
    out += "} ";
  }
  return out;
}

struct EngineRun {
  std::vector<BaseSet> online_global;  ///< global detections, in order
  trace::ExecutionRecord execution;
};

EngineRun run_engine(const McCase& c) {
  auto cfg = build_case(c);
  CaseStrategy strategy(c);
  cfg.strategy = &strategy;
  const auto res = runner::run_experiment(cfg);
  EngineRun out;
  for (const auto& rec : res.occurrences) {
    if (rec.global) {
      out.online_global.push_back(bases_of(rec.solution));
    }
  }
  out.execution = res.execution;
  return out;
}

/// The three offline engines over ONE execution. All are deterministic
/// functions of the execution (confluence), so any pairwise difference is
/// an implementation bug, never a scheduling artifact.
struct OfflineTriple {
  std::vector<BaseSet> hier_root;
  std::vector<BaseSet> central;
  std::vector<BaseSet> slicing;
};

OfflineTriple offline_triple(const trace::ExecutionRecord& exec,
                             const McCase& c) {
  OfflineTriple out;
  const auto cfg = build_case(c);
  const auto prune = c.ground_truth_prune();
  detect::offline::ReplayOptions copt;
  copt.prune_mode = prune;
  detect::offline::SlicingReplayOptions sopt;
  sopt.prune_mode = prune;
  const auto hier = detect::offline::hier_replay(exec, cfg.tree, prune);
  const auto central = detect::offline::replay_centralized(exec, copt);
  const auto slicing = detect::offline::replay_slicing(exec, sopt);

  if (auto it = hier.solutions.find(cfg.tree.root());
      it != hier.solutions.end()) {
    for (const auto& sol : it->second) {
      out.hier_root.push_back(bases_of(sol.members));
    }
  }
  for (const auto& sol : central) {
    out.central.push_back(bases_of(sol.members));
  }
  for (const auto& sol : slicing.solutions) {
    out.slicing.push_back(bases_of(sol.members));
  }
  return out;
}

/// Shrink the diverging case and return a message with the minimal repro.
std::string divergence_report(const McCase& c, const std::string& what) {
  const auto sr = shrink(c);
  std::string out = "three-way divergence (" + what + ")\n";
  out += "  shrunk to " + std::to_string(sr.events) + " intervals in " +
         std::to_string(sr.runs) + " runs; repro:\n";
  out += to_repro(sr.minimal);
  return out;
}

// ---- Family A: fault-free schedules, all three engines online ---------------

class ThreeWayTest : public ::testing::Test {
 protected:
  /// Run the case online under `engine`, then check that the three offline
  /// references over its recorded execution agree with each other AND with
  /// the online global sequence. Returns false on divergence.
  bool check_engine(const McCase& base, EngineKind engine) {
    McCase c = base;
    c.engine = engine;
    const auto run = run_engine(c);
    const auto off = offline_triple(run.execution, c);
    const bool offline_agrees =
        off.hier_root == off.central && off.central == off.slicing;
    EXPECT_TRUE(offline_agrees) << divergence_report(
        c, std::string("offline engines disagree under online engine ") +
               to_string(engine) + "\n  hier:    " + show(off.hier_root) +
               "\n  central: " + show(off.central) +
               "\n  slicing: " + show(off.slicing));
    bool online_agrees = true;
    if (c.strict()) {  // faults / capacity legitimately lose detections
      online_agrees = run.online_global == off.central;
      EXPECT_TRUE(online_agrees) << divergence_report(
          c, std::string("online ") + to_string(engine) +
                 " diverges from offline reference\n  online:  " +
                 show(run.online_global) + "\n  offline: " +
                 show(off.central));
    }
    ++schedules_;
    return offline_agrees && online_agrees;
  }

  void sweep(const std::vector<McCase>& cases) {
    std::size_t divergences = 0;
    for (const auto& c : cases) {
      for (const EngineKind e :
           {EngineKind::kHier, EngineKind::kCentral, EngineKind::kSlicing}) {
        if (!check_engine(c, e)) {
          ++divergences;
        }
        if (divergences > 3) {
          FAIL() << "too many divergences; stopping the sweep early";
        }
      }
    }
    EXPECT_EQ(divergences, 0u);
  }

  std::size_t schedules_ = 0;
};

TEST_F(ThreeWayTest, SeedSweepSchedulesAgreeAcrossEngines) {
  sweep(seed_sweep_cases(220, 4242));
  EXPECT_EQ(schedules_, 660u);
}

TEST_F(ThreeWayTest, ReorderedSchedulesAgreeAcrossEngines) {
  // Delay-bounded and PCT reorderings plus benign chaos: per-engine report
  // traffic differs, so each engine sees its own schedule — the offline
  // triple anchors them all the same.
  sweep(reorder_cases(120, 7777));
  EXPECT_EQ(schedules_, 360u);
}

// ---- Family B: crash + reattach fault plans ---------------------------------

TEST_F(ThreeWayTest, FaultPlanExecutionsAgreeOffline) {
  // Online detection under crashes needs the hierarchical repair plane
  // (heartbeats + reattach), so the recorded executions come from kHier
  // runs; the three offline engines must still agree on every one of them,
  // crashes, recoveries, and all.
  const auto cases = fault_cases(60, 9999);
  std::size_t with_recovery = 0;
  for (const auto& c : cases) {
    ASSERT_EQ(c.engine, EngineKind::kHier);
    if (!c.recoveries.empty()) {
      ++with_recovery;
    }
    const auto run = run_engine(c);
    const auto off = offline_triple(run.execution, c);
    const bool agree =
        off.hier_root == off.central && off.central == off.slicing;
    EXPECT_TRUE(agree) << divergence_report(
        c, "offline engines disagree on a faulty execution\n  hier:    " +
               show(off.hier_root) + "\n  central: " + show(off.central) +
               "\n  slicing: " + show(off.slicing));
    if (!agree) {
      break;
    }
    ++schedules_;
  }
  EXPECT_EQ(schedules_, 60u);
  EXPECT_GT(with_recovery, 0u) << "family must include crash+reattach plans";
}

// ---- Shared arrival schedules -----------------------------------------------

TEST_F(ThreeWayTest, ShuffledReplaysStayInLockstep) {
  // replay_centralized and replay_slicing share arrival_order(), so under
  // ANY shuffle seed they see the identical schedule and must produce the
  // identical solution sequence — not just equal sets.
  const auto cases = seed_sweep_cases(8, 31337);
  for (const auto& c : cases) {
    const auto run = run_engine(c);
    for (std::uint64_t shuffle = 1; shuffle <= 5; ++shuffle) {
      detect::offline::ReplayOptions copt;
      copt.shuffle_seed = shuffle;
      detect::offline::SlicingReplayOptions sopt;
      sopt.shuffle_seed = shuffle;
      std::vector<BaseSet> central;
      for (const auto& sol :
           detect::offline::replay_centralized(run.execution, copt)) {
        central.push_back(bases_of(sol.members));
      }
      std::vector<BaseSet> slicing;
      for (const auto& sol :
           detect::offline::replay_slicing(run.execution, sopt).solutions) {
        slicing.push_back(bases_of(sol.members));
      }
      EXPECT_EQ(central, slicing) << "shuffle seed " << shuffle;
    }
  }
}

// ---- The oracle stack runs every new engine ---------------------------------

TEST_F(ThreeWayTest, OracleStackPassesSinkEngines) {
  // run_case() wires the sink engines into check_strict_sink; a clean
  // explore() here means the oracle integration itself holds on the same
  // families the checker sweeps for kHier.
  for (const EngineKind e : {EngineKind::kCentral, EngineKind::kSlicing}) {
    auto cases = seed_sweep_cases(60, 2026);
    for (auto& c : cases) {
      c.engine = e;
    }
    const auto stats = explore(cases);
    EXPECT_EQ(stats.failed, 0u) << "engine " << to_string(e);
    for (const auto& f : stats.failures) {
      ADD_FAILURE() << divergence_report(f.c, f.violations.front());
    }
  }
}

}  // namespace
}  // namespace hpd::mc
