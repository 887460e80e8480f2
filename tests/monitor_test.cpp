// Tests of the public hpd::Monitor facade.
#include <gtest/gtest.h>

#include "runner/monitor.hpp"
#include "trace/pulse.hpp"

namespace hpd {
namespace {

TEST(MonitorTest, ScriptedScenarioFiresCallbacks) {
  MonitorConfig cfg;
  cfg.topology = net::Topology::complete(2);
  cfg.delay = sim::DelayModel::fixed(1.0);
  cfg.horizon = 50.0;
  Monitor mon(cfg);
  // Mutually crossing truth intervals on both nodes.
  mon.set_predicate(0, 1.0, true);
  mon.set_predicate(1, 1.0, true);
  mon.send_message(0, 1, 2.0);
  mon.send_message(1, 0, 2.5);
  mon.set_predicate(0, 10.0, false);
  mon.set_predicate(1, 10.0, false);

  int all_count = 0;
  int global_count = 0;
  mon.on_occurrence([&](const detect::OccurrenceRecord&) { ++all_count; });
  mon.on_global_occurrence(
      [&](const detect::OccurrenceRecord& rec) {
        ++global_count;
        EXPECT_TRUE(rec.global);
      });
  const auto res = mon.run();
  EXPECT_EQ(global_count, 1);
  EXPECT_GE(all_count, global_count);
  EXPECT_EQ(res.global_count, 1u);
}

TEST(MonitorTest, NoCrossingNoGlobalDetection) {
  // Concurrent pulses without messages: Possibly but not Definitely, so
  // neither the tree nor the flat sink may report them.
  for (const runner::DetectorKind kind :
       {runner::DetectorKind::kHierarchical,
        runner::DetectorKind::kCentralized}) {
    SCOPED_TRACE(kind == runner::DetectorKind::kHierarchical ? "hier"
                                                             : "central");
    MonitorConfig cfg;
    cfg.topology = net::Topology::complete(2);
    cfg.horizon = 50.0;
    cfg.detector = kind;
    Monitor mon(cfg);
    mon.set_predicate(0, 1.0, true);
    mon.set_predicate(0, 5.0, false);
    mon.set_predicate(1, 1.0, true);
    mon.set_predicate(1, 5.0, false);
    const auto res = mon.run();
    EXPECT_EQ(res.global_count, 0u);
  }
}

TEST(MonitorTest, BehaviorFactoryWorkload) {
  MonitorConfig cfg;
  cfg.topology = net::Topology::grid(2, 2);
  cfg.horizon = 200.0;
  Monitor mon(cfg);
  trace::PulseConfig pc;
  pc.rounds = 3;
  pc.period = 50.0;
  mon.set_behavior_factory([pc](ProcessId) {
    return std::make_unique<trace::PulseBehavior>(pc);
  });
  const auto res = mon.run();
  EXPECT_EQ(res.global_count, 3u);
}

TEST(MonitorTest, FaultTolerantRunSurvivesFailure) {
  MonitorConfig cfg;
  cfg.topology = net::Topology::grid(2, 3);
  cfg.fault_tolerant = true;
  cfg.horizon = 400.0;
  cfg.drain = 120.0;
  Monitor mon(cfg);
  trace::PulseConfig pc;
  pc.rounds = 5;
  pc.period = 70.0;
  mon.set_behavior_factory([pc](ProcessId) {
    return std::make_unique<trace::PulseBehavior>(pc);
  });
  mon.inject_failure(1, 100.0);  // an internal node of the BFS tree
  const auto res = mon.run();
  EXPECT_FALSE(res.final_alive[1]);
  // The surviving nodes stay attached: every live non-root node has a live
  // parent.
  int roots = 0;
  for (std::size_t i = 0; i < res.final_alive.size(); ++i) {
    if (!res.final_alive[i]) {
      continue;
    }
    const ProcessId p = res.final_parents[i];
    if (p == kNoProcess) {
      ++roots;
    } else {
      EXPECT_TRUE(res.final_alive[idx(p)]);
    }
  }
  EXPECT_EQ(roots, 1);
  // Detection kept running after the repair.
  EXPECT_GT(res.global_count, 0u);
}

TEST(MonitorTest, GroupLevelCallbacks) {
  MonitorConfig cfg;
  const auto tree = net::SpanningTree::balanced_dary(2, 3);
  cfg.topology = net::tree_topology(tree);
  cfg.tree = tree;
  cfg.horizon = 400.0;
  Monitor mon(cfg);
  trace::PulseConfig pc;
  pc.rounds = 4;
  pc.period = 80.0;
  mon.set_behavior_factory([pc](ProcessId) {
    return std::make_unique<trace::PulseBehavior>(pc);
  });
  int group1 = 0;
  int group2 = 0;
  int global = 0;
  mon.on_group_occurrence(1, [&](const detect::OccurrenceRecord& rec) {
    ++group1;
    EXPECT_EQ(rec.detector, 1);
    EXPECT_EQ(rec.aggregate.weight, 3u);  // subtree {1, 3, 4}
  });
  mon.on_group_occurrence(2, [&](const detect::OccurrenceRecord&) { ++group2; });
  mon.on_global_occurrence([&](const detect::OccurrenceRecord&) { ++global; });
  mon.run();
  EXPECT_EQ(group1, 4);
  EXPECT_EQ(group2, 4);
  EXPECT_EQ(global, 4);
}

TEST(MonitorTest, RecoveryThroughTheFacade) {
  MonitorConfig cfg;
  cfg.topology = net::Topology::grid(2, 3);
  cfg.fault_tolerant = true;
  cfg.horizon = 900.0;
  cfg.drain = 200.0;
  Monitor mon(cfg);
  trace::PulseConfig pc;
  pc.rounds = 10;
  pc.period = 80.0;
  mon.set_behavior_factory([pc](ProcessId) {
    return std::make_unique<trace::PulseBehavior>(pc);
  });
  mon.inject_failure(4, 200.0);
  mon.inject_recovery(4, 500.0);
  const auto res = mon.run();
  EXPECT_TRUE(res.final_alive[4]);
  EXPECT_NE(res.final_parents[4], kNoProcess);  // readopted
  bool full_after = false;
  for (const auto& rec : res.occurrences) {
    if (rec.global && rec.time > 650.0 && rec.aggregate.weight == 6) {
      full_after = true;
    }
  }
  EXPECT_TRUE(full_after);
}

TEST(MonitorTest, RejectsInvalidMessages) {
  MonitorConfig cfg;
  cfg.topology = net::Topology::ring(4);
  Monitor mon(cfg);
  EXPECT_THROW(mon.send_message(0, 2, 1.0), AssertionError);  // not an edge
}

TEST(MonitorTest, RejectsDisconnectedTopology) {
  MonitorConfig cfg;
  cfg.topology = net::Topology(3);  // no edges
  EXPECT_THROW(Monitor{cfg}, AssertionError);
}

}  // namespace
}  // namespace hpd
