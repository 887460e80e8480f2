// End-to-end tests of the live runtime: the full protocol stack (app layer,
// hierarchical detection, heartbeats, reattachment) over the epoll reactor
// and real sockets, validated by the same offline oracles the model checker
// uses.
//
// The differential works because Theorem 2's detection outcome is
// schedule-independent (confluence): whatever interleaving the kernel
// scheduler produced, the merged occurrence stream must match the offline
// replay of the execution the run itself recorded. For fault runs, the
// measured crash/revive instants (not the planned ones) are substituted
// into the case before the alive-window and coverage oracles run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mc/mc_case.hpp"
#include "mc/oracles.hpp"
#include "net/spanning_tree.hpp"
#include "net/topology.hpp"
#include "rt/live_runner.hpp"
#include "runner/experiment.hpp"
#include "trace/pulse.hpp"

namespace hpd {
namespace {

/// Run a case over the live transport and return the oracle verdicts.
/// `c` is updated in place with the measured fault timeline.
std::vector<std::string> run_live_case(mc::McCase& c, const rt::LiveConfig& lc,
                                       rt::LiveResult* out = nullptr) {
  const runner::ExperimentConfig cfg = mc::build_case(c);
  rt::LiveResult res = rt::run_live_experiment(cfg, lc);

  // The oracles must judge the run that actually happened: replace the
  // planned fault instants with the measured ones.
  c.crashes.clear();
  c.recoveries.clear();
  for (const rt::LifeEvent& ev : res.actual_crashes) {
    c.crashes.push_back({ev.time, ev.node});
  }
  for (const rt::LifeEvent& ev : res.actual_recoveries) {
    c.recoveries.push_back({ev.time, ev.node});
  }
  std::vector<std::string> violations = mc::check_oracles(c, cfg, res.result);
  if (out != nullptr) {
    *out = std::move(res);
  }
  return violations;
}

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const auto& x : v) {
    s += x;
    s += '\n';
  }
  return s;
}

TEST(LiveRuntime, FailureFreePulseMatchesOracles) {
  mc::McCase c;
  c.topology = "dary:2:2";
  c.workload = mc::WorkloadKind::kPulse;
  c.pulse_rounds = 3;
  c.pulse_period = 30.0;
  c.seed = 7;

  rt::LiveConfig lc;
  lc.time_scale = 0.005;
  rt::LiveResult res;
  const auto violations = run_live_case(c, lc, &res);
  EXPECT_TRUE(violations.empty()) << join(violations);

  // The strict tier ran (failure-free, unbounded queues) and the run did
  // real work over real sockets.
  ASSERT_TRUE(c.strict());
  EXPECT_GT(res.result.global_count, 0u);
  EXPECT_FALSE(res.result.occurrences.empty());
  EXPECT_EQ(res.frame_errors, 0u);
  EXPECT_GT(res.delivered_messages, 0u);
  EXPECT_GT(res.connections_accepted, 0u);
  EXPECT_GT(res.result.metrics.msgs_total(), 0u);
  EXPECT_GT(res.result.metrics.wire_bytes_total(), 0u);
  for (const bool a : res.result.final_alive) {
    EXPECT_TRUE(a);
  }
}

TEST(LiveRuntime, FailureFreeGossipMatchesOracles) {
  mc::McCase c;
  c.topology = "dary:2:2";
  c.workload = mc::WorkloadKind::kGossip;
  c.horizon = 60.0;
  c.seed = 21;

  rt::LiveConfig lc;
  lc.time_scale = 0.005;
  const auto violations = run_live_case(c, lc);
  EXPECT_TRUE(violations.empty()) << join(violations);
}

TEST(LiveRuntime, TcpBackendMatchesOracles) {
  mc::McCase c;
  c.topology = "dary:2:2";
  c.workload = mc::WorkloadKind::kPulse;
  c.pulse_rounds = 2;
  c.pulse_period = 30.0;
  c.seed = 11;

  rt::LiveConfig lc;
  lc.socket_kind = rt::SockAddr::Kind::kTcp;
  lc.time_scale = 0.005;
  rt::LiveResult res;
  const auto violations = run_live_case(c, lc, &res);
  EXPECT_TRUE(violations.empty()) << join(violations);
  EXPECT_EQ(res.frame_errors, 0u);
  EXPECT_GT(res.result.global_count, 0u);
}

// The centralized baseline over sockets: ProcessRuntime is detector-
// agnostic, so the same live transport must carry the hop-by-hop relay
// protocol too. Pulse with full participation detects exactly once per
// round whatever the interleaving, so the simulated run of the identical
// config is a valid reference for the live one.
TEST(LiveRuntime, CentralizedBaselineMatchesSim) {
  runner::ExperimentConfig cfg;
  auto tree = net::SpanningTree::balanced_dary(2, 2);
  cfg.topology = net::tree_topology(tree);
  cfg.tree = std::move(tree);
  trace::PulseConfig pc;
  pc.rounds = 3;
  pc.period = 30.0;
  pc.start = 5.0;
  cfg.behavior_factory = [pc](ProcessId) {
    return std::make_unique<trace::PulseBehavior>(pc);
  };
  cfg.horizon = pc.start + static_cast<SimTime>(pc.rounds) * pc.period +
                pc.period;
  cfg.drain = 80.0;
  cfg.detector = runner::DetectorKind::kCentralized;
  cfg.wire_encoding = true;
  cfg.seed = 13;

  const auto sim_res = runner::run_experiment(cfg);
  ASSERT_GT(sim_res.global_count, 0u);

  rt::LiveConfig lc;
  lc.time_scale = 0.005;
  const rt::LiveResult live = rt::run_live_experiment(cfg, lc);
  EXPECT_EQ(live.result.global_count, sim_res.global_count);
  EXPECT_EQ(live.frame_errors, 0u);
  EXPECT_GT(live.result.metrics.msgs_total(), 0u);
}

// N = 16 nodes on a multi-hop (grid) topology, one injected crash plus
// reattachment, running long enough for repair to settle so the
// surviving-subtree coverage oracle (Section III-F) applies. Heartbeat timing
// is relaxed relative to the simulator defaults — real scheduler jitter must
// stay well inside the suspicion timeout. Crash teardown, revive rebinding,
// reattachment and the coverage oracle must all hold on the worker pool.
TEST(LiveRuntime, CrashReattachSoak16NodesReactor) {
  mc::McCase c;
  c.topology = "grid:4x4";
  c.workload = mc::WorkloadKind::kPulse;
  c.pulse_rounds = 7;
  c.pulse_period = 30.0;
  c.crashes = {{40.0, 5}};
  c.recoveries = {{70.0, 5}};
  c.seed = 3;

  runner::ExperimentConfig cfg = mc::build_case(c);
  ASSERT_TRUE(cfg.heartbeats);
  cfg.hb_config.period = 5.0;
  cfg.hb_config.timeout_multiplier = 4.0;

  rt::LiveConfig lc;
  lc.time_scale = 0.01;  // 10 ms per unit: heartbeat timeout = 200 ms real
  rt::LiveResult res = rt::run_live_experiment(cfg, lc);

  ASSERT_EQ(res.actual_crashes.size(), 1u);
  ASSERT_EQ(res.actual_recoveries.size(), 1u);
  EXPECT_EQ(res.actual_crashes[0].node, 5);
  EXPECT_EQ(res.actual_recoveries[0].node, 5);
  // Faults land at (or shortly after) their planned instants; far drift
  // would push repair past the settle window the coverage oracle needs.
  EXPECT_GE(res.actual_crashes[0].time, 40.0);
  EXPECT_LE(res.actual_crashes[0].time, 60.0);
  EXPECT_GE(res.actual_recoveries[0].time, 70.0);
  EXPECT_LE(res.actual_recoveries[0].time, 90.0);

  c.crashes = {{res.actual_crashes[0].time, 5}};
  c.recoveries = {{res.actual_recoveries[0].time, 5}};
  ASSERT_TRUE(c.coverage_checkable());
  const auto violations = mc::check_oracles(c, cfg, res.result);
  EXPECT_TRUE(violations.empty()) << join(violations);

  EXPECT_EQ(res.frame_errors, 0u);
  EXPECT_GT(res.result.global_count, 0u);
  for (const bool a : res.result.final_alive) {
    EXPECT_TRUE(a);  // the crashed node revived and survived to the end
  }
  EXPECT_GT(res.reactor.workers, 0u);
  EXPECT_GT(res.reactor.wakeups, 0u);
  EXPECT_GT(res.reactor.timer_fires, 0u);
}

// A quick many-nodes-per-worker sanity run: 64 nodes multiplexed onto at
// most 2 workers exercises fd-map sharding and wheel re-arming under real
// contention (the scale smoke in CI pushes this to thousands of nodes).
TEST(LiveRuntime, ReactorShardsManyNodesPerWorker) {
  mc::McCase c;
  c.topology = "dary:3:3";  // 40 nodes
  c.workload = mc::WorkloadKind::kPulse;
  c.pulse_rounds = 4;
  c.pulse_period = 30.0;
  c.seed = 9;

  runner::ExperimentConfig cfg = mc::build_case(c);
  rt::LiveConfig lc;
  lc.reactor_workers = 2;
  lc.time_scale = 0.01;
  rt::LiveResult res = rt::run_live_experiment(cfg, lc);

  const auto violations = mc::check_oracles(c, cfg, res.result);
  EXPECT_TRUE(violations.empty()) << join(violations);
  EXPECT_EQ(res.reactor.workers, 2u);
  EXPECT_EQ(res.frame_errors, 0u);
  EXPECT_EQ(res.transport.surfaced_losses, 0u);
  EXPECT_EQ(res.transport.msgs_delivered, res.transport.reliable_sent);
}

}  // namespace
}  // namespace hpd
