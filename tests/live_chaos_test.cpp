// Chaos hardening of the live transport: frame-level fault injection under
// the reliable session layer, checked end-to-end.
//
// The contract under test (see rt/session.hpp): chaos may drop,
// duplicate, corrupt, delay or reset DATA frames, yet every accepted message
// is either delivered exactly once or *surfaced* through
// transport::Node::on_peer_unreachable and the surfaced_losses counter —
// never silently lost. Concretely:
//
//   delivered + surfaced_losses >= reliable_sent      (no silent loss)
//   delivered <= reliable_sent                        (unique delivery)
//
// with exact equality (delivered == sent, surfaced == 0) on failure-free
// runs that stop injecting before the drain so retransmission can flush.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mc/mc_case.hpp"
#include "mc/oracles.hpp"
#include "metrics/counters.hpp"
#include "rt/chaos.hpp"
#include "rt/live_runner.hpp"
#include "rt/reactor/reactor_transport.hpp"
#include "runner/experiment.hpp"
#include "transport/endpoint.hpp"
#include "transport/node.hpp"

namespace hpd {
namespace {

/// Minimal programmable node: behaviour installed as lambdas, state read
/// only after ReactorTransport::stop() has joined every worker thread.
class ChaosNode : public transport::Node {
 public:
  void on_start() override {
    if (start_fn) {
      start_fn(*this);
    }
  }
  void on_message(const transport::Message& msg) override {
    received.push_back(std::any_cast<std::vector<std::uint8_t>>(msg.payload));
  }
  void on_timer(int tag) override {
    if (timer_fn) {
      timer_fn(*this, tag);
    }
  }
  void on_peer_unreachable(ProcessId peer) override {
    (void)peer;
    ++unreachable_upcalls;
  }

  void send_to(ProcessId dst, int type, std::vector<std::uint8_t> bytes) {
    transport::Message m;
    m.src = self;
    m.dst = dst;
    m.type = type;
    m.wire_words = bytes.size();
    m.payload = std::move(bytes);
    net->send(std::move(m));
  }

  ProcessId self = kNoProcess;
  transport::Endpoint* net = nullptr;
  std::function<void(ChaosNode&)> start_fn;
  std::function<void(ChaosNode&, int)> timer_fn;
  std::vector<std::vector<std::uint8_t>> received;
  int unreachable_upcalls = 0;
};

void attach(rt::ReactorTransport& net, std::vector<ChaosNode>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto id = static_cast<ProcessId>(i);
    nodes[i].self = id;
    nodes[i].net = &net.endpoint(id);
    net.register_node(id, nodes[i]);
  }
}

/// All-to-all burst under drop + duplicate chaos: every message must arrive
/// exactly once, recovered by retransmission, with duplicates absorbed by
/// the receive window — and the books must balance exactly.
TEST(LiveChaos, ReliableDeliveryUnderDropAndDup) {
  constexpr std::size_t kN = 4;
  constexpr int kPerPeer = 50;
  std::vector<ChaosNode> nodes(kN);
  for (auto& node : nodes) {
    node.start_fn = [](ChaosNode& n) {
      for (ProcessId d = 0; d < static_cast<ProcessId>(kN); ++d) {
        if (d == n.self) {
          continue;
        }
        for (int k = 0; k < kPerPeer; ++k) {
          n.send_to(d, 2,
                    {static_cast<std::uint8_t>(n.self),
                     static_cast<std::uint8_t>(k)});
        }
      }
    };
  }

  rt::LiveConfig cfg;
  cfg.time_scale = 0.005;
  cfg.chaos.drop_p = 0.20;
  cfg.chaos.dup_p = 0.10;
  cfg.chaos.until = 20.0;  // stop injecting so retransmission can flush
  cfg.chaos.seed = 7;
  rt::ReactorTransport net(kN, cfg);
  attach(net, nodes);
  net.start();
  net.sleep_until(80.0);
  net.stop();

  const TransportCounters tc = net.stats();
  const auto expected_sent =
      static_cast<std::uint64_t>(kN * (kN - 1) * kPerPeer);
  EXPECT_EQ(tc.reliable_sent, expected_sent);
  EXPECT_EQ(tc.msgs_delivered, expected_sent);
  EXPECT_EQ(tc.surfaced_losses, 0u);
  EXPECT_GT(tc.retransmits, 0u);
  EXPECT_GT(tc.dups_suppressed, 0u);
  EXPECT_GT(tc.chaos_events, 0u);
  EXPECT_FALSE(net.chaos_events().empty());

  // Each node holds exactly one copy of each peer's kPerPeer payloads.
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(nodes[i].received.size(),
              static_cast<std::size_t>((kN - 1) * kPerPeer))
        << "node " << i;
    auto got = nodes[i].received;
    std::sort(got.begin(), got.end());
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
        << "duplicate delivery at node " << i;
  }
}

/// Regression: a failed dial starts a peer-down cooldown; the cooldown must
/// expire the moment the peer is observed alive again (the revive()
/// broadcast), not after the wall-clock cooldown lapses. With a 60 s
/// cooldown and a sub-second test window, post-revive delivery only happens
/// when the revive observation clears it.
TEST(LiveChaos, CooldownExpiresOnRevive) {
  constexpr SimTime kCrashAt = 10.0;
  constexpr SimTime kReviveAt = 20.0;
  constexpr SimTime kEndAt = 50.0;

  std::vector<ChaosNode> nodes(2);
  nodes[0].start_fn = [](ChaosNode& n) {
    n.net->set_timer(n.self, 1, 1.0, /*periodic=*/true, /*period=*/1.0);
  };
  nodes[0].timer_fn = [count = 0](ChaosNode& n, int) mutable {
    ++count;
    n.send_to(1, 5, {static_cast<std::uint8_t>(count)});
  };

  rt::LiveConfig cfg;
  cfg.time_scale = 0.005;
  cfg.peer_down_cooldown = std::chrono::milliseconds(60000);
  rt::ReactorTransport net(2, cfg);
  attach(net, nodes);
  net.start();
  net.sleep_until(kCrashAt);
  net.crash(1);
  net.sleep_until(kReviveAt);
  net.revive(1);
  net.sleep_until(kEndAt);
  net.stop();

  // Deliveries resumed well after the revive: sends from the last stretch
  // of the run (numbered beyond the revive instant) made it through, which
  // is impossible while the 60 s cooldown is still blocking the re-dial.
  int max_payload = 0;
  for (const auto& p : nodes[1].received) {
    ASSERT_EQ(p.size(), 1u);
    max_payload = std::max(max_payload, static_cast<int>(p[0]));
  }
  EXPECT_GE(max_payload, static_cast<int>(kReviveAt) + 10);

  // Messages queued while node 1 was dead were addressed to its previous
  // incarnation: the revive broadcast purges them as surfaced losses and
  // reports the peer unreachable — they are not silently dropped and not
  // delivered across the epoch boundary.
  const TransportCounters tc = net.stats();
  EXPECT_GT(tc.surfaced_losses, 0u);
  EXPECT_GT(nodes[0].unreachable_upcalls, 0);
  EXPECT_GE(tc.msgs_delivered + tc.surfaced_losses, tc.reliable_sent);
  EXPECT_LE(tc.msgs_delivered, tc.reliable_sent);
}

/// A corrupted frame poisons the receiver's FrameReader (wire/frame): the
/// connection is torn down, the counters record it, and the session layer
/// resynchronizes over a fresh connection — every message still arrives
/// exactly once.
TEST(LiveChaos, CorruptStreamResyncsByReconnect) {
  constexpr int kCount = 100;
  std::vector<ChaosNode> nodes(2);
  nodes[0].start_fn = [](ChaosNode& n) {
    for (int k = 0; k < kCount; ++k) {
      n.send_to(1, 3,
                {static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(7)});
    }
  };

  rt::LiveConfig cfg;
  cfg.time_scale = 0.005;
  cfg.peer_down_cooldown = std::chrono::milliseconds(10);
  cfg.chaos.corrupt_p = 0.30;
  cfg.chaos.until = 20.0;
  cfg.chaos.seed = 11;
  rt::ReactorTransport net(2, cfg);
  attach(net, nodes);
  net.start();
  net.sleep_until(80.0);
  net.stop();

  const TransportCounters tc = net.stats();
  EXPECT_EQ(tc.reliable_sent, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(tc.msgs_delivered, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(tc.surfaced_losses, 0u);
  EXPECT_GT(tc.frame_errors, 0u);
  EXPECT_GT(tc.conn_resets, 0u);
  ASSERT_EQ(nodes[1].received.size(), static_cast<std::size_t>(kCount));
  auto got = nodes[1].received;
  std::sort(got.begin(), got.end());
  EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
}

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const auto& x : v) {
    s += x;
    s += '\n';
  }
  return s;
}

/// Failure-free full protocol stack under chaos: the strict per-node
/// differential against the offline replay must still hold — the session
/// layer makes frame-level faults invisible to the detection algorithm.
TEST(LiveChaos, StrictDifferentialOracleHoldsUnderChaos) {
  mc::McCase c;
  c.topology = "dary:2:2";
  c.workload = mc::WorkloadKind::kPulse;
  c.pulse_rounds = 3;
  c.pulse_period = 30.0;
  c.seed = 19;
  ASSERT_TRUE(c.strict());

  const runner::ExperimentConfig cfg = mc::build_case(c);
  rt::LiveConfig lc;
  lc.time_scale = 0.005;
  lc.chaos.drop_p = 0.15;
  lc.chaos.dup_p = 0.08;
  lc.chaos.corrupt_p = 0.03;
  lc.chaos.delay_p = 0.05;
  lc.chaos.delay_max = 2.0;
  lc.chaos.until = cfg.horizon;  // the drain phase flushes retransmits
  lc.chaos.seed = 23;
  const rt::LiveResult res = rt::run_live_experiment(cfg, lc);

  const auto violations = mc::check_oracles(c, cfg, res.result);
  EXPECT_TRUE(violations.empty()) << join(violations);
  EXPECT_GT(res.result.global_count, 0u);

  EXPECT_EQ(res.transport.msgs_delivered, res.transport.reliable_sent);
  EXPECT_EQ(res.transport.surfaced_losses, 0u);
  EXPECT_GT(res.transport.retransmits, 0u);
  EXPECT_GT(res.transport.chaos_events, 0u);
  EXPECT_FALSE(res.chaos_events.empty());
  // The counters flow into the shared metrics registry (hpd_sim --json).
  EXPECT_EQ(res.result.metrics.transport().reliable_sent,
            res.transport.reliable_sent);
}

/// The acceptance scenario: 16 nodes on a multi-hop grid, one crash plus
/// reattachment, with >= 10% drop and >= 5% duplication injected for the
/// whole workload. The coverage oracle must pass and the loss accounting
/// must balance — chaos may slow the run down but may not lose a message
/// silently or deliver one twice.
TEST(LiveChaos, ChaosSoak16NodesCrashReattach) {
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
  lc.chaos.drop_p = 0.12;
  lc.chaos.dup_p = 0.06;
  lc.chaos.until = cfg.horizon;
  lc.chaos.seed = 31;
  rt::LiveResult res = rt::run_live_experiment(cfg, lc);

  ASSERT_EQ(res.actual_crashes.size(), 1u);
  ASSERT_EQ(res.actual_recoveries.size(), 1u);
  EXPECT_GE(res.actual_crashes[0].time, 40.0);
  EXPECT_LE(res.actual_crashes[0].time, 60.0);
  EXPECT_GE(res.actual_recoveries[0].time, 70.0);
  EXPECT_LE(res.actual_recoveries[0].time, 90.0);

  c.crashes = {{res.actual_crashes[0].time, 5}};
  c.recoveries = {{res.actual_recoveries[0].time, 5}};
  ASSERT_TRUE(c.coverage_checkable());
  const auto violations = mc::check_oracles(c, cfg, res.result);
  EXPECT_TRUE(violations.empty()) << join(violations);
  EXPECT_GT(res.result.global_count, 0u);

  const TransportCounters& tc = res.transport;
  EXPECT_GT(tc.chaos_events, 0u);
  EXPECT_GT(tc.retransmits, 0u);
  EXPECT_GT(tc.dups_suppressed, 0u);
  // Zero silent loss, unique delivery: under a crash the sender cannot know
  // whether in-flight messages landed before the axe fell, so a message may
  // be both delivered and surfaced — the inequalities are the strongest
  // invariant that exists (two-generals), and they must be tight.
  EXPECT_GE(tc.msgs_delivered + tc.surfaced_losses, tc.reliable_sent);
  EXPECT_LE(tc.msgs_delivered, tc.reliable_sent);
  for (const bool a : res.result.final_alive) {
    EXPECT_TRUE(a);  // the crashed node revived and survived to the end
  }
}

}  // namespace
}  // namespace hpd
