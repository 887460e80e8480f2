// Transport conformance: the behavioural contract of transport::Endpoint,
// checked against every backend — the deterministic simulator and the live
// epoll reactor over sockets (unix-domain and TCP flavours).
//
// Assertions are ordering-agnostic: the contract promises delivery, payload
// integrity, timer semantics and crash behaviour, but no ordering across
// distinct (src, dst) pairs and no delay bounds. All inspection of node
// state happens after stop(), when every callback thread has been joined.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "metrics/counters.hpp"
#include "rt/backend.hpp"
#include "rt/chaos.hpp"
#include "rt/reactor/reactor_transport.hpp"
#include "sim/delay.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "transport/endpoint.hpp"
#include "transport/node.hpp"

namespace hpd {
namespace {

std::vector<std::uint8_t> payload_bytes(int a, int b) {
  return {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b), 0x5A};
}

/// A programmable protocol node: tests install behaviour as lambdas. All
/// fields are written only from the node's callback context; tests read
/// them after Harness::stop().
class ScriptNode : public transport::Node {
 public:
  void on_start() override {
    if (start_fn) {
      start_fn(*this);
    }
  }
  void on_message(const transport::Message& msg) override {
    received.push_back(msg);
    if (message_fn) {
      message_fn(*this, msg);
    }
  }
  void on_timer(int tag) override {
    ++timer_fires[tag];
    if (timer_fn) {
      timer_fn(*this, tag);
    }
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
  std::function<void(ScriptNode&)> start_fn;
  std::function<void(ScriptNode&, const transport::Message&)> message_fn;
  std::function<void(ScriptNode&, int)> timer_fn;

  transport::TimerId saved_timer = transport::kNoTimer;
  std::vector<transport::Message> received;
  std::map<int, int> timer_fires;
};

/// Backend-independent driver surface.
class Harness {
 public:
  virtual ~Harness() = default;
  virtual transport::Endpoint& endpoint(ProcessId id) = 0;
  virtual void start() = 0;
  /// Advance protocol time by `t` units (virtual or scaled wall clock).
  virtual void run_for(SimTime t) = 0;
  virtual void crash(ProcessId id) = 0;
  virtual void stop() = 0;
};

class SimHarness final : public Harness {
 public:
  SimHarness(std::vector<ScriptNode>& nodes,
             std::function<bool(ProcessId, ProcessId)> link_ok)
      : metrics_(nodes.size()),
        rng_(99),
        net_(nodes.size(), sched_, rng_, sim::DelayModel::uniform(0.1, 0.6),
             metrics_, std::move(link_ok)) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].self = static_cast<ProcessId>(i);
      nodes[i].net = &net_;
      net_.register_node(static_cast<ProcessId>(i), nodes[i]);
    }
  }

  transport::Endpoint& endpoint(ProcessId) override { return net_; }
  void start() override { net_.start(); }
  void run_for(SimTime t) override { sched_.run_until(sched_.now() + t); }
  void crash(ProcessId id) override { net_.crash(id); }
  void stop() override {}

 private:
  MetricsRegistry metrics_;
  Rng rng_;
  sim::Scheduler sched_;
  sim::Network net_;
};

class LiveHarness final : public Harness {
 public:
  LiveHarness(std::vector<ScriptNode>& nodes,
              std::function<bool(ProcessId, ProcessId)> link_ok,
              rt::SockAddr::Kind kind) {
    rt::LiveConfig cfg;
    cfg.socket_kind = kind;
    cfg.time_scale = 0.005;  // 5 ms per protocol time unit: jitter-robust
    net_ = std::make_unique<rt::ReactorTransport>(nodes.size(), cfg);
    if (link_ok) {
      net_->set_link_filter(std::move(link_ok));
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto id = static_cast<ProcessId>(i);
      nodes[i].self = id;
      nodes[i].net = &net_->endpoint(id);
      net_->register_node(id, nodes[i]);
    }
  }

  transport::Endpoint& endpoint(ProcessId id) override {
    return net_->endpoint(id);
  }
  void start() override { net_->start(); }
  void run_for(SimTime t) override { net_->sleep_until(net_->now() + t); }
  void crash(ProcessId id) override { net_->crash(id); }
  void stop() override { net_->stop(); }

 private:
  std::unique_ptr<rt::ReactorTransport> net_;
};

// Explicit values: gtest prints the parameter's bytes into each test's id,
// so they stay fixed when a backend is added or removed.
enum class Backend { kSim = 0, kReactorUnix = 3, kReactorTcp = 4 };

class TransportConformance : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<Harness> make(
      std::vector<ScriptNode>& nodes,
      std::function<bool(ProcessId, ProcessId)> link_ok = nullptr) {
    switch (GetParam()) {
      case Backend::kSim:
        return std::make_unique<SimHarness>(nodes, std::move(link_ok));
      case Backend::kReactorUnix:
        return std::make_unique<LiveHarness>(nodes, std::move(link_ok),
                                             rt::SockAddr::Kind::kUnix);
      case Backend::kReactorTcp:
        return std::make_unique<LiveHarness>(nodes, std::move(link_ok),
                                             rt::SockAddr::Kind::kTcp);
    }
    return nullptr;
  }
};

std::vector<std::uint8_t> body_of(const transport::Message& m) {
  return std::any_cast<std::vector<std::uint8_t>>(m.payload);
}

TEST_P(TransportConformance, DeliversAllWithIntactPayloads) {
  constexpr int kCount = 25;
  std::vector<ScriptNode> nodes(2);
  nodes[0].start_fn = [](ScriptNode& n) {
    for (int k = 0; k < kCount; ++k) {
      n.send_to(1, 7, payload_bytes(k, k * 3));
    }
  };
  auto h = make(nodes);
  h->start();
  h->run_for(30.0);
  h->stop();

  ASSERT_EQ(nodes[1].received.size(), static_cast<std::size_t>(kCount));
  // Payloads intact, as a multiset (no cross-message ordering promised).
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::vector<std::uint8_t>> expect;
  for (const auto& m : nodes[1].received) {
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.dst, 1);
    EXPECT_EQ(m.type, 7);
    got.push_back(body_of(m));
  }
  for (int k = 0; k < kCount; ++k) {
    expect.push_back(payload_bytes(k, k * 3));
  }
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
}

TEST_P(TransportConformance, AllToAllDelivery) {
  constexpr std::size_t kN = 4;
  std::vector<ScriptNode> nodes(kN);
  for (auto& node : nodes) {
    node.start_fn = [](ScriptNode& n) {
      for (ProcessId d = 0; d < static_cast<ProcessId>(kN); ++d) {
        if (d != n.self) {
          n.send_to(d, 2, payload_bytes(n.self, d));
        }
      }
    };
  }
  auto h = make(nodes);
  h->start();
  h->run_for(30.0);
  h->stop();

  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(nodes[i].received.size(), kN - 1) << "node " << i;
    std::vector<ProcessId> senders;
    for (const auto& m : nodes[i].received) {
      senders.push_back(m.src);
      EXPECT_EQ(body_of(m), payload_bytes(m.src, static_cast<int>(i)));
    }
    std::sort(senders.begin(), senders.end());
    std::vector<ProcessId> expect;
    for (std::size_t s = 0; s < kN; ++s) {
      if (s != i) {
        expect.push_back(static_cast<ProcessId>(s));
      }
    }
    EXPECT_EQ(senders, expect);
  }
}

TEST_P(TransportConformance, RepliesFlowBack) {
  // Request/response across the transport: 1 echoes everything back to 0,
  // from inside its on_message callback (the threading contract's context).
  constexpr int kCount = 10;
  std::vector<ScriptNode> nodes(2);
  nodes[0].start_fn = [](ScriptNode& n) {
    for (int k = 0; k < kCount; ++k) {
      n.send_to(1, 3, payload_bytes(k, 1));
    }
  };
  nodes[1].message_fn = [](ScriptNode& n, const transport::Message& m) {
    n.send_to(m.src, 4, body_of(m));
  };
  auto h = make(nodes);
  h->start();
  h->run_for(30.0);
  h->stop();
  ASSERT_EQ(nodes[0].received.size(), static_cast<std::size_t>(kCount));
  std::vector<std::vector<std::uint8_t>> got;
  for (const auto& m : nodes[0].received) {
    EXPECT_EQ(m.type, 4);
    got.push_back(body_of(m));
  }
  std::sort(got.begin(), got.end());
  EXPECT_TRUE(std::unique(got.begin(), got.end()) == got.end());
}

TEST_P(TransportConformance, SelfSendDeliversLocally) {
  std::vector<ScriptNode> nodes(2);
  nodes[0].start_fn = [](ScriptNode& n) {
    n.send_to(0, 6, payload_bytes(1, 2));
  };
  auto h = make(nodes);
  h->start();
  h->run_for(10.0);
  h->stop();
  ASSERT_EQ(nodes[0].received.size(), 1u);
  EXPECT_EQ(nodes[0].received[0].src, 0);
  EXPECT_EQ(nodes[0].received[0].type, 6);
  EXPECT_EQ(body_of(nodes[0].received[0]), payload_bytes(1, 2));
}

TEST_P(TransportConformance, TimerSemantics) {
  std::vector<ScriptNode> nodes(1);
  nodes[0].start_fn = [](ScriptNode& n) {
    n.saved_timer =
        n.net->set_timer(n.self, 1, 2.0, /*periodic=*/true, /*period=*/2.0);
    n.net->set_timer(n.self, 2, 3.0);  // one-shot: fires exactly once
    const transport::TimerId doomed = n.net->set_timer(n.self, 3, 5.0);
    n.net->cancel_timer(doomed);  // cancelled before expiry: never fires
  };
  nodes[0].timer_fn = [](ScriptNode& n, int tag) {
    if (tag == 1 && n.timer_fires[1] == 3) {
      // Cancelling a periodic timer from its own callback stops it.
      n.net->cancel_timer(n.saved_timer);
    }
  };
  auto h = make(nodes);
  h->start();
  h->run_for(40.0);
  h->stop();
  EXPECT_EQ(nodes[0].timer_fires[1], 3);
  EXPECT_EQ(nodes[0].timer_fires[2], 1);
  EXPECT_EQ(nodes[0].timer_fires.count(3), 0u);
}

TEST_P(TransportConformance, LinkFilterBlocksNonNeighbors) {
  // Chain 0 - 1 - 2: direct 0→2 traffic must be dropped by the transport.
  auto chain = [](ProcessId a, ProcessId b) {
    return a - b == 1 || b - a == 1;
  };
  std::vector<ScriptNode> nodes(3);
  nodes[0].start_fn = [](ScriptNode& n) {
    n.send_to(2, 9, payload_bytes(0, 2));  // dropped: not a link
    n.send_to(1, 8, payload_bytes(0, 1));  // delivered
  };
  auto h = make(nodes, chain);
  h->start();
  h->run_for(20.0);
  h->stop();
  EXPECT_EQ(nodes[2].received.size(), 0u);
  ASSERT_EQ(nodes[1].received.size(), 1u);
  EXPECT_EQ(nodes[1].received[0].type, 8);
}

TEST_P(TransportConformance, CrashStopsDeliveryAndAliveReflectsIt) {
  std::vector<ScriptNode> nodes(2);
  // Node 0 streams one message per time unit to node 1, forever.
  nodes[0].start_fn = [](ScriptNode& n) {
    n.net->set_timer(n.self, 1, 1.0, /*periodic=*/true, /*period=*/1.0);
  };
  nodes[0].timer_fn = [](ScriptNode& n, int tag) {
    if (tag == 1) {
      n.send_to(1, 5, payload_bytes(n.timer_fires[1], 0));
    }
  };
  auto h = make(nodes);
  h->start();
  h->run_for(20.0);
  EXPECT_TRUE(h->endpoint(0).alive(1));
  h->crash(1);
  EXPECT_FALSE(h->endpoint(0).alive(1));
  // crash() is synchronous in every backend (scheduler purge / thread join /
  // worker op future), so the victim's delivery log is stable from here on:
  // "nothing delivered after death" is exact, not a timing-slack bound.
  const std::size_t at_crash = nodes[1].received.size();
  EXPECT_GE(at_crash, 5u);
  // The sender must keep running against a dead peer without deadlock.
  h->run_for(20.0);
  h->stop();
  EXPECT_EQ(nodes[1].received.size(), at_crash);
  EXPECT_GE(nodes[0].timer_fires[1], 15);  // sender stayed live throughout
}

// Chaos injection must be a pure function of (seed, src, dst, seq, attempt):
// two runs over real sockets — with all the kernel-scheduling jitter that
// implies — must produce byte-identical chaos-event logs. Retransmission is
// pushed past the test window so only first-attempt frames exist; otherwise
// wall-clock-dependent retransmit counts would legitimately differ between
// runs (each attempt is its own deterministic decision, but *how many*
// attempts happen depends on timing).
TEST(TransportChaosDeterminism, SameSeedSameEventLog) {
  auto run_once = [](int workers) {
    constexpr std::size_t kN = 3;
    std::vector<ScriptNode> nodes(kN);
    for (auto& node : nodes) {
      node.start_fn = [](ScriptNode& n) {
        for (ProcessId d = 0; d < static_cast<ProcessId>(kN); ++d) {
          if (d == n.self) {
            continue;
          }
          for (int k = 0; k < 20; ++k) {
            n.send_to(d, 2, payload_bytes(k, d));
          }
        }
      };
    }
    rt::LiveConfig cfg;
    cfg.reactor_workers = workers;
    cfg.time_scale = 0.005;
    cfg.retx_initial = 1.0e5;  // no retransmissions inside the test window
    cfg.chaos.drop_p = 0.25;
    cfg.chaos.dup_p = 0.15;
    cfg.chaos.corrupt_p = 0.10;
    cfg.chaos.reset_p = 0.05;
    cfg.chaos.delay_p = 0.10;
    cfg.chaos.seed = 42;
    rt::ReactorTransport net(kN, cfg);
    for (std::size_t i = 0; i < kN; ++i) {
      const auto id = static_cast<ProcessId>(i);
      nodes[i].self = id;
      nodes[i].net = &net.endpoint(id);
      net.register_node(id, nodes[i]);
    }
    net.start();
    net.sleep_until(net.now() + 20.0);
    net.stop();
    return net.chaos_events();
  };

  // Determinism across runs — and across *schedulers*: the chaos plan is a
  // pure function of (seed, src, dst, seq, attempt), so sharding the nodes
  // over three workers must produce the byte-identical event log that one
  // worker running every node does.
  const std::vector<rt::ChaosEvent> a = run_once(1);
  const std::vector<rt::ChaosEvent> b = run_once(1);
  const std::vector<rt::ChaosEvent> c = run_once(3);
  EXPECT_FALSE(a.empty());
  auto expect_same = [&](const std::vector<rt::ChaosEvent>& x,
                         const char* label) {
    ASSERT_EQ(a.size(), x.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i] == x[i])
          << label << " diverged at event " << i << ": "
          << rt::to_string(a[i].kind) << " src=" << a[i].src
          << " dst=" << a[i].dst << " seq=" << a[i].seq
          << " attempt=" << a[i].attempt << " vs " << rt::to_string(x[i].kind)
          << " src=" << x[i].src << " dst=" << x[i].dst << " seq=" << x[i].seq
          << " attempt=" << x[i].attempt;
    }
  };
  expect_same(b, "1-worker-vs-1-worker");
  expect_same(c, "1-worker-vs-3-workers");
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TransportConformance,
    ::testing::Values(Backend::kSim, Backend::kReactorUnix,
                      Backend::kReactorTcp),
    // Named `pinfo`, not `info`: the INSTANTIATE_ macro itself declares an
    // `info` parameter the lambda would shadow (-Wshadow).
    [](const ::testing::TestParamInfo<Backend>& pinfo) -> std::string {
      switch (pinfo.param) {
        case Backend::kSim:
          return "Sim";
        case Backend::kReactorUnix:
          return "ReactorUnix";
        case Backend::kReactorTcp:
          return "ReactorTcp";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace hpd
