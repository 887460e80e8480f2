// Byte-identity tests for the work-parallel offline replay drivers:
// replay_triple() and the *_sharded() drivers vs their serial counterparts
// over recorded executions — identical solution streams.
//
// Named Parallel* on purpose: the TSan CI leg selects suites by that
// token, so these run with full race instrumentation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "detect/offline/par_replay.hpp"
#include "interval/interval.hpp"
#include "net/spanning_tree.hpp"
#include "net/topology.hpp"
#include "parallel/thread_pool.hpp"
#include "runner/experiment.hpp"
#include "trace/gossip.hpp"

namespace hpd {
namespace {

runner::ExperimentConfig gossip_case(std::uint64_t seed,
                                     runner::DetectorKind kind) {
  runner::ExperimentConfig cfg;
  cfg.topology = net::Topology::grid(2, 3);
  cfg.tree = net::SpanningTree::bfs_tree(cfg.topology, 0);
  trace::GossipConfig g;
  g.horizon = 250.0;
  g.mean_gap = 4.0;
  g.p_toggle = 0.4;
  cfg.behavior_factory = [g](ProcessId) {
    return std::make_unique<trace::GossipBehavior>(g);
  };
  cfg.horizon = 270.0;
  cfg.drain = 80.0;
  cfg.detector = kind;
  cfg.record_execution = true;
  cfg.seed = seed;
  return cfg;
}

std::string solutions_fingerprint(const std::vector<detect::Solution>& sols) {
  std::string out;
  for (const auto& sol : sols) {
    for (const Interval& m : sol.members) {
      out += m.to_string();
      out += ';';
    }
    out += '|';
  }
  return out;
}

TEST(ParallelReplayTest, TripleMatchesSerialReplays) {
  parallel::ThreadPool pool(2);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const auto cfg = gossip_case(seed, runner::DetectorKind::kHierarchical);
    const auto res = runner::run_experiment(cfg);
    detect::offline::TripleOptions topt;
    const auto triple =
        detect::offline::replay_triple(res.execution, cfg.tree, topt, pool);

    detect::offline::ReplayOptions copt;
    EXPECT_EQ(
        solutions_fingerprint(triple.central),
        solutions_fingerprint(
            detect::offline::replay_centralized(res.execution, copt)));

    detect::offline::SlicingReplayOptions sopt;
    const auto serial_slicing =
        detect::offline::replay_slicing(res.execution, sopt);
    EXPECT_EQ(solutions_fingerprint(triple.slicing.solutions),
              solutions_fingerprint(serial_slicing.solutions));
    EXPECT_EQ(triple.slicing.admitted, serial_slicing.admitted);
    EXPECT_EQ(triple.slicing.discarded_by_slice,
              serial_slicing.discarded_by_slice);

    const auto serial_hier =
        detect::offline::hier_replay(res.execution, cfg.tree);
    ASSERT_EQ(triple.hier.solutions.size(), serial_hier.solutions.size());
    for (const auto& [node, sols] : serial_hier.solutions) {
      const auto it = triple.hier.solutions.find(node);
      ASSERT_NE(it, triple.hier.solutions.end());
      EXPECT_EQ(solutions_fingerprint(it->second),
                solutions_fingerprint(sols));
    }
  }
}

TEST(ParallelReplayTest, ShardedDriversPreserveInputOrderAndContent) {
  parallel::ThreadPool pool(3);
  std::vector<trace::ExecutionRecord> execs;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    execs.push_back(
        runner::run_experiment(
            gossip_case(seed, runner::DetectorKind::kCentralized))
            .execution);
  }
  const std::span<const trace::ExecutionRecord> span(execs);

  detect::offline::ReplayOptions copt;
  const auto central =
      detect::offline::replay_centralized_sharded(span, copt, pool);
  ASSERT_EQ(central.size(), execs.size());
  for (std::size_t i = 0; i < execs.size(); ++i) {
    EXPECT_EQ(solutions_fingerprint(central[i]),
              solutions_fingerprint(
                  detect::offline::replay_centralized(execs[i], copt)))
        << "execution " << i;
  }

  detect::offline::SlicingReplayOptions sopt;
  const auto slicing =
      detect::offline::replay_slicing_sharded(span, sopt, pool);
  ASSERT_EQ(slicing.size(), execs.size());
  for (std::size_t i = 0; i < execs.size(); ++i) {
    EXPECT_EQ(solutions_fingerprint(slicing[i].solutions),
              solutions_fingerprint(
                  detect::offline::replay_slicing(execs[i], sopt).solutions))
        << "execution " << i;
  }

  const auto possibly = detect::offline::possibly_replay_sharded(
      span, detect::PossiblyEngine::Mode::kRepeatedConsumeAll, pool);
  ASSERT_EQ(possibly.size(), execs.size());
  for (std::size_t i = 0; i < execs.size(); ++i) {
    EXPECT_EQ(solutions_fingerprint(possibly[i]),
              solutions_fingerprint(detect::possibly_replay(execs[i])))
        << "execution " << i;
  }
}

}  // namespace
}  // namespace hpd
