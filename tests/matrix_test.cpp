// Cross-feature matrix: every combination of {detector} × {wire encoding}
// × {failure plan} × {topology family} that is supported must run to
// completion and satisfy the universal invariants. This is the "did some
// feature pair rot?" tripwire.
#include <gtest/gtest.h>

#include <sstream>

#include "runner/experiment.hpp"
#include "trace/pulse.hpp"

namespace hpd::runner {
namespace {

struct MatrixCase {
  const char* topology;
  DetectorKind detector;
  bool wire;
  bool failures;  // kill one node (+ heartbeats, hierarchical only)
};

std::string case_name(const MatrixCase& c) {
  std::ostringstream os;
  os << c.topology << "/"
     << (c.detector == DetectorKind::kHierarchical ? "hier" : "central")
     << (c.wire ? "/wire" : "") << (c.failures ? "/fail" : "");
  return os.str();
}

net::Topology make_topology(const std::string& kind, Rng& rng) {
  if (kind == "grid") {
    return net::Topology::grid(3, 3);
  }
  if (kind == "geometric") {
    return net::Topology::random_geometric(12, 0.4, rng);
  }
  if (kind == "smallworld") {
    return net::Topology::small_world(12, 4, 0.2, rng);
  }
  if (kind == "scalefree") {
    return net::Topology::scale_free(12, 2, rng);
  }
  return net::Topology::complete(6);
}

class MatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(MatrixTest, RunsAndHoldsInvariants) {
  const MatrixCase& c = GetParam();
  Rng topo_rng(7);
  ExperimentConfig cfg;
  cfg.topology = make_topology(c.topology, topo_rng);
  cfg.tree = net::SpanningTree::bfs_tree(cfg.topology, 0);
  trace::PulseConfig pc;
  pc.rounds = 8;
  pc.period = 80.0;
  cfg.behavior_factory = [pc](ProcessId) {
    return std::make_unique<trace::PulseBehavior>(pc);
  };
  cfg.horizon = 740.0;
  cfg.drain = 200.0;
  cfg.seed = 99;
  cfg.detector = c.detector;
  cfg.wire_encoding = c.wire;
  cfg.occurrence_solutions = false;
  if (c.failures) {
    cfg.heartbeats = c.detector == DetectorKind::kHierarchical;
    cfg.failures.push_back(FailureEvent{250.0, 2});
  }

  const ExperimentResult res = run_experiment(cfg);
  SCOPED_TRACE(case_name(c));

  // Universal invariants.
  EXPECT_GT(res.metrics.msgs_total(), 0u);
  if (!c.failures) {
    // Full participation, no failures: every round detected.
    EXPECT_EQ(res.global_count, 8u);
    EXPECT_EQ(res.dropped_messages, 0u);
  } else if (c.detector == DetectorKind::kHierarchical) {
    // With repair, detection continues for the survivors.
    bool late = false;
    for (const auto& rec : res.occurrences) {
      late = late || (rec.global && rec.time > 500.0);
    }
    EXPECT_TRUE(late);
  }
  // Occurrence indices are per-node monotone.
  std::map<ProcessId, SeqNum> last_index;
  for (const auto& rec : res.occurrences) {
    auto it = last_index.find(rec.detector);
    if (it != last_index.end()) {
      EXPECT_GT(rec.index, it->second);
    }
    last_index[rec.detector] = rec.index;
  }
  // Byte accounting is consistent with the wire flag.
  EXPECT_EQ(res.metrics.wire_bytes_total() > 0, c.wire);
}

std::vector<MatrixCase> all_cases() {
  std::vector<MatrixCase> out;
  for (const char* topo :
       {"grid", "geometric", "smallworld", "scalefree", "complete"}) {
    for (const DetectorKind det :
         {DetectorKind::kHierarchical, DetectorKind::kCentralized}) {
      for (const bool wire : {false, true}) {
        out.push_back(MatrixCase{topo, det, wire, false});
      }
    }
    // Failure plans: hierarchical (with repair) and centralized (stalls
    // without repair, but must not crash or corrupt).
    out.push_back(MatrixCase{topo, DetectorKind::kHierarchical, false, true});
    out.push_back(MatrixCase{topo, DetectorKind::kHierarchical, true, true});
    out.push_back(MatrixCase{topo, DetectorKind::kCentralized, false, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, MatrixTest,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
                           std::string name = case_name(param_info.param);
                           for (char& ch : name) {
                             if (ch == '/') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace hpd::runner
