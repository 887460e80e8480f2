#include "runner/experiment.hpp"

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "proto/messages.hpp"
#include "runner/process_runtime.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace hpd::runner {

std::size_t ExperimentResult::global_occurrences() const {
  return static_cast<std::size_t>(global_count);
}

double ExperimentResult::measured_alpha() const {
  std::uint64_t solutions = 0;
  std::uint64_t child_intervals = 0;
  for (const auto& [level, stats] : levels) {
    if (level >= 2) {  // internal nodes only
      solutions += stats.solutions;
      child_intervals += stats.child_intervals;
    }
  }
  return child_intervals == 0 ? 0.0
                              : static_cast<double>(solutions) /
                                    static_cast<double>(child_intervals);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const std::size_t n = config.topology.size();
  HPD_REQUIRE(n >= 1, "run_experiment: empty system");
  HPD_REQUIRE(config.tree.size() == n, "run_experiment: tree/topology size");
  HPD_REQUIRE(config.tree.valid(), "run_experiment: invalid spanning tree");
  HPD_REQUIRE(config.tree.respects(config.topology),
              "run_experiment: tree edge missing from topology");
  HPD_REQUIRE(config.behavior_factory != nullptr,
              "run_experiment: behavior_factory is required");

  ExperimentResult result;
  result.metrics.resize(n);
  proto::register_message_names(result.metrics);

  Rng master(config.seed);
  Rng net_rng = master.split();
  sim::Scheduler sched;
  sim::Network net(
      n, sched, net_rng, config.delay, result.metrics,
      [topo = &config.topology](ProcessId a, ProcessId b) {
        return topo->has_edge(a, b);
      });
  net.set_strategy(config.strategy);

  ProcessRuntime::Shared shared;
  shared.config = &config;
  shared.net = &net;
  shared.metrics = &result.metrics;
  shared.occurrences =
      config.keep_occurrence_records ? &result.occurrences : nullptr;
  shared.global_count = &result.global_count;
  shared.sink = config.tree.root();

  std::vector<std::unique_ptr<ProcessRuntime>> procs;
  procs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<ProcessRuntime>(
        static_cast<ProcessId>(i), shared, master.split()));
    net.register_node(static_cast<ProcessId>(i), *procs.back());
  }

  for (const FailureEvent& f : config.failures) {
    HPD_REQUIRE(f.node >= 0 && idx(f.node) < n,
                "run_experiment: failure of unknown node");
    sched.schedule_at(f.time, [&net, node = f.node] { net.crash(node); });
  }
  for (const FailureEvent& r : config.recoveries) {
    HPD_REQUIRE(r.node >= 0 && idx(r.node) < n,
                "run_experiment: recovery of unknown node");
    sched.schedule_at(r.time, [&net, &procs, node = r.node] {
      net.revive(node);
      procs[idx(node)]->on_revive();
    });
  }

  net.start();
  sched.run_until(config.horizon);

  // Close still-open intervals so detectors see the tail of the execution,
  // then let the resulting reports settle.
  for (std::size_t i = 0; i < n; ++i) {
    if (net.alive(static_cast<ProcessId>(i))) {
      procs[i]->finalize_app();
    }
  }
  sched.run_until(config.horizon + config.drain);

  // ---- Collect ------------------------------------------------------------
  result.end_time = sched.now();
  result.sim_events = sched.executed();
  result.dropped_messages = net.dropped_messages();
  result.final_parents.resize(n, kNoProcess);
  result.final_alive.resize(n, false);
  if (config.record_execution) {
    result.execution.procs.resize(n);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<ProcessId>(i);
    ProcessRuntime& rt = *procs[i];
    NodeMetrics& m = result.metrics.node(id);
    const detect::QueueEngine* engine = nullptr;
    if (rt.hier() != nullptr) {
      engine = &rt.hier()->engine();
    } else if (rt.sink() != nullptr) {
      engine = &rt.sink()->engine();
    } else if (rt.slicing_sink() != nullptr) {
      engine = &rt.slicing_sink()->engine();
    }
    if (engine != nullptr) {
      m.vc_comparisons = engine->comparisons();
      m.intervals_enqueued = engine->offered();
      m.intervals_stored_peak = engine->stored_peak();
      if (rt.slicing_sink() != nullptr) {
        // The slicer's own search cost rides on the same counter so the
        // comparison against the other engines stays apples-to-apples.
        m.vc_comparisons += rt.slicing_sink()->slicer().slice_comparisons();
      }
    }
    result.final_parents[i] = rt.current_parent();
    result.final_alive[i] = net.alive(id);
    if (config.record_execution) {
      result.execution.procs[i] = rt.core().recorded();
    }

    const int level = config.tree.level(id);
    LevelStats& ls = result.levels[level];
    ls.nodes += 1;
    ls.solutions += m.detections;
    ls.child_intervals += rt.child_intervals_received();
  }
  return result;
}

}  // namespace hpd::runner
