#include "rt/live_runner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "ckpt/snapshot.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "proto/messages.hpp"
#include "rt/reactor/reactor_transport.hpp"
#include "runner/process_runtime.hpp"

namespace hpd::rt {

namespace {

/// Planned fault schedule, time-ordered.
struct PlannedEvent {
  SimTime time = 0.0;
  ProcessId node = kNoProcess;
  bool is_crash = false;
};

/// sleep_until(t), waking periodically to honor a stop request. Returns
/// true iff the stop flag cut the wait short.
bool sleep_until_or_stop(const ReactorTransport& net, SimTime t,
                         const std::atomic<bool>* stop) {
  if (stop == nullptr) {
    net.sleep_until(t);
    return false;
  }
  while (!stop->load(std::memory_order_relaxed)) {
    const SimTime now = net.now();
    if (now >= t) {
      return false;
    }
    net.sleep_until(std::min(t, now + 0.5));
  }
  return true;
}

}  // namespace

LiveResult run_live_experiment(const runner::ExperimentConfig& config,
                               const LiveConfig& live,
                               const std::atomic<bool>* stop) {
  const std::size_t n = config.topology.size();
  HPD_REQUIRE(n >= 1, "run_live_experiment: empty system");
  HPD_REQUIRE(config.tree.size() == n, "run_live_experiment: tree size");
  HPD_REQUIRE(config.tree.valid(), "run_live_experiment: invalid tree");
  HPD_REQUIRE(config.tree.respects(config.topology),
              "run_live_experiment: tree edge missing from topology");
  HPD_REQUIRE(config.behavior_factory != nullptr,
              "run_live_experiment: behavior_factory is required");
  HPD_REQUIRE(config.strategy == nullptr,
              "run_live_experiment: schedule strategies only exist in the "
              "simulator");

  // The socket only carries bytes: wire encoding is not optional here.
  runner::ExperimentConfig cfg = config;
  cfg.wire_encoding = true;

  LiveResult out;
  runner::ExperimentResult& result = out.result;

  // Per-node storage, written only by the node's worker; merged after the
  // workers stop.
  std::vector<MetricsRegistry> metrics(n);
  std::vector<std::vector<detect::OccurrenceRecord>> occurrences(n);
  std::vector<std::uint64_t> global_counts(n, 0);
  for (auto& m : metrics) {
    m.resize(n);
    proto::register_message_names(m);
  }

  ReactorTransport net(n, live);
  net.set_link_filter([topo = &cfg.topology](ProcessId a, ProcessId b) {
    return topo->has_edge(a, b);
  });

  // Mirror the simulator's RNG split order (net first, then each process)
  // so a (config, seed) pair shapes the same workload in both worlds.
  Rng master(cfg.seed);
  [[maybe_unused]] Rng net_rng = master.split();

  std::vector<std::unique_ptr<runner::ProcessRuntime>> procs;
  procs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<ProcessId>(i);
    runner::ProcessRuntime::Shared shared;
    shared.config = &cfg;
    shared.net = &net.endpoint(id);
    shared.metrics = &metrics[i];
    shared.occurrences =
        cfg.keep_occurrence_records ? &occurrences[i] : nullptr;
    shared.global_count = &global_counts[i];
    shared.sink = cfg.tree.root();
    procs.push_back(
        std::make_unique<runner::ProcessRuntime>(id, shared, master.split()));
    net.register_node(id, *procs.back(), &metrics[i],
                      [p = procs.back().get()] { p->on_revive(); });
  }

  // ---- Durability: session-epoch continuity (LiveConfig::ckpt_dir) --------
  // Driver-thread-only by design: the reactor workers must never block on
  // checkpoint I/O (hpd_analyze's blocking-reachability check enforces
  // exactly this layering).
  std::unique_ptr<ckpt::CheckpointStore> ckpt_store;
  if (!live.ckpt_dir.empty()) {
    ckpt_store = std::make_unique<ckpt::CheckpointStore>(live.ckpt_dir,
                                                         "live-epochs");
    if (std::optional<ckpt::CheckpointData> data = ckpt_store->load_latest()) {
      if (!data->session.empty()) {
        const ckpt::EpochTable table = ckpt::decode_epochs(data->session);
        for (const auto& [node, epoch] : table.epochs) {
          if (node >= 0 && idx(node) < n) {
            net.adopt_session_epoch(node, epoch);
          }
        }
      }
    }
  }
  auto persist_epochs = [&] {
    if (ckpt_store == nullptr) {
      return;
    }
    ckpt::EpochTable table;
    table.epochs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<ProcessId>(i);
      table.epochs.emplace_back(id, net.session_epoch(id));
    }
    ckpt::CheckpointData data;
    data.session = ckpt::encode_epochs(table);
    ckpt_store->write(std::move(data));
  };

  std::vector<PlannedEvent> plan;
  for (const runner::FailureEvent& f : cfg.failures) {
    HPD_REQUIRE(f.node >= 0 && idx(f.node) < n,
                "run_live_experiment: failure of unknown node");
    plan.push_back({f.time, f.node, true});
  }
  for (const runner::FailureEvent& r : cfg.recoveries) {
    HPD_REQUIRE(r.node >= 0 && idx(r.node) < n,
                "run_live_experiment: recovery of unknown node");
    plan.push_back({r.time, r.node, false});
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const PlannedEvent& a, const PlannedEvent& b) {
                     return a.time < b.time;
                   });

  net.start();
  for (const PlannedEvent& ev : plan) {
    if (sleep_until_or_stop(net, ev.time, stop)) {
      out.interrupted = true;
      break;
    }
    if (ev.is_crash) {
      net.crash(ev.node);
    } else {
      net.revive(ev.node);
      // A revive bumped an epoch: persist the table so a process restart
      // can never resurrect an already-used incarnation.
      persist_epochs();
    }
  }
  if (!out.interrupted &&
      sleep_until_or_stop(net, cfg.horizon, stop)) {
    out.interrupted = true;
  }

  // Close still-open intervals so detectors see the execution's tail — on
  // each node's own thread, as every runtime call must be.
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<ProcessId>(i);
    if (net.alive(id)) {
      net.run_on_node_sync(id, [&rt = *procs[i]] { rt.finalize_app(); });
    }
  }
  // An interrupted run drains relative to the instant it was cut short —
  // a full drain window still flushes every retransmission in flight.
  net.sleep_until(out.interrupted ? net.now() + cfg.drain
                                  : cfg.horizon + cfg.drain);

  // Liveness must be read before stop() (a stopped loop is not "crashed").
  result.final_alive.resize(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    result.final_alive[i] = net.alive(static_cast<ProcessId>(i));
  }
  result.end_time = net.now();
  net.stop();
  // Final flush: every epoch is quiescent once the backend stopped.
  persist_epochs();

  // ---- Collect (all threads joined; every node's state is quiescent) ------
  out.actual_crashes = net.crash_events();
  out.actual_recoveries = net.revive_events();
  out.delivered_messages = net.delivered_messages();
  out.frame_errors = net.frame_errors();
  out.connections_accepted = net.connections_accepted();
  out.transport = net.stats();
  out.chaos_events = net.chaos_events();
  out.reactor = net.reactor_stats();

  result.metrics.resize(n);
  proto::register_message_names(result.metrics);
  result.metrics.transport() = out.transport;
  result.metrics.reactor() = out.reactor;
  if (ckpt_store != nullptr) {
    result.metrics.checkpoint().add(ckpt_store->counters());
  }
  result.sim_events = net.delivered_messages();  // closest live analogue
  result.dropped_messages = net.dropped_messages();
  result.final_parents.resize(n, kNoProcess);
  if (cfg.record_execution) {
    result.execution.procs.resize(n);
  }

  // Per-node extraction is independent — fan it across the pool.
  parallel::ThreadPool pool(std::min<std::size_t>(n, 8));
  parallel::parallel_for(pool, n, [&](std::size_t i) {
    const auto id = static_cast<ProcessId>(i);
    runner::ProcessRuntime& rt = *procs[i];
    NodeMetrics& m = metrics[i].node(id);
    const detect::QueueEngine* engine = nullptr;
    if (rt.hier() != nullptr) {
      engine = &rt.hier()->engine();
    } else if (rt.sink() != nullptr) {
      engine = &rt.sink()->engine();
    }
    if (engine != nullptr) {
      m.vc_comparisons = engine->comparisons();
      m.intervals_enqueued = engine->offered();
      m.intervals_stored_peak = engine->stored_peak();
    }
    result.final_parents[i] = rt.current_parent();
    if (cfg.record_execution) {
      result.execution.procs[i] = rt.core().recorded();
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<ProcessId>(i);
    result.metrics.merge_from(metrics[i]);
    result.global_count += global_counts[i];
    const int level = cfg.tree.level(id);
    runner::LevelStats& ls = result.levels[level];
    ls.nodes += 1;
    ls.solutions += metrics[i].node(id).detections;
    ls.child_intervals += procs[i]->child_intervals_received();
  }

  // One merged stream: stable time sort keeps each detector's (already
  // monotone) subsequence in order, which the stream oracles require.
  for (auto& per_node : occurrences) {
    result.occurrences.insert(result.occurrences.end(),
                              std::make_move_iterator(per_node.begin()),
                              std::make_move_iterator(per_node.end()));
  }
  std::stable_sort(result.occurrences.begin(), result.occurrences.end(),
                   [](const detect::OccurrenceRecord& a,
                      const detect::OccurrenceRecord& b) {
                     return a.time < b.time;
                   });
  return out;
}

}  // namespace hpd::rt
