// `prepare`: turn (workload, seed) into the files the ingest process reads.
//
//   stream.evt     the daemon's input: the recorded execution's intervals
//                  in arrival order (EventStreamWriter, as --dump-stream)
//   expected.txt   the offline oracle: replay_centralized's solutions,
//                  member (origin, seq) lists in detection order
//   meta.txt       engine, checkpoint cadence, restart point, sizes
//   ckpt-prep/     gossip-ckpt only: the checkpoint the daemon restarts
//   occ-prefix.csv from, and the occurrence log it had written by then
//
// All randomness comes from --seed; the same seed gives the same files.
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>

#include "ckpt/event_stream.hpp"
#include "daemon.hpp"
#include "detect/offline/replay.hpp"
#include "modes.hpp"
#include "net/spanning_tree.hpp"
#include "net/topology.hpp"
#include "runner/experiment.hpp"
#include "trace/gossip.hpp"
#include "trace/pulse.hpp"

namespace bench {
namespace {

namespace fs = std::filesystem;
using namespace hpd;

struct WorkloadSpec {
  std::string engine;              ///< central | slicing | hier
  std::size_t dary_d = 0;
  std::size_t dary_h = 0;          ///< levels: n = 1 + d + ... + d^(h-1)
  bool pulse = true;
  SeqNum pulse_rounds = 0;
  SimTime gossip_horizon = 0.0;
  std::uint64_t displacement = 0;  ///< max positions a report is delayed
  /// Nonzero: simulate this execution whatever the seed; the seed then
  /// draws only the displacement (the arrival order the daemon sees).
  std::uint64_t execution_seed = 0;
  std::uint64_t ckpt_every = 0;
  bool resume = false;             ///< restart from a mid-stream checkpoint
};

// Workload table. The three pulse-wide workloads share one stream: n = 341
// clocks (dary:4:5), far above VectorClock::kInlineCapacity, one solution
// per 341 intervals. gossip-ckpt is the doom-heavy regime on small inline
// clocks (dary:3:2, n = 4) with a restart, frequent checkpoints and
// non-FIFO report arrival.
WorkloadSpec spec_for(const std::string& name) {
  WorkloadSpec w;
  if (name.rfind("pulse-wide-", 0) == 0) {
    w.engine = name.substr(std::string("pulse-wide-").size());
    if (w.engine != "central" && w.engine != "slicing" && w.engine != "hier") {
      throw std::runtime_error("unknown daemon workload '" + name + "'");
    }
    w.dary_d = 4;
    w.dary_h = 5;
    w.pulse_rounds = 20;
    return w;
  }
  if (name == "gossip-ckpt") {
    w.engine = "slicing";
    w.dary_d = 3;
    w.dary_h = 2;
    w.pulse = false;
    w.gossip_horizon = 80000.0;
    w.displacement = 8;
    // One execution for every seed. A short doom-heavy gossip run has
    // ~70-90 detections whose latency is bimodal (an emit costs ~2 us or
    // ~15 us), and the mix of the two differs enough between executions
    // to swing the p50 by a third from seed to seed.
    w.execution_seed = 1;
    // One interval in 16 pays a checkpoint. The first occurrence row
    // written after a checkpoint costs ~9 us, any other ~2.5 us; at one
    // checkpoint per 96 intervals about half the rows followed one, so
    // the detection-latency p50 fell between the two modes. At 16 nearly
    // every row follows one.
    w.ckpt_every = 16;
    w.resume = true;
    return w;
  }
  throw std::runtime_error("unknown daemon workload '" + name + "'");
}

runner::ExperimentConfig experiment_for(const WorkloadSpec& w,
                                        std::uint64_t seed) {
  runner::ExperimentConfig cfg;
  cfg.tree = net::SpanningTree::balanced_dary(w.dary_d, w.dary_h);
  cfg.topology = net::tree_topology(cfg.tree);
  cfg.seed = w.execution_seed != 0 ? w.execution_seed : seed;
  cfg.record_execution = true;
  cfg.keep_occurrence_records = false;
  cfg.drain = 150.0;
  if (w.pulse) {
    trace::PulseConfig pc;  // hpd_sim --workload pulse:rounds=R defaults
    pc.rounds = w.pulse_rounds;
    pc.period = 60.0;
    pc.participation = 1.0;
    pc.jitter = 1.0;
    pc.start = 5.0;
    cfg.horizon = pc.start + static_cast<SimTime>(pc.rounds) * pc.period +
                  pc.period;
    cfg.behavior_factory = [pc](ProcessId) {
      return std::make_unique<trace::PulseBehavior>(pc);
    };
  } else {
    trace::GossipConfig gc;
    gc.horizon = w.gossip_horizon;
    gc.mean_gap = 3.0;
    gc.p_send = 0.85;
    gc.p_toggle = 0.15;
    gc.max_intervals = 1000000;
    cfg.horizon = gc.horizon + 20.0;
    cfg.behavior_factory = [gc](ProcessId) {
      return std::make_unique<trace::GossipBehavior>(gc);
    };
  }
  return cfg;
}

/// splitmix64: the displacement draw, stable across toolchains.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int run_prepare(const Args& args) {
  const std::string name = args.str("workload");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const std::string dir = args.str("dir");
  const WorkloadSpec w = spec_for(name);
  fs::create_directories(dir);

  const runner::ExperimentResult res = runner::run_experiment(
      experiment_for(w, seed));
  const trace::ExecutionRecord& exec = res.execution;

  // Arrival order: the replays' round-robin schedule, then (non-FIFO
  // channels) every non-sink report delayed by up to `displacement`
  // positions; the sink's own intervals keep their places.
  auto order = detect::offline::arrival_order(exec, std::nullopt);
  if (w.displacement != 0) {
    std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint64_t d =
          order[i].first == 0
              ? 0
              : mix(seed * 1000003ULL + i) % (w.displacement + 1);
      keyed.emplace_back(i + d, i);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::pair<std::size_t, std::size_t>> moved;
    for (const auto& [key, i] : keyed) {
      moved.push_back(order[i]);
    }
    order = std::move(moved);
  }
  std::uint64_t out_of_order = 0;
  {
    std::vector<SeqNum> last(exec.procs.size(), 0);
    ckpt::EventStreamWriter writer(dir + "/stream.evt", exec.procs.size());
    for (const auto& [p, i] : order) {
      const Interval& x = exec.procs[p].intervals[i];
      out_of_order += x.seq < last[p] ? 1 : 0;
      last[p] = std::max(last[p], x.seq);
      writer.append(x);
    }
    writer.finish();
  }

  std::vector<SolutionKey> expected;
  for (const detect::Solution& s : detect::offline::replay_centralized(exec)) {
    expected.push_back(solution_key(s.members));
  }
  write_solutions(dir + "/expected.txt", expected);

  std::map<std::string, std::string> meta;
  meta["workload"] = name;
  meta["seed"] = std::to_string(seed);
  meta["engine"] = w.engine;
  meta["processes"] = std::to_string(exec.procs.size());
  meta["events"] = std::to_string(order.size());
  meta["expected"] = std::to_string(expected.size());
  meta["ckpt_every"] = std::to_string(w.ckpt_every);
  meta["out_of_order"] = std::to_string(out_of_order);
  std::uint64_t resume_at = 0;
  if (w.resume) {
    // The daemon's first life: ingest the first half, checkpoint, stop
    // (hpd_sim --daemon --max-events M leaves exactly this behind).
    PassConfig first;
    first.engine = engine_kind(w.engine);
    first.stream = dir + "/stream.evt";
    first.occ_log = dir + "/occ-prefix.csv";
    first.ckpt_dir = dir + "/ckpt-prep";
    first.max_events = order.size() / 2;
    run_pass(first);
    resume_at = first.max_events;
  }
  meta["resume_at"] = std::to_string(resume_at);
  write_kv(dir + "/meta.txt", meta);
  std::cerr << "prepared " << name << " seed " << seed << ": "
            << order.size() << " events, " << exec.procs.size()
            << " processes, " << expected.size() << " expected solutions, "
            << out_of_order << " reports out of order\n";
  return 0;
}

}  // namespace bench
