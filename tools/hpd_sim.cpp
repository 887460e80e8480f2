// hpd_sim — command-line experiment driver.
//
// Runs one simulated deployment of the hierarchical (or centralized)
// detector over a chosen topology, workload, and failure plan, and prints
// the detection and cost report. Everything is deterministic given --seed.
//
// Examples:
//   hpd_sim --topology dary:2:5 --workload pulse:rounds=20
//   hpd_sim --topology geometric:60:0.22 --fault-tolerant --fail 500:3
//           --workload pulse:rounds=15,participation=0.9 --occurrences
//   hpd_sim --topology grid:4x4 --detector central --workload gossip:horizon=400
//   hpd_sim --live --topology grid:4x4 --workload pulse:rounds=7,period=30
//           --fail 40:5 --revive 70:5
//   hpd_sim --help
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/execution_stats.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/event_stream.hpp"
#include "ckpt/snapshot.hpp"
#include "common/assert.hpp"
#include "core/hier_engine.hpp"
#include "detect/centralized.hpp"
#include "detect/occurrence_io.hpp"
#include "detect/offline/replay.hpp"
#include "detect/slicing.hpp"
#include "mc/mc_case.hpp"
#include "mc/oracles.hpp"
#include "mc/repro.hpp"
#include "metrics/report.hpp"
#include "net/render.hpp"
#include "net/spanning_tree.hpp"
#include "net/topology.hpp"
#include "parallel/thread_pool.hpp"
#include "proto/messages.hpp"
#include "rt/live_runner.hpp"
#include "runner/experiment.hpp"
#include "trace/gossip.hpp"
#include "trace/pulse.hpp"
#include "trace/trace_io.hpp"

namespace hpd::tools {
namespace {

[[noreturn]] void usage(int code) {
  std::cout << R"(hpd_sim — hierarchical predicate-detection experiment driver

  --topology SPEC     dary:D:H | grid:RxC | ring:N | complete:N | star:N
                      geometric:N:RADIUS | smallworld:N:K:BETA | scalefree:N:M
                      (default dary:2:4; for dary the network is the tree
                       plus 2*H random cross links when --fault-tolerant)
  --detector KIND     hier | central | slicing  (default hier;
                      slicing = computation-slicing sink)
  --engine KIND       alias for --detector (the mc harness's name for it)
  --workload SPEC     pulse:rounds=R,period=P,participation=Q,jitter=J
                      gossip:horizon=T,gap=G,psend=X,ptoggle=Y,maxintervals=K
                      (default pulse:rounds=10)
  --fail T:NODE       crash NODE at time T (repeatable)
  --revive T:NODE     bring NODE back at time T (repeatable)
  --fault-tolerant    enable heartbeats + tree repair (hier only)
  --live              run over real sockets on the epoll reactor
                      (rt::ReactorTransport) instead of the simulator, then
                      check the merged detection stream against the offline
                      oracles; exits 0 iff they hold. Topology must be
                      dary:D:H or grid:RxC, workload pulse or gossip,
                      detector hier.
  --live-transport K  unix | tcp  (default unix; loopback either way)
  --reactor-workers N reactor worker threads (default 0 = auto); the
                      reactor multiplexes all nodes onto this pool, so
                      --live scales to thousands of nodes
  --live-scale S      real seconds per protocol time unit (default 0.01)
  --chaos SPEC        frame-level fault injection on the live transport
                      (requires --live): drop=P,dup=P,corrupt=P,reset=P,
                      delay=P,delaymax=T — probabilities per DATA frame.
                      The reliable session layer masks the faults, so the
                      oracles are still expected to hold; the report gains
                      retransmit / dup-suppression / surfaced-loss counters.
  --json              machine-readable JSON report on stdout
  --seed N            RNG seed (default 1)
  --repeat N          run N seeds (seed .. seed+N-1) in parallel and print
                      aggregate statistics instead of one run's report
  --root N            spanning-tree root / sink (default 0)
  --occurrences       list every detection
  --csv               machine-readable tables
  --dump-execution F  record the execution and write it to file F
                      (replayable with the offline tools; see trace_io.hpp)
  --dump-occurrences F  write the occurrence log as CSV to file F
  --dump-stream F     record the run and write its sink-ingestion schedule
                      as a durable event stream — the --daemon input format
  --stream-shuffle N  seeded random arrival interleave for --dump-stream
                      (default: round-robin by interval index)
  --daemon            long-lived ingestion mode: consume an event stream
                      file, emit detections incrementally, checkpoint, and
                      survive kill -9 via --restore. Requires --stream.
                      Detector hier runs as a star root over the stream's
                      processes; central and slicing run as sinks
  --stream F          daemon input: an event stream file (--dump-stream)
  --follow            daemon: tail the stream for new events instead of
                      treating EOF as truncation; ends on the stream's END
                      marker or SIGTERM/SIGINT
  --occ-log F         daemon: append every detection to this CSV log
                      (truncated back to the checkpoint's occurrence count
                      on --restore, so kill -9 never duplicates a line)
  --ckpt-dir D        checkpoint directory. Daemon: full detector state.
                      Live: per-node session-epoch table, adopted before
                      start — epoch continuity across process restarts
  --ckpt-every N      daemon: checkpoint every N ingested events
                      (default 0 = only at shutdown)
  --restore           daemon: resume from the newest complete checkpoint
                      in --ckpt-dir (torn/corrupt generations are skipped,
                      never silently loaded)
  --throttle-us N     daemon: pace ingestion at N microseconds per event
  --max-events N      daemon: stop cleanly (final checkpoint) after
                      ingesting N events this run
  --crash-after N     daemon: simulate kill -9 after N events this run:
                      _exit(137), no final checkpoint (crash testing)
  --repro F           replay a model-checker repro file (mc/repro.hpp):
                      re-run the exact case and re-check its oracles;
                      exit 0 iff they all hold (ignores other flags)
  --stats             record the execution and print its profile
  --tree              render the initial spanning tree (and the final
                      forest when there were failures)
  --help
)";
  std::exit(code);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    out.push_back(item);
  }
  return out;
}

double num_arg(const std::string& s, const char* what) {
  try {
    return std::stod(s);
  } catch (...) {
    std::cerr << "bad number '" << s << "' in " << what << "\n";
    std::exit(2);
  }
}

std::map<std::string, double> kv_args(const std::string& s) {
  std::map<std::string, double> out;
  if (s.empty()) {
    return out;
  }
  for (const std::string& part : split(s, ',')) {
    const auto eq = part.find('=');
    if (eq == std::string::npos) {
      std::cerr << "expected key=value, got '" << part << "'\n";
      std::exit(2);
    }
    out[part.substr(0, eq)] = num_arg(part.substr(eq + 1), part.c_str());
  }
  return out;
}

struct Options {
  std::string topology = "dary:2:4";
  std::string workload = "pulse:rounds=10";
  runner::DetectorKind detector = runner::DetectorKind::kHierarchical;
  bool fault_tolerant = false;
  bool list_occurrences = false;
  bool csv = false;
  bool json = false;
  bool live = false;
  bool live_tcp = false;
  int reactor_workers = 0;
  double live_scale = 0.01;
  std::string chaos;
  std::uint64_t seed = 1;
  std::size_t repeat = 1;
  ProcessId root = 0;
  std::vector<runner::FailureEvent> failures;
  std::vector<runner::FailureEvent> recoveries;
  std::string dump_execution;
  std::string dump_occurrences;
  std::string dump_stream;
  std::optional<std::uint64_t> stream_shuffle;
  std::string repro;
  bool stats = false;
  bool show_tree = false;

  // ---- Daemon / durability -------------------------------------------------
  bool daemon = false;
  std::string stream;
  bool follow = false;
  std::string occ_log;
  std::string ckpt_dir;
  std::uint64_t ckpt_every = 0;
  bool restore = false;
  std::uint64_t throttle_us = 0;
  std::uint64_t max_events = 0;
  std::uint64_t crash_after = 0;
};

net::Topology build_topology(const Options& opt, Rng& rng,
                             std::optional<net::SpanningTree>& tree_out) {
  const auto parts = split(opt.topology, ':');
  const std::string& kind = parts[0];
  auto want = [&](std::size_t k) {
    if (parts.size() != k + 1) {
      std::cerr << "topology '" << kind << "' expects " << k << " params\n";
      std::exit(2);
    }
  };
  if (kind == "dary") {
    want(2);
    const auto d = static_cast<std::size_t>(num_arg(parts[1], "dary d"));
    const auto h = static_cast<std::size_t>(num_arg(parts[2], "dary h"));
    auto tree = net::SpanningTree::balanced_dary(d, h);
    net::Topology topo = net::tree_topology(tree);
    if (opt.fault_tolerant) {
      topo = net::Topology::tree_plus_crosslinks(topo, 2 * h, rng);
    }
    tree_out = std::move(tree);
    return topo;
  }
  if (kind == "grid") {
    want(1);
    const auto rc = split(parts[1], 'x');
    if (rc.size() != 2) {
      std::cerr << "grid expects RxC\n";
      std::exit(2);
    }
    return net::Topology::grid(
        static_cast<std::size_t>(num_arg(rc[0], "rows")),
        static_cast<std::size_t>(num_arg(rc[1], "cols")));
  }
  if (kind == "ring") {
    want(1);
    return net::Topology::ring(
        static_cast<std::size_t>(num_arg(parts[1], "ring n")));
  }
  if (kind == "complete") {
    want(1);
    return net::Topology::complete(
        static_cast<std::size_t>(num_arg(parts[1], "complete n")));
  }
  if (kind == "star") {
    want(1);
    return net::Topology::star(
        static_cast<std::size_t>(num_arg(parts[1], "star n")));
  }
  if (kind == "geometric") {
    want(2);
    return net::Topology::random_geometric(
        static_cast<std::size_t>(num_arg(parts[1], "geometric n")),
        num_arg(parts[2], "geometric radius"), rng);
  }
  if (kind == "smallworld") {
    want(3);
    return net::Topology::small_world(
        static_cast<std::size_t>(num_arg(parts[1], "smallworld n")),
        static_cast<std::size_t>(num_arg(parts[2], "smallworld k")),
        num_arg(parts[3], "smallworld beta"), rng);
  }
  if (kind == "scalefree") {
    want(2);
    return net::Topology::scale_free(
        static_cast<std::size_t>(num_arg(parts[1], "scalefree n")),
        static_cast<std::size_t>(num_arg(parts[2], "scalefree m")), rng);
  }
  std::cerr << "unknown topology kind '" << kind << "'\n";
  std::exit(2);
}

std::function<std::unique_ptr<trace::AppBehavior>(ProcessId)> build_workload(
    const Options& opt, SimTime& horizon_out) {
  const auto colon = opt.workload.find(':');
  const std::string kind = opt.workload.substr(0, colon);
  const auto kv = kv_args(
      colon == std::string::npos ? "" : opt.workload.substr(colon + 1));
  auto get = [&](const char* key, double dflt) {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  };
  if (kind == "pulse") {
    trace::PulseConfig pc;
    pc.rounds = static_cast<SeqNum>(get("rounds", 10));
    pc.period = get("period", 60.0);
    pc.participation = get("participation", 1.0);
    pc.jitter = get("jitter", 1.0);
    pc.start = 5.0;
    horizon_out = pc.start + static_cast<SimTime>(pc.rounds) * pc.period +
                  pc.period;
    return [pc](ProcessId) {
      return std::make_unique<trace::PulseBehavior>(pc);
    };
  }
  if (kind == "gossip") {
    trace::GossipConfig gc;
    gc.horizon = get("horizon", 500.0);
    gc.mean_gap = get("gap", 4.0);
    gc.p_send = get("psend", 0.4);
    gc.p_toggle = get("ptoggle", 0.3);
    gc.max_intervals = static_cast<std::size_t>(get("maxintervals", 20));
    horizon_out = gc.horizon + 20.0;
    return [gc](ProcessId) {
      return std::make_unique<trace::GossipBehavior>(gc);
    };
  }
  std::cerr << "unknown workload kind '" << kind << "'\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--topology") {
      opt.topology = value();
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--detector" || arg == "--engine") {
      const std::string v = value();
      if (v == "hier") {
        opt.detector = runner::DetectorKind::kHierarchical;
      } else if (v == "central") {
        opt.detector = runner::DetectorKind::kCentralized;
      } else if (v == "slicing") {
        opt.detector = runner::DetectorKind::kSlicing;
      } else {
        std::cerr << "detector must be hier|central|slicing\n";
        std::exit(2);
      }
    } else if (arg == "--fail") {
      const auto parts = split(value(), ':');
      if (parts.size() != 2) {
        std::cerr << "--fail expects T:NODE\n";
        std::exit(2);
      }
      opt.failures.push_back(runner::FailureEvent{
          num_arg(parts[0], "fail time"),
          static_cast<ProcessId>(num_arg(parts[1], "fail node"))});
    } else if (arg == "--revive") {
      const auto parts = split(value(), ':');
      if (parts.size() != 2) {
        std::cerr << "--revive expects T:NODE\n";
        std::exit(2);
      }
      opt.recoveries.push_back(runner::FailureEvent{
          num_arg(parts[0], "revive time"),
          static_cast<ProcessId>(num_arg(parts[1], "revive node"))});
    } else if (arg == "--live") {
      opt.live = true;
    } else if (arg == "--live-transport") {
      const std::string v = value();
      if (v == "unix") {
        opt.live_tcp = false;
      } else if (v == "tcp") {
        opt.live_tcp = true;
      } else {
        std::cerr << "--live-transport must be unix|tcp\n";
        std::exit(2);
      }
    } else if (arg == "--reactor-workers") {
      opt.reactor_workers =
          static_cast<int>(num_arg(value(), "reactor-workers"));
      if (opt.reactor_workers < 0) {
        std::cerr << "--reactor-workers needs a value >= 0\n";
        std::exit(2);
      }
    } else if (arg == "--live-scale") {
      opt.live_scale = num_arg(value(), "live-scale");
      if (opt.live_scale <= 0.0) {
        std::cerr << "--live-scale needs a positive value\n";
        std::exit(2);
      }
    } else if (arg == "--chaos") {
      opt.chaos = value();
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--fault-tolerant") {
      opt.fault_tolerant = true;
    } else if (arg == "--occurrences") {
      opt.list_occurrences = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg == "--tree") {
      opt.show_tree = true;
    } else if (arg == "--dump-execution") {
      opt.dump_execution = value();
    } else if (arg == "--dump-occurrences") {
      opt.dump_occurrences = value();
    } else if (arg == "--dump-stream") {
      opt.dump_stream = value();
    } else if (arg == "--stream-shuffle") {
      opt.stream_shuffle =
          static_cast<std::uint64_t>(num_arg(value(), "stream-shuffle"));
    } else if (arg == "--daemon") {
      opt.daemon = true;
    } else if (arg == "--stream") {
      opt.stream = value();
    } else if (arg == "--follow") {
      opt.follow = true;
    } else if (arg == "--occ-log") {
      opt.occ_log = value();
    } else if (arg == "--ckpt-dir") {
      opt.ckpt_dir = value();
    } else if (arg == "--ckpt-every") {
      opt.ckpt_every =
          static_cast<std::uint64_t>(num_arg(value(), "ckpt-every"));
    } else if (arg == "--restore") {
      opt.restore = true;
    } else if (arg == "--throttle-us") {
      opt.throttle_us =
          static_cast<std::uint64_t>(num_arg(value(), "throttle-us"));
    } else if (arg == "--max-events") {
      opt.max_events =
          static_cast<std::uint64_t>(num_arg(value(), "max-events"));
    } else if (arg == "--crash-after") {
      opt.crash_after =
          static_cast<std::uint64_t>(num_arg(value(), "crash-after"));
    } else if (arg == "--repro") {
      opt.repro = value();
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(num_arg(value(), "seed"));
    } else if (arg == "--repeat") {
      opt.repeat = static_cast<std::size_t>(num_arg(value(), "repeat"));
      if (opt.repeat == 0) {
        std::cerr << "--repeat needs a positive count\n";
        std::exit(2);
      }
    } else if (arg == "--root") {
      opt.root = static_cast<ProcessId>(num_arg(value(), "root"));
    } else {
      std::cerr << "unknown argument '" << arg << "' (try --help)\n";
      std::exit(2);
    }
  }
  return opt;
}

const char* detector_name(runner::DetectorKind k) {
  switch (k) {
    case runner::DetectorKind::kHierarchical:
      return "hier";
    case runner::DetectorKind::kCentralized:
      return "central";
    case runner::DetectorKind::kSlicing:
      return "slicing";
  }
  return "?";
}

// ---- Signal handling (self-pipe) -------------------------------------------
//
// The long-lived modes (--daemon, --live) must shut down gracefully on
// SIGTERM/SIGINT: drain what is in flight and flush a final checkpoint.
// The handler does the only two async-signal-safe things possible — set a
// flag and write one byte to a pipe — and the main loops either poll the
// flag (live, between sleeps) or block on the pipe end (daemon, while
// waiting for stream data), so a signal wakes them immediately.

int g_signal_pipe[2] = {-1, -1};
std::atomic<bool> g_stop_requested{false};

extern "C" void stop_signal_handler(int /*signo*/) {
  g_stop_requested.store(true, std::memory_order_relaxed);
  if (g_signal_pipe[1] >= 0) {
    const unsigned char byte = 1;
    [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], &byte, 1);
  }
}

void install_stop_signals() {
  if (g_signal_pipe[0] >= 0) {
    return;  // already installed
  }
  if (::pipe(g_signal_pipe) == 0) {
    for (const int fd : g_signal_pipe) {
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
  } else {
    g_signal_pipe[0] = g_signal_pipe[1] = -1;  // flag-only fallback
  }
  struct sigaction sa = {};
  sa.sa_handler = stop_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

bool stop_requested() {
  return g_stop_requested.load(std::memory_order_relaxed);
}

/// Sleep up to `ms` milliseconds; a stop signal's self-pipe byte ends the
/// wait immediately.
void sleep_or_signal(int ms) {
  if (stop_requested()) {
    return;
  }
  if (g_signal_pipe[0] < 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return;
  }
  struct pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
  ::poll(&pfd, 1, ms);
}

// ---- JSON report ------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

/// Live-run context threaded into the shared report: transport diagnostics
/// plus the offline-oracle verdict on the merged detection stream.
struct LiveInfo {
  const char* transport = "unix";
  double scale = 0.0;
  const rt::LiveResult* res = nullptr;
  const std::vector<std::string>* violations = nullptr;
  /// A signal cut the run short: the oracles were not evaluated (the
  /// truncated workload cannot satisfy them) and the exit code stays 0.
  bool interrupted = false;
};

/// {"writes": .., ...} — shared between the live report and the daemon's
/// own JSON document.
void checkpoint_json(std::ostream& os, const CheckpointCounters& ck) {
  os << "{\"writes\": " << ck.writes << ", \"bytes_written\": "
     << ck.bytes_written << ", \"restores\": " << ck.restores
     << ", \"restore_generation\": " << ck.restore_generation
     << ", \"torn_writes_skipped\": " << ck.torn_writes_skipped << "}";
}

void report_json(std::ostream& os, const Options& opt,
                 const runner::ExperimentConfig& cfg,
                 const runner::ExperimentResult& result,
                 const LiveInfo* live) {
  os << "{\n";
  os << "  \"mode\": \"" << (live != nullptr ? "live" : "sim") << "\",\n";
  os << "  \"network\": {\"n\": " << cfg.topology.size()
     << ", \"edges\": " << cfg.topology.num_edges()
     << ", \"tree_height\": " << cfg.tree.height()
     << ", \"max_degree\": " << cfg.tree.max_degree() << ", \"detector\": \""
     << detector_name(cfg.detector) << "\", \"seed\": " << cfg.seed << "},\n";
  os << "  \"summary\": {\"global_detections\": " << result.global_count
     << ", \"all_detections\": " << result.metrics.total_detections()
     << ", \"measured_alpha\": " << json_num(result.measured_alpha())
     << ", \"vc_comparisons\": " << result.metrics.total_vc_comparisons()
     << ", \"storage_peak_max\": " << result.metrics.max_node_storage_peak()
     << ", \"storage_peak_sum\": " << result.metrics.sum_node_storage_peak()
     << ", \"dropped_messages\": " << result.dropped_messages
     << ", \"sim_events\": " << result.sim_events << "},\n";
  os << "  \"messages\": {";
  for (const auto& [type, count] : result.metrics.msgs_by_type()) {
    os << "\"" << json_escape(result.metrics.message_type_name(type))
       << "\": " << count << ", ";
  }
  os << "\"total\": " << result.metrics.msgs_total() << "}";
  if (opt.list_occurrences) {
    os << ",\n  \"occurrences\": [";
    bool first = true;
    for (const auto& rec : result.occurrences) {
      os << (first ? "" : ", ") << "{\"t\": " << json_num(rec.time)
         << ", \"node\": " << rec.detector << ", \"index\": " << rec.index
         << ", \"global\": " << (rec.global ? "true" : "false") << "}";
      first = false;
    }
    os << "]";
  }
  if (live != nullptr) {
    const TransportCounters& tc = live->res->transport;
    os << ",\n  \"live\": {\"transport\": \"" << live->transport
       << "\", \"scale\": " << json_num(live->scale)
       << ", \"delivered_messages\": " << live->res->delivered_messages
       << ", \"frame_errors\": " << live->res->frame_errors
       << ", \"connections_accepted\": " << live->res->connections_accepted;
    os << ", \"reliability\": {\"sent\": " << tc.reliable_sent
       << ", \"delivered\": " << tc.msgs_delivered
       << ", \"retransmits\": " << tc.retransmits
       << ", \"dups_suppressed\": " << tc.dups_suppressed
       << ", \"surfaced_losses\": " << tc.surfaced_losses
       << ", \"stale_rejected\": " << tc.stale_rejected
       << ", \"conn_resets\": " << tc.conn_resets
       << ", \"acks_sent\": " << tc.acks_sent
       << ", \"chaos_events\": " << tc.chaos_events << "}";
    const ReactorCounters& rc = live->res->reactor;
    os << ", \"reactor\": {\"workers\": " << rc.workers
       << ", \"wakeups\": " << rc.wakeups
       << ", \"ready_events\": " << rc.ready_events
       << ", \"timer_fires\": " << rc.timer_fires
       << ", \"timers_scheduled\": " << rc.timers_scheduled
       << ", \"max_outbound_backlog\": " << rc.max_outbound_backlog
       << ", \"max_loop_micros\": " << rc.max_loop_micros << "}";
    auto put_events = [&](const char* key,
                          const std::vector<rt::LifeEvent>& evs) {
      os << ", \"" << key << "\": [";
      bool first = true;
      for (const rt::LifeEvent& ev : evs) {
        os << (first ? "" : ", ") << "{\"t\": " << json_num(ev.time)
           << ", \"node\": " << ev.node << "}";
        first = false;
      }
      os << "]";
    };
    put_events("crashes", live->res->actual_crashes);
    put_events("recoveries", live->res->actual_recoveries);
    const CheckpointCounters& ck = result.metrics.checkpoint();
    if (ck.writes != 0 || ck.restores != 0 || ck.torn_writes_skipped != 0) {
      os << ", \"checkpoint\": ";
      checkpoint_json(os, ck);
    }
    os << ", \"interrupted\": " << (live->interrupted ? "true" : "false");
    os << ", \"oracle\": \""
       << (live->interrupted        ? "INTERRUPTED"
           : live->violations->empty() ? "PASS"
                                       : "FAIL")
       << "\"";
    os << ", \"violations\": [";
    bool first = true;
    for (const std::string& v : *live->violations) {
      os << (first ? "" : ", ") << "\"" << json_escape(v) << "\"";
      first = false;
    }
    os << "]}";
  }
  os << "\n}\n";
}

// ---- Text report ------------------------------------------------------------

void report_text(std::ostream& os, const Options& opt,
                 const runner::ExperimentConfig& cfg,
                 const runner::ExperimentResult& result,
                 const LiveInfo* live) {
  os << "network: n=" << cfg.topology.size()
     << " edges=" << cfg.topology.num_edges()
     << " tree-height=" << cfg.tree.height()
     << " max-degree=" << cfg.tree.max_degree()
     << " detector=" << detector_name(cfg.detector) << " seed=" << cfg.seed
     << "\n\n";

  if (opt.list_occurrences) {
    TextTable t({"t", "node", "#", "scope"});
    for (const auto& rec : result.occurrences) {
      t.add_row({TextTable::num(rec.time, 1), std::to_string(rec.detector),
                 std::to_string(rec.index),
                 rec.global ? "GLOBAL" : "subtree"});
    }
    opt.csv ? t.print_csv(os) : t.print(os);
    os << '\n';
  }

  TextTable summary({"metric", "value"});
  summary.add_row({"global detections", std::to_string(result.global_count)});
  summary.add_row(
      {"all detections", std::to_string(result.metrics.total_detections())});
  summary.add_row({"measured alpha",
                   TextTable::num(result.measured_alpha(), 3)});
  summary.add_row({"vc comparisons",
                   std::to_string(result.metrics.total_vc_comparisons())});
  summary.add_row({"storage peak (worst node)",
                   std::to_string(result.metrics.max_node_storage_peak())});
  summary.add_row({"storage peak (sum)",
                   std::to_string(result.metrics.sum_node_storage_peak())});
  summary.add_row(
      {"dropped messages", std::to_string(result.dropped_messages)});
  summary.add_row({"sim events", std::to_string(result.sim_events)});
  opt.csv ? summary.print_csv(os) : summary.print(os);
  os << '\n';

  TextTable msgs({"message type", "count"});
  for (const auto& [type, count] : result.metrics.msgs_by_type()) {
    msgs.add_row({result.metrics.message_type_name(type),
                  std::to_string(count)});
  }
  msgs.add_row({"total", std::to_string(result.metrics.msgs_total())});
  opt.csv ? msgs.print_csv(os) : msgs.print(os);

  if (!opt.failures.empty()) {
    os << "\nfinal control tree (survivors):\n";
    for (std::size_t i = 0; i < result.final_alive.size(); ++i) {
      if (!result.final_alive[i]) {
        os << "  " << i << ": crashed\n";
      } else if (result.final_parents[i] == kNoProcess) {
        os << "  " << i << ": root\n";
      }
    }
  }

  if (live != nullptr) {
    const TransportCounters& tc = live->res->transport;
    os << "\nlive transport: " << live->transport
       << " scale=" << live->scale
       << " delivered=" << live->res->delivered_messages
       << " frame-errors=" << live->res->frame_errors
       << " connections=" << live->res->connections_accepted << "\n";
    const ReactorCounters& rc = live->res->reactor;
    os << "reactor: workers=" << rc.workers << " wakeups=" << rc.wakeups
       << " ready-events=" << rc.ready_events
       << " timer-fires=" << rc.timer_fires
       << " timers-scheduled=" << rc.timers_scheduled
       << " max-backlog=" << rc.max_outbound_backlog
       << " max-loop-us=" << rc.max_loop_micros << "\n";
    os << "reliability: sent=" << tc.reliable_sent
       << " delivered=" << tc.msgs_delivered
       << " retransmits=" << tc.retransmits
       << " dups-suppressed=" << tc.dups_suppressed
       << " surfaced-losses=" << tc.surfaced_losses << "\n"
       << "             stale-rejected=" << tc.stale_rejected
       << " conn-resets=" << tc.conn_resets
       << " acks=" << tc.acks_sent
       << " chaos-events=" << tc.chaos_events << "\n";
    for (const rt::LifeEvent& ev : live->res->actual_crashes) {
      os << "measured crash: node " << ev.node
         << " at t=" << TextTable::num(ev.time, 1) << "\n";
    }
    for (const rt::LifeEvent& ev : live->res->actual_recoveries) {
      os << "measured revive: node " << ev.node
         << " at t=" << TextTable::num(ev.time, 1) << "\n";
    }
    const CheckpointCounters& ck = result.metrics.checkpoint();
    if (ck.writes != 0 || ck.restores != 0 || ck.torn_writes_skipped != 0) {
      os << "checkpoint: writes=" << ck.writes
         << " bytes=" << ck.bytes_written << " restores=" << ck.restores
         << " restore-generation=" << ck.restore_generation
         << " torn-skipped=" << ck.torn_writes_skipped << "\n";
    }
    for (const std::string& v : *live->violations) {
      os << "  violation: " << v << "\n";
    }
    os << "live oracle: "
       << (live->interrupted        ? "INTERRUPTED"
           : live->violations->empty() ? "PASS"
                                       : "FAIL")
       << "\n";
  }
}

/// Post-run reporting shared by the simulated and live paths: tree render,
/// file dumps, profile, then the JSON or text report. Returns the process
/// exit code (nonzero iff a live run failed its oracles).
int report(const Options& opt, const runner::ExperimentConfig& cfg,
           const runner::ExperimentResult& result, const LiveInfo* live) {
  // In --json mode stdout carries exactly one JSON document; route the
  // human-oriented side outputs to stderr instead of suppressing them.
  std::ostream& side = opt.json ? std::cerr : std::cout;

  if (opt.show_tree && !opt.json) {
    side << "initial spanning tree:\n";
    net::render_tree(side, cfg.tree);
    if (!opt.failures.empty()) {
      side << "final forest (survivors):\n";
      net::render_forest(side, result.final_parents, &result.final_alive);
    }
    side << '\n';
  }

  if (!opt.dump_execution.empty()) {
    std::ofstream f(opt.dump_execution);
    if (!f) {
      std::cerr << "cannot open " << opt.dump_execution << "\n";
      return 1;
    }
    trace::write_execution(f, result.execution);
    side << "execution written to " << opt.dump_execution << "\n";
  }
  if (!opt.dump_occurrences.empty()) {
    std::ofstream f(opt.dump_occurrences);
    if (!f) {
      std::cerr << "cannot open " << opt.dump_occurrences << "\n";
      return 1;
    }
    detect::write_occurrences_csv(f, result.occurrences);
    side << "occurrences written to " << opt.dump_occurrences << "\n";
  }
  if (!opt.dump_stream.empty()) {
    // Serialize the recorded execution as a daemon-ingestible event stream,
    // in the same arrival order the offline replays use.
    try {
      ckpt::EventStreamWriter w(opt.dump_stream,
                                result.execution.procs.size());
      for (const auto& [p, i] :
           detect::offline::arrival_order(result.execution,
                                          opt.stream_shuffle)) {
        w.append(result.execution.procs[p].intervals[i]);
      }
      w.finish();
      side << "event stream (" << w.events_written() << " events) written to "
           << opt.dump_stream << "\n";
    } catch (const ckpt::CkptError& e) {
      std::cerr << "cannot write " << opt.dump_stream << ": " << e.what()
                << "\n";
      return 1;
    }
  }

  if (opt.stats && !opt.json) {
    analysis::print_stats(side, analysis::compute_stats(result.execution));
    side << '\n';
  }

  if (opt.json) {
    report_json(std::cout, opt, cfg, result, live);
  } else {
    report_text(std::cout, opt, cfg, result, live);
  }
  return (live != nullptr && !live->violations->empty()) ? 1 : 0;
}

// ---- Daemon mode -------------------------------------------------------------
//
// The long-lived ingestion loop: read an event stream (possibly tailing a
// growing file), feed each interval to one detector engine, append every
// detection to the occurrence log, and checkpoint the full detector state
// so a kill -9 plus --restore continues the occurrence stream byte-for-byte
// where an uninterrupted run would have been.
//
// Determinism is the core invariant. The occurrence timestamp source is the
// logical stream position (events consumed so far), not the wall clock, so
// a restored run re-emits exactly the records an uninterrupted run emits.

ckpt::EngineKind daemon_engine_kind(runner::DetectorKind k) {
  switch (k) {
    case runner::DetectorKind::kHierarchical:
      return ckpt::EngineKind::kHier;
    case runner::DetectorKind::kCentralized:
      return ckpt::EngineKind::kCentral;
    case runner::DetectorKind::kSlicing:
      return ckpt::EngineKind::kSlicing;
  }
  return ckpt::EngineKind::kHier;  // unreachable: the switch is exhaustive
}

/// One detector engine behind a uniform ingest/snapshot surface. The
/// stream's process 0 plays the sink/root role: its intervals are local,
/// everyone else's arrive as reports (hier: as child reports of a star
/// root, so all three engines see the identical arrival sequence).
class DaemonDetector {
 public:
  DaemonDetector(ckpt::EngineKind kind, std::size_t processes,
                 detect::OccurrenceCallback on_occurrence,
                 std::function<SimTime()> now)
      : kind_(kind) {
    std::vector<ProcessId> procs;
    procs.reserve(processes);
    for (std::size_t i = 0; i < processes; ++i) {
      procs.push_back(static_cast<ProcessId>(i));
    }
    switch (kind_) {
      case ckpt::EngineKind::kCentral:
        central_ = std::make_unique<detect::CentralSink>(
            0, procs,
            detect::CentralSink::Hooks{std::move(on_occurrence),
                                       std::move(now)});
        break;
      case ckpt::EngineKind::kSlicing:
        slicing_ = std::make_unique<detect::SlicingDetector>(
            0, procs,
            detect::SlicingDetector::Hooks{std::move(on_occurrence),
                                           std::move(now)});
        break;
      case ckpt::EngineKind::kHier: {
        core::HierNodeEngine::Config c;
        c.self = 0;
        c.has_parent = false;  // root: every detection is global
        core::HierNodeEngine::Hooks h;
        h.on_occurrence = std::move(on_occurrence);
        h.now = std::move(now);
        hier_ = std::make_unique<core::HierNodeEngine>(c, std::move(h));
        for (std::size_t j = 1; j < processes; ++j) {
          hier_->add_child(static_cast<ProcessId>(j), 1);
        }
        break;
      }
    }
  }

  void feed(const Interval& x) {
    switch (kind_) {
      case ckpt::EngineKind::kCentral:
        x.origin == central_->self() ? central_->local_interval(x)
                                     : central_->report(x);
        break;
      case ckpt::EngineKind::kSlicing:
        x.origin == slicing_->self() ? slicing_->local_interval(x)
                                     : slicing_->report(x);
        break;
      case ckpt::EngineKind::kHier:
        x.origin == hier_->self() ? hier_->local_interval(x)
                                  : hier_->child_report(x.origin, x);
        break;
    }
  }

  ckpt::DetectorImage image(std::uint64_t consumed) const {
    ckpt::DetectorImage img;
    img.kind = kind_;
    img.consumed_events = consumed;
    switch (kind_) {
      case ckpt::EngineKind::kCentral:
        img.central = central_->snapshot();
        break;
      case ckpt::EngineKind::kSlicing:
        img.slicing = slicing_->snapshot();
        break;
      case ckpt::EngineKind::kHier:
        img.hier = hier_->snapshot();
        break;
    }
    return img;
  }

  /// The queue engine doing the detection work.
  const detect::QueueEngine& engine() const {
    if (central_ != nullptr) {
      return central_->engine();
    }
    return slicing_ != nullptr ? slicing_->engine() : hier_->engine();
  }

  void restore(const ckpt::DetectorImage& img) {
    HPD_REQUIRE(img.kind == kind_, "DaemonDetector: engine kind mismatch");
    switch (kind_) {
      case ckpt::EngineKind::kCentral:
        central_->restore(img.central);
        break;
      case ckpt::EngineKind::kSlicing:
        slicing_->restore(img.slicing);
        break;
      case ckpt::EngineKind::kHier:
        hier_->restore(img.hier);
        break;
    }
  }

 private:
  ckpt::EngineKind kind_;
  std::unique_ptr<detect::CentralSink> central_;
  std::unique_ptr<detect::SlicingDetector> slicing_;
  std::unique_ptr<core::HierNodeEngine> hier_;
};

/// Rewind the occurrence log to the checkpoint's view: header plus `keep`
/// rows, published atomically (tmp + rename) so a crash mid-truncation
/// leaves either the old or the new log, never a torn one. Rows the
/// checkpoint counted but the log lacks are reported (the stream will
/// re-emit them, so this is a warning, not corruption).
void truncate_occ_log(const std::string& path, std::uint64_t keep) {
  static constexpr const char* kHeader = "time,node,index,global,weight";
  std::vector<std::string> lines;
  std::uint64_t rows = 0;
  {
    std::ifstream in(path);
    std::string line;
    bool have_header = false;
    while ((rows < keep || !have_header) && std::getline(in, line)) {
      if (!have_header) {
        have_header = true;
        lines.push_back(line);
        continue;
      }
      lines.push_back(line);
      ++rows;
    }
  }
  if (lines.empty()) {
    lines.emplace_back(kHeader);
  }
  if (rows < keep) {
    std::cerr << "note: occurrence log " << path << " has " << rows
              << " rows, checkpoint expected " << keep
              << " — restore will re-emit the difference\n";
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const std::string& l : lines) {
      out << l << '\n';
    }
    out.flush();
    if (!out) {
      std::cerr << "cannot rewrite " << path << "\n";
      std::exit(1);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::cerr << "cannot publish truncated " << path << "\n";
    std::exit(1);
  }
}

int run_daemon(const Options& opt) {
  if (opt.stream.empty()) {
    std::cerr << "--daemon requires --stream FILE (see --dump-stream)\n";
    return 2;
  }
  if (opt.live || opt.repeat > 1) {
    std::cerr << "--daemon conflicts with --live and --repeat\n";
    return 2;
  }
  const ckpt::EngineKind kind = daemon_engine_kind(opt.detector);
  if ((opt.restore || opt.ckpt_every != 0) && opt.ckpt_dir.empty()) {
    std::cerr << "--restore / --ckpt-every require --ckpt-dir\n";
    return 2;
  }

  install_stop_signals();

  std::unique_ptr<ckpt::CheckpointStore> store;
  if (!opt.ckpt_dir.empty()) {
    store = std::make_unique<ckpt::CheckpointStore>(opt.ckpt_dir, "daemon");
  }

  std::unique_ptr<ckpt::EventStreamReader> reader;
  try {
    reader = std::make_unique<ckpt::EventStreamReader>(opt.stream);
  } catch (const ckpt::CkptError& e) {
    std::cerr << "cannot open stream: " << e.what() << "\n";
    return 1;
  }

  // Wait for the stream header (race-free under --follow: the producer may
  // not have written its first bytes yet).
  std::optional<Interval> pending;
  while (!reader->have_header()) {
    Interval ev;
    ckpt::EventStreamReader::Status st;
    try {
      st = reader->next(ev);
    } catch (const ckpt::CkptError& e) {
      std::cerr << "bad stream: " << e.what() << "\n";
      return 1;
    }
    if (st == ckpt::EventStreamReader::Status::kEvent) {
      pending = ev;
      break;
    }
    if (st == ckpt::EventStreamReader::Status::kEnd) {
      break;
    }
    if (stop_requested()) {
      std::cerr << "interrupted before the stream header arrived\n";
      return 0;
    }
    if (!opt.follow) {
      std::cerr << "stream has no header (truncated? use --follow to "
                   "tail a growing file)\n";
      return 1;
    }
    sleep_or_signal(10);
  }
  if (!reader->have_header()) {
    std::cerr << "stream ended before its header\n";
    return 1;
  }
  const std::size_t processes = reader->num_processes();

  // Logical stream position and output count — monotone across restarts:
  // a restore seeds them from the checkpoint and skips the consumed prefix.
  std::uint64_t consumed = 0;
  std::uint64_t emitted = 0;

  ckpt::DetectorImage restored_image;
  bool have_restore = false;
  if (opt.restore) {
    if (std::optional<ckpt::CheckpointData> data = store->load_latest()) {
      if (data->meta.engine_kind != static_cast<std::uint8_t>(kind)) {
        std::cerr << "checkpoint was written by a different engine ("
                  << static_cast<int>(data->meta.engine_kind)
                  << "); refusing to restore into --detector "
                  << detector_name(opt.detector) << "\n";
        return 2;
      }
      try {
        restored_image = ckpt::decode_detector(data->detector);
      } catch (const ckpt::CkptError& e) {
        std::cerr << "corrupt detector image: " << e.what() << "\n";
        return 1;
      }
      consumed = data->meta.consumed_events;
      emitted = data->meta.occurrences_emitted;
      have_restore = true;
    } else {
      std::cerr << "note: no restorable checkpoint in " << opt.ckpt_dir
                << "; starting fresh\n";
    }
  }

  std::ofstream occ;
  if (!opt.occ_log.empty()) {
    if (have_restore) {
      // Drop rows the pre-crash run emitted past the checkpoint: the
      // re-fed stream suffix regenerates them, and the log must not
      // duplicate a line.
      truncate_occ_log(opt.occ_log, emitted);
      occ.open(opt.occ_log, std::ios::app);
    } else {
      occ.open(opt.occ_log, std::ios::trunc);
      if (occ) {
        occ << "time,node,index,global,weight\n";
        occ.flush();
      }
    }
    if (!occ) {
      std::cerr << "cannot open " << opt.occ_log << "\n";
      return 1;
    }
  }

  // Deterministic clock: detection time == index of the triggering event.
  auto now = [&consumed] { return static_cast<SimTime>(consumed); };
  auto on_occurrence = [&](const detect::OccurrenceRecord& rec) {
    ++emitted;
    if (occ.is_open()) {
      // write_occurrences_csv's row format, one row per detection, flushed
      // immediately: a kill -9 never loses an emitted line.
      occ << rec.time << ',' << rec.detector << ',' << rec.index << ','
          << (rec.global ? 1 : 0) << ',' << rec.aggregate.weight << "\n";
      occ.flush();
    }
  };

  DaemonDetector det(kind, processes, on_occurrence, now);
  if (have_restore) {
    det.restore(restored_image);
  }

  auto write_checkpoint = [&] {
    if (store == nullptr) {
      return;
    }
    ckpt::CheckpointData data;
    data.meta.engine_kind = static_cast<std::uint8_t>(kind);
    data.meta.consumed_events = consumed;
    data.meta.occurrences_emitted = emitted;
    data.detector = ckpt::encode_detector(det.image(consumed));
    store->write(std::move(data));
  };

  const std::uint64_t already_consumed = consumed;
  std::uint64_t this_run = 0;
  bool interrupted = false;
  bool truncated = false;
  bool clean_end = false;

  auto next_event = [&](Interval& ev) {
    if (pending.has_value()) {
      ev = *pending;
      pending.reset();
      return ckpt::EventStreamReader::Status::kEvent;
    }
    return reader->next(ev);
  };

  try {
    while (true) {
      if (stop_requested()) {
        interrupted = true;
        break;
      }
      Interval ev;
      const ckpt::EventStreamReader::Status st = next_event(ev);
      if (st == ckpt::EventStreamReader::Status::kEnd) {
        clean_end = true;
        break;
      }
      if (st == ckpt::EventStreamReader::Status::kWait) {
        if (!opt.follow) {
          truncated = true;
          break;
        }
        sleep_or_signal(10);
        continue;
      }
      if (reader->events_read() <= already_consumed) {
        continue;  // prefix the restored checkpoint already ingested
      }
      ++consumed;
      ++this_run;
      det.feed(ev);
      if (opt.crash_after != 0 && this_run >= opt.crash_after) {
        // Deterministic self-kill for crash testing: no checkpoint, no
        // flush, no unwinding — indistinguishable from kill -9 here.
        std::_Exit(137);
      }
      if (opt.ckpt_every != 0 && this_run % opt.ckpt_every == 0) {
        write_checkpoint();
      }
      if (opt.max_events != 0 && this_run >= opt.max_events) {
        break;
      }
      if (opt.throttle_us != 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(opt.throttle_us));
      }
    }
  } catch (const ckpt::CkptError& e) {
    std::cerr << "stream error after " << consumed << " events: " << e.what()
              << "\n";
    write_checkpoint();  // progress up to the last good event survives
    return 1;
  }

  // Clean shutdown (END marker, --max-events, truncation, or a signal):
  // always leave a final checkpoint behind.
  write_checkpoint();

  if (truncated) {
    std::cerr << "stream ended without an END marker after " << consumed
              << " events (use --follow to tail a growing file); "
                 "progress checkpointed\n";
  }

  const CheckpointCounters ck =
      store != nullptr ? store->counters() : CheckpointCounters{};
  if (opt.json) {
    std::cout << "{\n  \"mode\": \"daemon\",\n  \"detector\": \""
              << detector_name(opt.detector) << "\",\n  \"processes\": "
              << processes << ",\n  \"consumed_events\": " << consumed
              << ",\n  \"events_this_run\": " << this_run
              << ",\n  \"occurrences_emitted\": " << emitted
              << ",\n  \"comparisons\": " << det.engine().comparisons()
              << ",\n  \"clock_passes\": " << det.engine().clock_passes()
              << ",\n  \"interrupted\": " << (interrupted ? "true" : "false")
              << ",\n  \"clean_end\": " << (clean_end ? "true" : "false")
              << ",\n  \"checkpoint\": ";
    checkpoint_json(std::cout, ck);
    std::cout << "\n}\n";
  } else {
    std::cout << "daemon: detector=" << detector_name(opt.detector)
              << " processes=" << processes << " consumed=" << consumed
              << " this-run=" << this_run << " occurrences=" << emitted
              << (interrupted ? " (interrupted)" : "")
              << (clean_end ? " (end of stream)" : "") << "\n";
    if (store != nullptr) {
      std::cout << "checkpoint: writes=" << ck.writes
                << " bytes=" << ck.bytes_written
                << " restores=" << ck.restores
                << " restore-generation=" << ck.restore_generation
                << " torn-skipped=" << ck.torn_writes_skipped << "\n";
    }
  }
  return truncated ? 1 : 0;
}

// ---- Live mode --------------------------------------------------------------

/// Translate the CLI options into a model-checker case so the live run can
/// be judged by exactly the oracles the checker uses. Only the case-schema
/// topologies and workloads are expressible.
mc::McCase build_live_case(const Options& opt) {
  mc::McCase c;
  const auto topo = split(opt.topology, ':');
  if (topo.empty() || (topo[0] != "dary" && topo[0] != "grid")) {
    std::cerr << "--live supports only dary:D:H or grid:RxC topologies\n";
    std::exit(2);
  }
  c.topology = opt.topology;
  const auto colon = opt.workload.find(':');
  const std::string kind = opt.workload.substr(0, colon);
  const auto kv = kv_args(
      colon == std::string::npos ? "" : opt.workload.substr(colon + 1));
  auto get = [&](const char* key, double dflt) {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  };
  if (kind == "pulse") {
    c.workload = mc::WorkloadKind::kPulse;
    c.pulse_rounds = static_cast<SeqNum>(get("rounds", 10));
    c.pulse_period = get("period", 60.0);
  } else if (kind == "gossip") {
    c.workload = mc::WorkloadKind::kGossip;
    c.horizon = get("horizon", 160.0);
    c.mean_gap = get("gap", 4.0);
    c.p_send = get("psend", 0.45);
    c.p_toggle = get("ptoggle", 0.35);
    c.max_intervals = static_cast<std::size_t>(get("maxintervals", 8));
  } else {
    std::cerr << "--live supports only pulse and gossip workloads\n";
    std::exit(2);
  }
  c.crashes = opt.failures;
  c.recoveries = opt.recoveries;
  c.seed = opt.seed;
  if (!opt.chaos.empty()) {
    for (const auto& [key, v] : kv_args(opt.chaos)) {
      if (key == "drop") {
        c.chaos_drop_p = v;
      } else if (key == "dup") {
        c.chaos_dup_p = v;
      } else if (key == "corrupt") {
        c.chaos_corrupt_p = v;
      } else if (key == "reset") {
        c.chaos_reset_p = v;
      } else if (key == "delay") {
        c.chaos_delay_p = v;
      } else if (key == "delaymax") {
        c.chaos_delay_max = v;
      } else {
        std::cerr << "--chaos: unknown key '" << key
                  << "' (drop|dup|corrupt|reset|delay|delaymax)\n";
        std::exit(2);
      }
    }
  }
  return c;
}

int run_live(const Options& opt) {
  if (opt.detector != runner::DetectorKind::kHierarchical) {
    std::cerr << "--live supports only the hierarchical detector\n";
    return 2;
  }
  if (opt.repeat > 1) {
    std::cerr << "--live does not support --repeat\n";
    return 2;
  }
  mc::McCase c = build_live_case(opt);
  runner::ExperimentConfig cfg = mc::build_case(c);
  if (!c.crashes.empty() || !c.recoveries.empty()) {
    // Relax heartbeat timing relative to the simulator defaults: real
    // scheduler jitter must stay well inside the suspicion timeout.
    cfg.hb_config.period = 5.0;
    cfg.hb_config.timeout_multiplier = 4.0;
  }

  rt::LiveConfig lc;
  lc.reactor_workers = opt.reactor_workers;
  lc.socket_kind = opt.live_tcp ? rt::SockAddr::Kind::kTcp
                                : rt::SockAddr::Kind::kUnix;
  lc.time_scale = opt.live_scale;
  if (c.has_live_chaos()) {
    lc.chaos.drop_p = c.chaos_drop_p;
    lc.chaos.dup_p = c.chaos_dup_p;
    lc.chaos.corrupt_p = c.chaos_corrupt_p;
    lc.chaos.reset_p = c.chaos_reset_p;
    lc.chaos.delay_p = c.chaos_delay_p;
    lc.chaos.delay_max = c.chaos_delay_max;
    // Stop injecting when the workload horizon ends so the drain phase can
    // flush every retransmission; a clean drain is what lets the strict
    // differential oracle hold under chaos.
    lc.chaos.until = cfg.horizon;
    lc.chaos.seed = opt.seed ^ 0xc4a05u;
  }
  lc.ckpt_dir = opt.ckpt_dir;
  install_stop_signals();
  const rt::LiveResult live =
      rt::run_live_experiment(cfg, lc, &g_stop_requested);

  // The oracles must judge the run that actually happened: substitute the
  // measured fault instants for the planned ones. An interrupted run is
  // exempt — its truncated workload cannot satisfy the oracles, and that
  // is not a detector failure.
  std::vector<std::string> violations;
  if (!live.interrupted) {
    c.crashes.clear();
    c.recoveries.clear();
    for (const rt::LifeEvent& ev : live.actual_crashes) {
      c.crashes.push_back({ev.time, ev.node});
    }
    for (const rt::LifeEvent& ev : live.actual_recoveries) {
      c.recoveries.push_back({ev.time, ev.node});
    }
    violations = mc::check_oracles(c, cfg, live.result);
  }

  LiveInfo info;
  info.transport = opt.live_tcp ? "tcp" : "unix";
  info.scale = opt.live_scale;
  info.res = &live;
  info.violations = &violations;
  info.interrupted = live.interrupted;
  return report(opt, cfg, live.result, &info);
}

int run(const Options& opt) {
  if (!opt.repro.empty()) {
    try {
      return mc::replay_repro(opt.repro, std::cout);
    } catch (const AssertionError& e) {
      std::cerr << "bad repro file: " << e.what() << "\n";
      return 2;
    }
  }
  if (opt.daemon) {
    return run_daemon(opt);
  }
  if (opt.live) {
    return run_live(opt);
  }
  if (!opt.chaos.empty()) {
    std::cerr << "--chaos requires --live (the simulator has no frame "
                 "boundary; use the mc fault plan instead)\n";
    return 2;
  }
  Rng topo_rng(opt.seed ^ 0x70701090);
  runner::ExperimentConfig cfg;
  std::optional<net::SpanningTree> fixed_tree;
  cfg.topology = build_topology(opt, topo_rng, fixed_tree);
  cfg.tree = fixed_tree.has_value()
                 ? *fixed_tree
                 : net::SpanningTree::bfs_tree(cfg.topology, opt.root);
  SimTime horizon = 600.0;
  cfg.behavior_factory = build_workload(opt, horizon);
  cfg.horizon = horizon;
  cfg.drain = 150.0;
  cfg.detector = opt.detector;
  cfg.heartbeats =
      opt.fault_tolerant &&
      opt.detector == runner::DetectorKind::kHierarchical;
  cfg.failures = opt.failures;
  cfg.recoveries = opt.recoveries;
  cfg.seed = opt.seed;
  cfg.occurrence_solutions = false;
  cfg.record_execution = !opt.dump_execution.empty() ||
                         !opt.dump_stream.empty() || opt.stats;

  if (!opt.failures.empty() && !cfg.heartbeats &&
      opt.detector == runner::DetectorKind::kHierarchical) {
    std::cerr << "note: failures without --fault-tolerant will stall "
                 "affected subtrees\n";
  }

  if (opt.repeat > 1) {
    // Multi-seed sweep: fan the runs across cores (each run is fully
    // independent; results are joined deterministically by seed order).
    cfg.keep_occurrence_records = false;
    cfg.record_execution = false;
    parallel::ThreadPool pool;
    struct SweepRow {
      std::uint64_t global = 0;
      std::uint64_t msgs = 0;
      std::uint64_t cmp = 0;
      double alpha = 0.0;
    };
    const auto rows = parallel::parallel_map<SweepRow>(
        pool, opt.repeat, [&](std::size_t i) {
          runner::ExperimentConfig run_cfg = cfg;
          run_cfg.seed = opt.seed + i;
          const auto r = runner::run_experiment(run_cfg);
          return SweepRow{r.global_count, r.metrics.msgs_total(),
                          r.metrics.total_vc_comparisons(),
                          r.measured_alpha()};
        });
    TextTable t({"seed", "global detections", "msgs total", "vc comparisons",
                 "alpha"});
    double g_sum = 0.0;
    double m_sum = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      t.add_row({std::to_string(opt.seed + i),
                 std::to_string(rows[i].global),
                 std::to_string(rows[i].msgs), std::to_string(rows[i].cmp),
                 TextTable::num(rows[i].alpha, 3)});
      g_sum += static_cast<double>(rows[i].global);
      m_sum += static_cast<double>(rows[i].msgs);
    }
    if (opt.json) {
      std::cout << "{\n  \"mode\": \"sweep\",\n  \"rows\": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::cout << (i == 0 ? "" : ", ")
                  << "{\"seed\": " << (opt.seed + i)
                  << ", \"global_detections\": " << rows[i].global
                  << ", \"msgs_total\": " << rows[i].msgs
                  << ", \"vc_comparisons\": " << rows[i].cmp
                  << ", \"alpha\": " << json_num(rows[i].alpha) << "}";
      }
      std::cout << "],\n  \"mean\": {\"global_detections\": "
                << json_num(g_sum / static_cast<double>(opt.repeat))
                << ", \"msgs_total\": "
                << json_num(m_sum / static_cast<double>(opt.repeat))
                << "}\n}\n";
      return 0;
    }
    opt.csv ? t.print_csv(std::cout) : t.print(std::cout);
    std::cout << "\nmean over " << opt.repeat
              << " seeds: global detections "
              << TextTable::num(g_sum / static_cast<double>(opt.repeat), 2)
              << ", messages "
              << TextTable::num(m_sum / static_cast<double>(opt.repeat), 1)
              << "\n";
    return 0;
  }

  const auto result = runner::run_experiment(cfg);
  return report(opt, cfg, result, nullptr);
}

}  // namespace
}  // namespace hpd::tools

int main(int argc, char** argv) {
  return hpd::tools::run(hpd::tools::parse(argc, argv));
}
