// The benchmark's copy of hpd_sim's --daemon ingest loop (tools/hpd_sim.cpp,
// run_daemon): read an event stream, feed each interval to one sink
// engine with stream process 0 as the sink, append every detection to the
// occurrence CSV (flushed per row), checkpoint every N events, and resume
// from a checkpoint. The fidelity cross-check in run.py pins the
// occurrence log of this copy to the real daemon byte for byte.
//
// A pass runs in one of two shapes:
//  * untraced: the engine is detect::CentralSink / detect::SlicingDetector /
//    a core::HierNodeEngine star root, exactly the objects the daemon
//    builds;
//  * traced: the benchmark makes the calls those engines make itself —
//    ReorderBuffer::push → QueueEngine::offer / SlicingEngine::offer →
//    aggregate() — and records a span around each, so every layer's time
//    is measured from outside without touching src/.
//
// An untraced pass given a Reference also runs the host-speed probe
// (reference.hpp) before and after its set-up and then every
// kProbeEveryS of wall time, between two intervals, outside every timed
// window. Each interval's times are divided by the mean of the probes
// just before and just after it; the set-up by those around the set-up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common.hpp"

namespace bench {

class Reference;

/// Wall time between two host-speed probes of a pass.
constexpr double kProbeEveryS = 0.5e-3;

/// Span names of the traced pass (the repo's module names).
enum class Layer : std::uint8_t {
  kInterval,    ///< root span of one stream position (read → last effect)
  kSetup,       ///< root span of the pass set-up
  kEventStream, ///< ckpt.event_stream: EventStreamReader::next
  kReorder,     ///< detect.reorder: ReorderBuffer::push
  kQueueEngine, ///< detect.queue_engine: QueueEngine::offer
  kSlicing,     ///< detect.slicing: SlicingEngine::offer
  kHier,        ///< core.hier_engine: local_interval / child_report, whole
  kAggregate,   ///< interval.aggregate: aggregate() (⊓)
  kEmit,        ///< detect.emit: occurrence row write + flush
  kCkptEncode,  ///< ckpt.checkpoint: snapshot + encode_detector
  kCkptWrite,   ///< ckpt.checkpoint: CheckpointStore::write
  kCkptRestore, ///< ckpt.checkpoint: load_latest + decode + restore
  kCount,
};

const char* layer_name(Layer l);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t id = 0;  ///< stream position of the interval (0 = set-up)
  Layer layer = Layer::kInterval;
};

/// In-memory span recorder; written out once the benchmark ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  std::int32_t open(Layer layer, std::int32_t parent, std::uint32_t id) {
    Span s;
    s.layer = layer;
    s.parent = parent;
    s.id = id;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }
  void write_csv(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct PassConfig {
  hpd::ckpt::EngineKind engine = hpd::ckpt::EngineKind::kCentral;
  std::string stream;
  std::string occ_log;      ///< truncated and rewritten by the pass
  std::string occ_prefix;   ///< restore: rows already emitted before it
  std::string restore_dir;  ///< non-empty: resume from its newest checkpoint
  std::string ckpt_dir;     ///< non-empty: checkpoint into this store,
                            ///< and once more at the stop point
  std::uint64_t ckpt_every = 0;
  std::uint64_t max_events = 0;  ///< 0 = to the END marker
  bool setup_only = false;       ///< stop once the first interval is ready
  Tracer* tracer = nullptr;      ///< non-null: the traced shape
  Reference* reference = nullptr;  ///< non-null: normalise by probes
};

/// Deterministic per-pass counts: the determinism self-check requires
/// them to repeat exactly across passes and runs of one seed.
struct PassCounts {
  std::uint64_t events = 0;       ///< intervals fed this pass
  std::uint64_t stream_bytes = 0; ///< size of the stream file
  std::uint64_t comparisons = 0;  ///< inner QueueEngine comparisons
  std::uint64_t eliminated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t solutions = 0;
  std::uint64_t stored_peak = 0;
  std::uint64_t slice_comparisons = 0;
  std::uint64_t admitted = 0;
  std::uint64_t discarded = 0;
  std::uint64_t parked_peak = 0;
  std::uint64_t dropped_stale = 0;
  std::uint64_t aggregate_calls = 0;
  std::uint64_t aggregate_members = 0;
  std::uint64_t rows = 0;
  std::uint64_t row_bytes = 0;
  std::uint64_t ckpt_writes = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t ckpt_bytes_max = 0;
  std::uint64_t ckpt_fsyncs = 0;

  bool operator==(const PassCounts&) const = default;
};

/// Times of a pass. With a Reference every time but ingest_s is
/// normalised (divided by the local slowdown) and leaves the probes out;
/// ingest_s stays the raw wall time.
struct PassResult {
  double setup_s = 0.0;   ///< open + header + construction (+ restore)
  double ingest_s = 0.0;  ///< first read of a fed interval → last effect
  double setup_cpu_s = 0.0;   ///< setup_s in thread CPU time
  double ingest_cpu_s = 0.0;  ///< ingest_s in thread CPU time
  double slowdown = 1.0;  ///< the pass's time-weighted mean slowdown
  std::vector<double> event_lat_us;   ///< per fed interval
  std::vector<double> detect_lat_us;  ///< per occurrence
  std::vector<SolutionKey> solutions; ///< in emission order
  std::uint64_t resumed_occurrences = 0;  ///< emitted before the restore
  PassCounts counts;
};

PassResult run_pass(const PassConfig& cfg);

/// The engine hpd_sim --detector calls `name` (central | slicing | hier).
hpd::ckpt::EngineKind engine_kind(const std::string& name);

/// SolutionKey of a detected solution (member (origin, seq) pairs).
SolutionKey solution_key(const std::vector<hpd::Interval>& members);

}  // namespace bench
