#include "daemon.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>

#include "ckpt/checkpoint.hpp"
#include "ckpt/event_stream.hpp"
#include "core/hier_engine.hpp"
#include "detect/centralized.hpp"
#include "detect/queue_engine.hpp"
#include "detect/reorder.hpp"
#include "detect/slicing.hpp"
#include "interval/interval.hpp"
#include "reference.hpp"

namespace bench {

using hpd::Interval;
using hpd::ProcessId;
using hpd::SeqNum;
using hpd::SimTime;
using hpd::ckpt::DetectorImage;
using hpd::ckpt::EngineKind;
namespace fs = std::filesystem;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kInterval:
      return "interval";
    case Layer::kSetup:
      return "setup";
    case Layer::kEventStream:
      return "ckpt.event_stream";
    case Layer::kReorder:
      return "detect.reorder";
    case Layer::kQueueEngine:
      return "detect.queue_engine";
    case Layer::kSlicing:
      return "detect.slicing";
    case Layer::kHier:
      return "core.hier_engine";
    case Layer::kAggregate:
      return "interval.aggregate";
    case Layer::kEmit:
      return "detect.emit";
    case Layer::kCkptEncode:
      return "ckpt.checkpoint.encode";
    case Layer::kCkptWrite:
      return "ckpt.checkpoint.write";
    case Layer::kCkptRestore:
      return "ckpt.checkpoint.restore";
    case Layer::kCount:
      break;
  }
  return "?";
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "name,start_ns,end_ns,parent,id\n";
  for (const Span& s : spans_) {
    out << layer_name(s.layer) << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << s.id << '\n';
  }
}

EngineKind engine_kind(const std::string& name) {
  if (name == "central") {
    return EngineKind::kCentral;
  }
  if (name == "slicing") {
    return EngineKind::kSlicing;
  }
  if (name == "hier") {
    return EngineKind::kHier;
  }
  throw std::runtime_error("unknown engine '" + name + "'");
}

SolutionKey solution_key(const std::vector<Interval>& members) {
  SolutionKey key;
  key.reserve(members.size());
  for (const Interval& m : members) {
    key.emplace_back(m.origin, m.seq);
  }
  return key;
}

namespace {

/// RAII span: a no-op when the pass is untraced.
class Scope {
 public:
  Scope(Tracer* t, Layer l, std::int32_t parent, std::uint32_t id)
      : t_(t), span_(t != nullptr ? t->open(l, parent, id) : -1) {}
  ~Scope() {
    if (t_ != nullptr) {
      t_->close(span_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const { return span_; }

 private:
  Tracer* t_;
  std::int32_t span_;
};

/// The occurrence sink: hpd_sim's row format, one flushed row per
/// detection, plus the detection-latency clock.
class Emitter {
 public:
  std::ofstream occ;
  Tracer* tracer = nullptr;
  std::int32_t parent_span = -1;
  std::uint32_t position = 0;
  Clock::time_point event_start;
  std::uint64_t emitted = 0;
  std::vector<double>* detect_lat_us = nullptr;
  std::vector<SolutionKey>* solutions = nullptr;
  std::uint64_t members = 0;

  void row(SimTime time, ProcessId detector, SeqNum index, bool global,
           std::uint32_t weight, const std::vector<Interval>& solution) {
    {
      Scope s(tracer, Layer::kEmit, parent_span, position);
      ++emitted;
      occ << time << ',' << detector << ',' << index << ','
          << (global ? 1 : 0) << ',' << weight << "\n";
      occ.flush();
    }
    detect_lat_us->push_back(seconds_between(event_start, Clock::now()) *
                             1e6);
    solutions->push_back(solution_key(solution));
    members += solution.size();
  }
};

std::vector<ProcessId> all_processes(std::size_t n) {
  std::vector<ProcessId> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(static_cast<ProcessId>(i));
  }
  return procs;
}

/// One sink engine behind the daemon's ingest/snapshot surface.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual void feed(Interval&& x) = 0;
  virtual DetectorImage image(std::uint64_t consumed) const = 0;
  virtual void restore(const DetectorImage& img) = 0;
  virtual void counts(PassCounts& c) const = 0;
};

void fill_queue_counts(const hpd::detect::QueueEngine& q, PassCounts& c) {
  c.comparisons = q.comparisons();
  c.eliminated = q.eliminated();
  c.pruned = q.pruned();
  c.solutions = q.solutions_found();
  c.stored_peak = q.stored_peak();
}

void fill_slice_counts(const hpd::detect::SlicingEngine& s, PassCounts& c) {
  fill_queue_counts(s.inner(), c);
  c.slice_comparisons = s.slice_comparisons();
  c.admitted = s.admitted();
  c.discarded = s.discarded_by_slice();
}

/// Untraced shape: the objects hpd_sim's DaemonDetector builds.
class SinkEngine final : public Engine {
 public:
  SinkEngine(EngineKind kind, std::size_t n, Emitter& em,
             const std::uint64_t& consumed)
      : kind_(kind) {
    auto on_occ = [&em](const hpd::detect::OccurrenceRecord& rec) {
      em.row(rec.time, rec.detector, rec.index, rec.global,
             rec.aggregate.weight, rec.solution);
    };
    auto now = [&consumed] { return static_cast<SimTime>(consumed); };
    if (kind == EngineKind::kCentral) {
      central_ = std::make_unique<hpd::detect::CentralSink>(
          0, all_processes(n),
          hpd::detect::CentralSink::Hooks{on_occ, now});
    } else if (kind == EngineKind::kSlicing) {
      slicing_ = std::make_unique<hpd::detect::SlicingDetector>(
          0, all_processes(n),
          hpd::detect::SlicingDetector::Hooks{on_occ, now});
    } else {
      // The daemon's star root: every other process is a leaf child.
      hpd::core::HierNodeEngine::Config c;
      c.self = 0;
      c.has_parent = false;
      hier_ = std::make_unique<hpd::core::HierNodeEngine>(
          c, hpd::core::HierNodeEngine::Hooks{nullptr, on_occ, now});
      for (std::size_t j = 1; j < n; ++j) {
        hier_->add_child(static_cast<ProcessId>(j), 1);
      }
    }
  }

  void feed(Interval&& x) override {
    if (central_) {
      x.origin == 0 ? central_->local_interval(std::move(x))
                    : central_->report(std::move(x));
    } else if (slicing_) {
      x.origin == 0 ? slicing_->local_interval(std::move(x))
                    : slicing_->report(std::move(x));
    } else {
      const ProcessId origin = x.origin;
      origin == 0 ? hier_->local_interval(std::move(x))
                  : hier_->child_report(origin, std::move(x));
    }
  }

  DetectorImage image(std::uint64_t consumed) const override {
    DetectorImage img;
    img.kind = kind_;
    img.consumed_events = consumed;
    if (central_) {
      img.central = central_->snapshot();
    } else if (slicing_) {
      img.slicing = slicing_->snapshot();
    } else {
      img.hier = hier_->snapshot();
    }
    return img;
  }

  void restore(const DetectorImage& img) override {
    if (central_) {
      central_->restore(img.central);
    } else if (slicing_) {
      slicing_->restore(img.slicing);
    } else {
      hier_->restore(img.hier);
    }
  }

  void counts(PassCounts& c) const override {
    if (central_) {
      fill_queue_counts(central_->engine(), c);
      c.dropped_stale = central_->reorder().dropped_stale();
    } else if (slicing_) {
      fill_slice_counts(slicing_->slicer(), c);
      c.dropped_stale = slicing_->reorder().dropped_stale();
    } else {
      fill_queue_counts(hier_->engine(), c);
      c.dropped_stale = hier_->reorder().dropped_stale();
    }
  }

 private:
  EngineKind kind_;
  std::unique_ptr<hpd::detect::CentralSink> central_;
  std::unique_ptr<hpd::detect::SlicingDetector> slicing_;
  std::unique_ptr<hpd::core::HierNodeEngine> hier_;
};

/// Traced shape: the engine's own calls, made from here with a span each.
/// Mirrors CentralSink / SlicingDetector / HierNodeEngine
/// (detect/centralized.cpp, detect/slicing.cpp, core/hier_engine.cpp) call
/// for call, so the occurrence log is identical. For the hier root, one
/// core.hier_engine span wraps each local_interval / child_report.
class SplitEngine final : public Engine {
 public:
  SplitEngine(EngineKind kind, std::size_t n, Emitter& em,
              const std::uint64_t& consumed)
      : kind_(kind), em_(em), consumed_(consumed) {
    for (const ProcessId p : all_processes(n)) {
      if (kind_ == EngineKind::kSlicing) {
        slicer_.add_queue(p);
      } else {
        if (kind_ == EngineKind::kHier && p != 0) {
          queue_.restore_pruned();  // HierNodeEngine::add_child
        }
        queue_.add_queue(p);
      }
      if (p != 0) {
        reorder_.track(p, 1);
      }
    }
  }

  void feed(Interval&& x) override {
    if (kind_ != EngineKind::kHier) {
      route(std::move(x));
      return;
    }
    const std::int32_t outer = em_.parent_span;
    Scope s(em_.tracer, Layer::kHier, outer, em_.position);
    em_.parent_span = s.id();
    route(std::move(x));
    em_.parent_span = outer;
  }

  DetectorImage image(std::uint64_t consumed) const override {
    DetectorImage img;
    img.kind = kind_;
    img.consumed_events = consumed;
    if (kind_ == EngineKind::kCentral) {
      img.central = {0, queue_.snapshot(), reorder_.snapshot(), next_seq_,
                     occurrences_};
    } else if (kind_ == EngineKind::kSlicing) {
      img.slicing = {0, slicer_.snapshot(), reorder_.snapshot(), next_seq_,
                     occurrences_};
    } else {
      img.hier = {0, false, queue_.snapshot(), reorder_.snapshot(),
                  next_seq_, occurrences_, std::nullopt};
    }
    return img;
  }

  void restore(const DetectorImage& img) override {
    if (kind_ == EngineKind::kCentral) {
      queue_.restore(img.central.engine);
      reorder_.restore(img.central.reorder);
      next_seq_ = img.central.next_seq;
      occurrences_ = img.central.occurrence_count;
    } else if (kind_ == EngineKind::kSlicing) {
      slicer_.restore(img.slicing.slicer);
      reorder_.restore(img.slicing.reorder);
      next_seq_ = img.slicing.next_seq;
      occurrences_ = img.slicing.occurrence_count;
    } else {
      queue_.restore(img.hier.engine);
      reorder_.restore(img.hier.reorder);
      next_seq_ = img.hier.next_seq;
      occurrences_ = img.hier.occurrence_count;
    }
  }

  void counts(PassCounts& c) const override {
    kind_ == EngineKind::kSlicing ? fill_slice_counts(slicer_, c)
                                  : fill_queue_counts(queue_, c);
    c.dropped_stale = reorder_.dropped_stale();
    c.parked_peak = parked_peak_;
  }

 private:
  void route(Interval&& x) {
    const ProcessId origin = x.origin;
    if (origin == 0) {
      offer(0, std::move(x));
      return;
    }
    std::vector<Interval> ready;
    {
      Scope s(em_.tracer, Layer::kReorder, em_.parent_span, em_.position);
      ready = reorder_.push(origin, std::move(x));
    }
    if (ready.empty()) {  // parked: the only time the buffer grows
      parked_peak_ = std::max<std::uint64_t>(parked_peak_, reorder_.pending());
    }
    for (Interval& y : ready) {
      offer(origin, std::move(y));
    }
  }

  void offer(ProcessId key, Interval&& x) {
    std::vector<hpd::detect::Solution> sols;
    if (kind_ != EngineKind::kSlicing) {
      Scope s(em_.tracer, Layer::kQueueEngine, em_.parent_span, em_.position);
      sols = queue_.offer(key, std::move(x));
    } else {
      Scope s(em_.tracer, Layer::kSlicing, em_.parent_span, em_.position);
      sols = slicer_.offer(key, std::move(x));
    }
    for (const hpd::detect::Solution& sol : sols) {
      Interval agg;
      {
        Scope s(em_.tracer, Layer::kAggregate, em_.parent_span, em_.position);
        agg = hpd::aggregate(std::span<const Interval>(sol.members), 0,
                             next_seq_++);
      }
      em_.row(static_cast<SimTime>(consumed_), 0, ++occurrences_, true,
              agg.weight, sol.members);
    }
  }

  EngineKind kind_;
  Emitter& em_;
  const std::uint64_t& consumed_;
  hpd::detect::QueueEngine queue_;
  hpd::detect::SlicingEngine slicer_;
  hpd::detect::ReorderBuffer reorder_;
  SeqNum next_seq_ = 1;
  SeqNum occurrences_ = 0;
  std::uint64_t parked_peak_ = 0;
};

PassCounts counts_delta(const PassCounts& end, const PassCounts& start) {
  PassCounts d = end;
  d.comparisons -= start.comparisons;
  d.eliminated -= start.eliminated;
  d.pruned -= start.pruned;
  d.solutions -= start.solutions;
  d.slice_comparisons -= start.slice_comparisons;
  d.admitted -= start.admitted;
  d.discarded -= start.discarded;
  d.dropped_stale -= start.dropped_stale;
  return d;
}

using Status = hpd::ckpt::EventStreamReader::Status;

/// Divides each interval's latency, and each detection's, by the mean of
/// the probes just before and just after that interval, and the pass's
/// CPU time by its latency-weighted mean slowdown. probes[1] follows the
/// set-up; the last probe follows the last interval.
void normalise(PassResult& out,
               const std::vector<std::pair<std::size_t, double>>& probes,
               const std::vector<std::size_t>& detect_event) {
  std::vector<double> slow(out.event_lat_us.size());
  std::size_t k = 1;
  double raw = 0.0;
  double norm = 0.0;
  for (std::size_t j = 0; j < slow.size(); ++j) {
    while (k + 1 < probes.size() && probes[k + 1].first <= j) {
      ++k;
    }
    slow[j] = 0.5 * (probes[k].second + probes[k + 1].second);
    raw += out.event_lat_us[j];
    out.event_lat_us[j] /= slow[j];
    norm += out.event_lat_us[j];
  }
  for (std::size_t i = 0; i < out.detect_lat_us.size(); ++i) {
    out.detect_lat_us[i] /= slow[detect_event[i]];
  }
  out.slowdown = norm > 0.0 ? raw / norm : 1.0;
  out.ingest_cpu_s /= out.slowdown;
}

}  // namespace

PassResult run_pass(const PassConfig& cfg) {
  PassResult out;
  Tracer* tr = cfg.tracer;
  std::string restore_from = cfg.restore_dir;
  if (!cfg.ckpt_dir.empty()) {
    fs::remove_all(cfg.ckpt_dir);  // a fresh store per pass
    if (!cfg.restore_dir.empty()) {
      // The daemon restarts from its own store and keeps writing into it,
      // so generation numbers (varints in every checkpoint) continue from
      // the restored one.
      fs::copy(cfg.restore_dir, cfg.ckpt_dir, fs::copy_options::recursive);
      restore_from = cfg.ckpt_dir;
    }
  }
  Emitter em;
  em.tracer = tr;
  em.detect_lat_us = &out.detect_lat_us;
  em.solutions = &out.solutions;
  std::uint64_t consumed = 0;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<hpd::ckpt::CheckpointStore> store;
  std::unique_ptr<hpd::ckpt::EventStreamReader> reader;
  std::optional<Interval> pending;
  PassCounts start;

  // Host-speed probes: (intervals done before it, slowdown).
  std::vector<std::pair<std::size_t, double>> probes;
  double probe_cpu = 0.0;
  auto probe = [&]() {
    const double c0 = thread_cpu_s();
    probes.emplace_back(out.event_lat_us.size(), cfg.reference->probe());
    probe_cpu += thread_cpu_s() - c0;
  };
  if (cfg.reference != nullptr) {
    probe();
  }
  const double cpu_setup = thread_cpu_s();
  const Clock::time_point t_setup = Clock::now();
  {
    Scope setup(tr, Layer::kSetup, -1, 0);
    em.parent_span = setup.id();
    std::optional<DetectorImage> restored;
    if (!cfg.restore_dir.empty()) {
      Scope s(tr, Layer::kCkptRestore, setup.id(), 0);
      hpd::ckpt::CheckpointStore from(restore_from, "daemon");
      std::optional<hpd::ckpt::CheckpointData> data = from.load_latest();
      if (!data || data->meta.engine_kind != static_cast<std::uint8_t>(cfg.engine)) {
        throw std::runtime_error("no usable checkpoint in " + restore_from);
      }
      restored = hpd::ckpt::decode_detector(data->detector);
      consumed = data->meta.consumed_events;
      em.emitted = data->meta.occurrences_emitted;
      out.resumed_occurrences = em.emitted;
    }
    const std::uint64_t already = consumed;
    reader = std::make_unique<hpd::ckpt::EventStreamReader>(cfg.stream);
    // Header, then the consumed prefix a restore skips (hpd_sim skips it
    // the same way: read and drop).
    Interval ev;
    while (!pending) {
      if (reader->next(ev) != Status::kEvent) {
        throw std::runtime_error("stream ended before the first event to feed");
      }
      if (reader->events_read() > already) {
        pending = std::move(ev);
      }
    }
    if (restored) {
      fs::copy_file(cfg.occ_prefix, cfg.occ_log,
                    fs::copy_options::overwrite_existing);
      em.occ.open(cfg.occ_log, std::ios::app);
    } else {
      em.occ.open(cfg.occ_log, std::ios::trunc);
      em.occ << "time,node,index,global,weight\n";
      em.occ.flush();
    }
    if (!em.occ) {
      throw std::runtime_error("cannot open " + cfg.occ_log);
    }
    const std::size_t n = reader->num_processes();
    if (tr != nullptr) {
      engine = std::make_unique<SplitEngine>(cfg.engine, n, em, consumed);
    } else {
      engine = std::make_unique<SinkEngine>(cfg.engine, n, em, consumed);
    }
    if (restored) {
      Scope s(tr, Layer::kCkptRestore, setup.id(), 0);
      engine->restore(*restored);
    }
    if (!cfg.ckpt_dir.empty()) {
      store = std::make_unique<hpd::ckpt::CheckpointStore>(cfg.ckpt_dir,
                                                           "daemon");
    }
    engine->counts(start);
  }
  const Clock::time_point t_ingest = Clock::now();
  const double cpu_ingest = thread_cpu_s();
  out.setup_s = seconds_between(t_setup, t_ingest);
  out.setup_cpu_s = cpu_ingest - cpu_setup;
  if (cfg.reference != nullptr) {
    probe();
    const double slow = 0.5 * (probes[0].second + probes[1].second);
    out.setup_s /= slow;
    out.setup_cpu_s /= slow;
  }
  if (cfg.setup_only) {
    return out;
  }
  const std::uint64_t fsyncs_before = fsync_calls();
  const std::uint64_t row_base = fs::file_size(cfg.occ_log);

  std::int32_t root = -1;
  auto write_checkpoint = [&](Tracer* t) {
    hpd::ckpt::CheckpointData data;
    {
      Scope s(t, Layer::kCkptEncode, root, em.position);
      data.meta.engine_kind = static_cast<std::uint8_t>(cfg.engine);
      data.meta.consumed_events = consumed;
      data.meta.occurrences_emitted = em.emitted;
      data.detector = hpd::ckpt::encode_detector(engine->image(consumed));
    }
    const std::uint64_t before = store->counters().bytes_written;
    {
      Scope s(t, Layer::kCkptWrite, root, em.position);
      store->write(std::move(data));
    }
    const std::uint64_t bytes = store->counters().bytes_written - before;
    out.counts.ckpt_bytes_max = std::max(out.counts.ckpt_bytes_max, bytes);
  };

  out.event_lat_us.reserve(1 << 14);
  std::vector<std::size_t> detect_event;  // interval index of each detection
  std::uint64_t this_run = 0;
  const double cpu_loop = thread_cpu_s();
  const double probe_cpu_setup = probe_cpu;
  Clock::time_point t0 = cfg.reference != nullptr ? Clock::now() : t_ingest;
  Clock::time_point last = t0;
  Clock::time_point last_probe = t0;
  while (true) {
    Interval ev;
    std::optional<Scope> interval;
    if (pending) {
      ev = std::move(*pending);
      pending.reset();
      if (tr != nullptr) {
        interval.emplace(tr, Layer::kInterval, -1,
                         static_cast<std::uint32_t>(consumed + 1));
      }
    } else {
      t0 = Clock::now();
      if (tr != nullptr) {
        interval.emplace(tr, Layer::kInterval, -1,
                         static_cast<std::uint32_t>(consumed + 1));
      }
      Status st;
      {
        Scope s(tr, Layer::kEventStream, interval ? interval->id() : -1,
                static_cast<std::uint32_t>(consumed + 1));
        st = reader->next(ev);
      }
      if (st == Status::kEnd) {
        break;
      }
      if (st != Status::kEvent) {
        throw std::runtime_error("stream truncated (no END marker)");
      }
    }
    ++consumed;
    ++this_run;
    root = interval ? interval->id() : -1;
    em.parent_span = root;
    em.position = static_cast<std::uint32_t>(consumed);
    em.event_start = t0;
    engine->feed(std::move(ev));
    if (cfg.ckpt_every != 0 && this_run % cfg.ckpt_every == 0) {
      write_checkpoint(tr);
    }
    interval.reset();
    last = Clock::now();
    detect_event.resize(out.detect_lat_us.size(), out.event_lat_us.size());
    out.event_lat_us.push_back(seconds_between(t0, last) * 1e6);
    if (cfg.max_events != 0 && this_run >= cfg.max_events) {
      break;
    }
    if (cfg.reference != nullptr &&
        seconds_between(last_probe, last) >= kProbeEveryS) {
      probe();
      last_probe = Clock::now();
    }
  }
  out.ingest_s = seconds_between(t_ingest, last);
  out.ingest_cpu_s = thread_cpu_s() - cpu_loop - (probe_cpu - probe_cpu_setup);
  if (cfg.reference != nullptr) {
    probe();
    normalise(out, probes, detect_event);
  }

  // Clean shutdown, as the daemon does it: a final checkpoint whenever a
  // store is configured (outside the timed loop), then the counts.
  if (store != nullptr) {
    write_checkpoint(nullptr);
  }
  PassCounts end;
  engine->counts(end);
  end.ckpt_bytes_max = out.counts.ckpt_bytes_max;
  out.counts = counts_delta(end, start);
  out.counts.events = this_run;
  out.counts.stream_bytes = fs::file_size(cfg.stream);
  out.counts.aggregate_calls = out.solutions.size();
  out.counts.aggregate_members = em.members;
  out.counts.rows = out.solutions.size();
  em.occ.flush();
  out.counts.row_bytes = fs::file_size(cfg.occ_log) - row_base;
  if (store != nullptr) {
    out.counts.ckpt_writes = store->counters().writes;
    out.counts.ckpt_bytes = store->counters().bytes_written;
    out.counts.ckpt_fsyncs = fsync_calls() - fsyncs_before;
  }
  return out;
}

}  // namespace bench
