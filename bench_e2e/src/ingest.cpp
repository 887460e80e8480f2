// `ingest`: the measured closed loop over a prepared stream.
//
// An untimed warm-up pass over the first quarter of the stream comes
// first: it takes the first-touch page faults and cold caches that would
// otherwise land on the first timed pass of every process. Then passes
// repeat over the whole stream (fresh engine, fresh occurrence log,
// fresh checkpoint store; gossip-ckpt restarts from the prepared
// checkpoint each time) until --seconds of wall time have gone. Each
// untraced pass is followed by a few set-up-only passes, so the set-up
// median rests on more samples than there are whole passes. With
// --trace 1, untraced and traced passes alternate so the tracing overhead
// is measured under the same conditions.
//
// Every pass is checked against the offline oracle, and its deterministic
// counts must equal the first pass's of the same shape.
//
// Untraced passes are timed in thread CPU time and normalised by the
// host-speed probe (reference.hpp, daemon.hpp), so they read as on a
// quiet host.
#include <malloc.h>

#include <array>
#include <optional>

#include "daemon.hpp"
#include "modes.hpp"
#include "reference.hpp"

namespace bench {
namespace {

/// Oracle mismatches of one pass: solutions that differ from, are missing
/// from, or are extra to the expected sequence (from `offset` on).
std::uint64_t mismatches(const std::vector<SolutionKey>& got,
                         const std::vector<SolutionKey>& expected,
                         std::size_t offset) {
  const std::size_t want =
      expected.size() > offset ? expected.size() - offset : 0;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < std::max(want, got.size()); ++i) {
    if (i >= want || i >= got.size() || got[i] != expected[offset + i]) {
      ++bad;
    }
  }
  return bad;
}

struct LayerTimes {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> busy{};
  double loop_self = 0.0;  ///< interval root time no layer span covers
};

/// Busy (self) seconds per layer over the spans of traced passes.
LayerTimes layer_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  LayerTimes t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double self =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - child[i]) *
        1e-9;
    if (spans[i].layer == Layer::kInterval) {
      t.loop_self += self;
    } else {
      t.busy[static_cast<std::size_t>(spans[i].layer)] += self;
    }
  }
  return t;
}

double busy_of(const LayerTimes& t, Layer l) {
  return t.busy[static_cast<std::size_t>(l)];
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Set-up-only passes after each untraced pass.
constexpr int kSetupReps = 4;

}  // namespace

int run_ingest(const Args& args) {
  // Fixed allocator thresholds. glibc otherwise adapts its mmap threshold
  // to the blocks freed so far and returns heap tops to the kernel past a
  // trim threshold, so whether a checkpoint's buffers page-fault anew
  // depended on incidental sizes: gossip-ckpt's checkpoint cost differed
  // by a quarter between seeds whose work was the same to 0.03%. Here
  // blocks come from the heap and the heap is kept, on every seed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const std::string dir = args.str("dir");
  const double seconds = args.num("seconds", 10);
  const bool traced_run = args.num("trace", 0) != 0;
  const auto meta = read_kv(dir + "/meta.txt");
  const std::vector<SolutionKey> expected =
      read_solutions(dir + "/expected.txt");

  PassConfig base;
  base.engine = engine_kind(meta.at("engine"));
  base.stream = dir + "/stream.evt";
  base.ckpt_every = std::stoull(meta.at("ckpt_every"));
  if (base.ckpt_every != 0) {
    base.ckpt_dir = dir + "/ckpt-run";
  }
  if (std::stoull(meta.at("resume_at")) != 0) {
    base.restore_dir = dir + "/ckpt-prep";
    base.occ_prefix = dir + "/occ-prefix.csv";
  }

  Tracer tracer;
  Reference reference;
  std::vector<double> eps[2], setup[2], lat_p50, lat_p99, detect_lat;
  std::vector<double> slowdowns;  // per untraced pass
  std::optional<PassCounts> first[2];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  int passes[2] = {0, 0};
  double rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  {
    PassConfig warm = base;
    warm.occ_log = dir + "/occ-warmup.csv";
    if (!warm.ckpt_dir.empty()) {
      warm.ckpt_dir = dir + "/ckpt-warmup";
    }
    warm.max_events = std::max<std::uint64_t>(
        std::stoull(meta.at("events")) / 4, 1);
    run_pass(warm);
  }
  for (int pass = 0;; ++pass) {
    const int shape = traced_run ? pass % 2 : 0;  // 1 = traced
    const double elapsed = seconds_between(start, Clock::now());
    // At least two passes of each shape; a hard cap keeps a slow machine
    // inside the benchmark's time limit.
    const bool enough = passes[0] >= 2 && (!traced_run || passes[1] >= 2);
    if ((elapsed >= seconds && enough) || elapsed >= 6 * seconds) {
      break;
    }
    PassConfig cfg = base;
    cfg.occ_log = dir + (shape == 1 ? "/occ-traced.csv" : "/occ-untraced.csv");
    cfg.tracer = shape == 1 ? &tracer : nullptr;
    cfg.reference = traced_run ? nullptr : &reference;
    PassResult r = run_pass(cfg);
    ++passes[shape];

    const std::uint64_t bad =
        mismatches(r.solutions, expected, r.resumed_occurrences);
    attempted += std::max<std::uint64_t>(
        expected.size() - r.resumed_occurrences, 1);
    failed += bad;
    if (!first[shape]) {
      first[shape] = r.counts;
    } else if (!(*first[shape] == r.counts)) {
      deterministic = false;
    }
    if (passes[0] == 1 && shape == 0) {
      // The daemon's footprint for one whole stream; later passes would
      // add only allocator fragmentation from the passes before them.
      rss_mb = peak_rss_mb();
    }
    if (traced_run) {
      eps[shape].push_back(static_cast<double>(r.counts.events) / r.ingest_s);
      setup[shape].push_back(r.setup_s);
      continue;
    }
    eps[0].push_back(static_cast<double>(r.counts.events) / r.ingest_cpu_s);
    setup[0].push_back(r.setup_cpu_s);
    PassConfig only = base;
    only.occ_log = dir + "/occ-setup.csv";
    if (!only.ckpt_dir.empty()) {
      only.ckpt_dir = dir + "/ckpt-setup";
    }
    only.setup_only = true;
    only.reference = &reference;
    for (int i = 0; i < kSetupReps; ++i) {
      setup[0].push_back(run_pass(only).setup_cpu_s);
    }
    lat_p50.push_back(percentile(r.event_lat_us, 0.50));
    lat_p99.push_back(percentile(r.event_lat_us, 0.99));
    // The first occurrence of a pass pays the fresh engine's first-round
    // growth, which a long-lived daemon pays once; it is left out.
    if (r.detect_lat_us.size() > 1) {
      detect_lat.insert(detect_lat.end(), r.detect_lat_us.begin() + 1,
                        r.detect_lat_us.end());
    }
    slowdowns.push_back(r.slowdown);
  }
  // The traced and untraced shapes must agree on every count both take.
  if (traced_run) {
    PassCounts a = *first[0];
    PassCounts b = *first[1];
    b.parked_peak = 0;  // only the traced shape sees the buffer's contents
    deterministic = deterministic && a == b;
  }

  Report rep;
  const PassCounts& c = *first[traced_run ? 1 : 0];
  if (!traced_run) {
    // Raw per-pass figures: run.py pools them over several ingest
    // processes (process-to-process variation is the larger noise here).
    rep.fact("pass_ingest_eps", eps[0]);
    rep.fact("pass_event_lat_p50_us", lat_p50);
    rep.fact("pass_event_lat_p99_us", lat_p99);
    rep.fact("pass_setup_s", setup[0]);
    rep.fact("detect_lat_us", detect_lat);
    rep.fact("peak_rss_mb", rss_mb);
    rep.fact("slowdown", slowdowns);
  } else {
    const LayerTimes t = layer_times(tracer.spans());
    const double np = static_cast<double>(passes[1]);
    const double ev = static_cast<double>(c.events);
    double ingest_total = 0.0;
    for (double e : eps[1]) {
      ingest_total += ev / e;
    }
    auto per_pass = [&](Layer l) { return busy_of(t, l) / np; };
    auto share = [&](double busy) { return ratio(busy * np, ingest_total); };
    const double stream_busy = per_pass(Layer::kEventStream);
    const double queue_busy = per_pass(Layer::kQueueEngine);
    const double slice_busy = per_pass(Layer::kSlicing);
    // The hier root's whole engine: its own glue plus the reorder, queue
    // engine and aggregate spans nested in it (the emit row is the
    // daemon's, not the engine's, and stays out).
    const bool hier = base.engine == hpd::ckpt::EngineKind::kHier;
    const double hier_busy =
        hier ? per_pass(Layer::kHier) + per_pass(Layer::kReorder) +
                   queue_busy + per_pass(Layer::kAggregate)
             : 0.0;
    const double ckpt_encode = per_pass(Layer::kCkptEncode);
    const double ckpt_write = per_pass(Layer::kCkptWrite);
    rep.metric("ckpt.event_stream.busy_s", stream_busy, "s");
    rep.metric("ckpt.event_stream.ns_per_event", stream_busy / ev * 1e9, "ns");
    rep.metric("ckpt.event_stream.bytes_per_event",
               static_cast<double>(c.stream_bytes) /
                   std::stod(meta.at("events")),
               "B");
    rep.metric("ckpt.event_stream.share", share(stream_busy), "ratio");
    rep.metric("detect.queue_engine.busy_s", queue_busy, "s");
    rep.metric("detect.queue_engine.share", share(queue_busy), "ratio");
    rep.metric("detect.queue_engine.comparisons",
               static_cast<double>(c.comparisons), "count");
    rep.metric("detect.queue_engine.comparisons_per_event",
               static_cast<double>(c.comparisons) / ev, "count");
    rep.metric("detect.queue_engine.eliminated",
               static_cast<double>(c.eliminated), "count");
    rep.metric("detect.queue_engine.pruned", static_cast<double>(c.pruned),
               "count");
    rep.metric("detect.queue_engine.solutions",
               static_cast<double>(c.solutions), "count");
    rep.metric("detect.queue_engine.stored_peak",
               static_cast<double>(c.stored_peak), "count");
    rep.metric("detect.slicing.busy_s", slice_busy, "s");
    rep.metric("detect.slicing.share", share(slice_busy), "ratio");
    rep.metric("detect.slicing.slice_comparisons",
               static_cast<double>(c.slice_comparisons), "count");
    rep.metric("detect.slicing.admitted", static_cast<double>(c.admitted),
               "count");
    rep.metric("detect.slicing.discarded", static_cast<double>(c.discarded),
               "count");
    rep.metric("detect.slicing.admit_ratio",
               ratio(static_cast<double>(c.admitted),
                     static_cast<double>(c.admitted + c.discarded)),
               "ratio");
    rep.metric("core.hier_engine.busy_s", hier_busy, "s");
    rep.metric("core.hier_engine.share", share(hier_busy), "ratio");
    rep.metric("core.hier_engine.comparisons",
               hier ? static_cast<double>(c.comparisons) : 0.0, "count");
    rep.metric("core.hier_engine.detections_all",
               hier ? static_cast<double>(c.rows) : 0.0, "count");
    rep.metric("core.hier_engine.storage_peak_max",
               hier ? static_cast<double>(c.stored_peak) : 0.0, "count");
    rep.metric("detect.reorder.busy_s", per_pass(Layer::kReorder), "s");
    rep.metric("detect.reorder.parked_peak",
               static_cast<double>(c.parked_peak), "count");
    rep.metric("detect.reorder.dropped_stale",
               static_cast<double>(c.dropped_stale), "count");
    rep.metric("interval.aggregate.busy_s", per_pass(Layer::kAggregate), "s");
    rep.metric("interval.aggregate.calls",
               static_cast<double>(c.aggregate_calls), "count");
    rep.metric("interval.aggregate.fanin_mean",
               ratio(static_cast<double>(c.aggregate_members),
                     static_cast<double>(c.aggregate_calls)),
               "count");
    rep.metric("detect.emit.busy_s", per_pass(Layer::kEmit), "s");
    rep.metric("detect.emit.rows", static_cast<double>(c.rows), "count");
    rep.metric("detect.emit.bytes", static_cast<double>(c.row_bytes), "B");
    rep.metric("ckpt.checkpoint.encode_s", ckpt_encode, "s");
    rep.metric("ckpt.checkpoint.write_s", ckpt_write, "s");
    rep.metric("ckpt.checkpoint.share", share(ckpt_encode + ckpt_write),
               "ratio");
    rep.metric("ckpt.checkpoint.writes", static_cast<double>(c.ckpt_writes),
               "count");
    rep.metric("ckpt.checkpoint.fsyncs", static_cast<double>(c.ckpt_fsyncs),
               "count");
    rep.metric("ckpt.checkpoint.bytes_total",
               static_cast<double>(c.ckpt_bytes), "B");
    rep.metric("ckpt.checkpoint.bytes_per_write_max",
               static_cast<double>(c.ckpt_bytes_max), "B");
    rep.metric("ckpt.checkpoint.restore_s", per_pass(Layer::kCkptRestore),
               "s");
    rep.metric("bench.loop.self_s", t.loop_self / np, "s");
    rep.metric("trace.overhead_ratio", ratio(median(eps[0]), median(eps[1])),
               "ratio");
    rep.metric("trace.spans", static_cast<double>(tracer.spans().size()),
               "count");
    tracer.write_csv(dir + "/spans.csv");
  }
  rep.fact("passes_untraced", passes[0]);
  rep.fact("passes_traced", passes[1]);
  rep.fact("events_per_pass", static_cast<double>(c.events));
  rep.fact("traced_ingest_eps", median(eps[1]));
  rep.fact("untraced_ingest_eps", median(eps[0]));
  rep.fact("attempted", static_cast<double>(attempted));
  rep.fact("failed", static_cast<double>(failed));
  rep.fact("deterministic", deterministic ? 1.0 : 0.0);
  rep.fact("ckpt_writes", static_cast<double>(c.ckpt_writes));
  rep.fact("ckpt_bytes", static_cast<double>(c.ckpt_bytes));
  rep.fact("ckpt_fsyncs", static_cast<double>(c.ckpt_fsyncs));
  rep.fact("comparisons", static_cast<double>(c.comparisons));
  rep.fact("slice_comparisons", static_cast<double>(c.slice_comparisons));
  rep.fact("rows", static_cast<double>(c.rows));
  rep.print_json_line();
  return failed == 0 && deterministic ? 0 : 1;
}

}  // namespace bench
