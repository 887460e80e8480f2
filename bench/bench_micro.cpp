// Microbenchmarks (google-benchmark) of the hot primitives: vector-clock
// comparison/merge/meet/join, interval overlap, aggregation, and the queue
// engine's offer path.
//
// The *Baseline kernels run the frozen pre-optimization implementations
// from tests/reference/ through the identical workload, so the committed
// BENCH_bench_micro_baseline.json snapshot is an honest same-harness
// pre-PR measurement (see docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench/gbench_json.hpp"
#include "common/rng.hpp"
#include "detect/queue_engine.hpp"
#include "interval/interval.hpp"
#include "reference/interval.hpp"
#include "reference/queue_engine.hpp"
#include "reference/vector_clock.hpp"
#include "vc/vector_clock.hpp"

namespace hpd {
namespace {

VectorClock random_clock(Rng& rng, std::size_t n) {
  VectorClock v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<ClockValue>(rng.uniform_int(0, 1000));
  }
  return v;
}

void BM_VcCompare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const VectorClock a = random_clock(rng, n);
  const VectorClock b = random_clock(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compare(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VcCompare)->RangeMultiplier(4)->Range(8, 4096)->Complexity();

void BM_VcMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  VectorClock a = random_clock(rng, n);
  const VectorClock b = random_clock(rng, n);
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VcMerge)->RangeMultiplier(4)->Range(8, 4096);

void BM_VcMeetJoin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const VectorClock a = random_clock(rng, n);
  const VectorClock b = random_clock(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(component_min(a, b));
    benchmark::DoNotOptimize(component_max(a, b));
  }
}
BENCHMARK(BM_VcMeetJoin)->RangeMultiplier(4)->Range(8, 4096);

reference::VectorClock to_reference_clock(const VectorClock& v) {
  reference::VectorClock out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = v[i];
  }
  return out;
}

// Frozen-seed twin of BM_VcMeetJoin (same seed, identical inputs) across
// the full width range: the perf-smoke same-run gate diffs the SIMD
// meet/join against this at every n, including 1024 and 4096.
void BM_VcMeetJoinBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const reference::VectorClock a = to_reference_clock(random_clock(rng, n));
  const reference::VectorClock b = to_reference_clock(random_clock(rng, n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::component_min(a, b));
    benchmark::DoNotOptimize(reference::component_max(a, b));
  }
}
BENCHMARK(BM_VcMeetJoinBaseline)->RangeMultiplier(4)->Range(8, 4096);

Interval random_interval(Rng& rng, std::size_t n, ProcessId origin,
                         SeqNum seq) {
  Interval x;
  x.lo = random_clock(rng, n);
  x.hi = x.lo;
  for (std::size_t i = 0; i < n; ++i) {
    x.hi[i] += static_cast<ClockValue>(rng.uniform_int(0, 50));
  }
  x.origin = origin;
  x.seq = seq;
  return x;
}

void BM_IntervalOverlap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const Interval a = random_interval(rng, n, 0, 1);
  const Interval b = random_interval(rng, n, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlap(a, b));
  }
}
BENCHMARK(BM_IntervalOverlap)->RangeMultiplier(4)->Range(8, 4096);

void BM_Aggregate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 8;  // intervals per aggregation (d + 1 heads)
  Rng rng(5);
  std::vector<Interval> xs;
  for (std::size_t i = 0; i < k; ++i) {
    xs.push_back(random_interval(rng, n, static_cast<ProcessId>(i), 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aggregate(std::span<const Interval>(xs), 99, 1));
  }
}
BENCHMARK(BM_Aggregate)->RangeMultiplier(4)->Range(8, 4096);

// Frozen-seed twin of BM_Aggregate (same seed and fan-in, identical
// inputs) for the same-run gate — reference::aggregate is the pre-SIMD
// Eqs. (5)/(6) combine.
void BM_AggregateBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 8;
  Rng rng(5);
  std::vector<reference::Interval> xs;
  for (std::size_t i = 0; i < k; ++i) {
    const Interval x = random_interval(rng, n, static_cast<ProcessId>(i), 1);
    reference::Interval rx;
    rx.lo = to_reference_clock(x.lo);
    rx.hi = to_reference_clock(x.hi);
    rx.origin = x.origin;
    rx.seq = x.seq;
    xs.push_back(std::move(rx));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::aggregate(
        std::span<const reference::Interval>(xs), 99, 1));
  }
}
BENCHMARK(BM_AggregateBaseline)->RangeMultiplier(4)->Range(8, 4096);

/// Full queue-engine round trip: d+1 queues fed one mutually-overlapping
/// interval each -> one solution detected and pruned per batch.
void BM_QueueEngineSolve(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 64;
  SeqNum round = 1;
  detect::QueueEngine engine;
  for (std::size_t q = 0; q <= d; ++q) {
    engine.add_queue(static_cast<ProcessId>(q));
  }
  for (auto _ : state) {
    // Construct one round of overlapping intervals: every lo is below every
    // hi (component-wise window [round*2, round*2+1]).
    for (std::size_t q = 0; q <= d; ++q) {
      Interval x;
      x.lo = VectorClock(n);
      x.hi = VectorClock(n);
      for (std::size_t i = 0; i < n; ++i) {
        x.lo[i] = static_cast<ClockValue>(round * 2);
        x.hi[i] = static_cast<ClockValue>(round * 2 + 1);
      }
      x.lo[q] -= 1;  // make the pairs strictly ordered
      x.hi[q] += 1;
      x.origin = static_cast<ProcessId>(q);
      x.seq = round;
      const auto sols = engine.offer(static_cast<ProcessId>(q), x);
      benchmark::DoNotOptimize(sols);
    }
    ++round;
  }
  state.counters["solutions"] =
      static_cast<double>(engine.solutions_found());
}
BENCHMARK(BM_QueueEngineSolve)->DenseRange(2, 10, 2);

// ---- Offer throughput: optimized engine vs frozen seed engine --------------

constexpr std::size_t kOfferQueues = 4;
constexpr std::size_t kOfferPool = 1024;  // intervals regenerated per refill
/// bench_e2e's pulse-wide shape: one queue per process (q = n = 341), so
/// the engine runs on block summaries. Narrower widths keep kOfferQueues.
constexpr std::size_t kWideOffer = 341;

std::size_t offer_queues(std::size_t n) {
  return n == kWideOffer ? n : kOfferQueues;
}

/// Rebuild the pool in place: per round, one interval per queue with
/// mutually overlapping windows (as in BM_QueueEngineSolve), so every
/// `queues`-th offer completes a round, detects one solution, and prunes
/// all heads — storage stays bounded. The pool holds whole rounds.
template <typename IntervalT, typename ClockT>
void refill_offer_pool(std::vector<IntervalT>& pool, std::size_t n,
                       std::size_t queues, SeqNum& round) {
  for (std::size_t j = 0; j < pool.size(); ++round) {
    for (std::size_t q = 0; q < queues; ++q, ++j) {
      IntervalT& x = pool[j];
      x.lo = ClockT(n);
      x.hi = ClockT(n);
      for (std::size_t i = 0; i < n; ++i) {
        x.lo[i] = static_cast<ClockValue>(round * 2);
        x.hi[i] = static_cast<ClockValue>(round * 2 + 1);
      }
      x.lo[q] -= 1;  // strictly ordered pairs
      x.hi[q] += 1;
      x.origin = static_cast<ProcessId>(q);
      x.seq = round;
    }
  }
}

/// Steady-state offer throughput at clock width n. One benchmark iteration
/// = one offer() (payload pre-built outside the timed region, as in the
/// real system where intervals arrive decoded off the wire) including its
/// share of detection, solution extraction, and pruning.
template <typename Engine, typename IntervalT, typename ClockT>
void offer_throughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t queues = offer_queues(n);
  Engine engine;
  for (std::size_t q = 0; q < queues; ++q) {
    engine.add_queue(static_cast<ProcessId>(q));
  }
  SeqNum round = 1;
  std::vector<IntervalT> pool((kOfferPool + queues - 1) / queues * queues);
  refill_offer_pool<IntervalT, ClockT>(pool, n, queues, round);
  std::size_t k = 0;
  for (auto _ : state) {
    if (k == pool.size()) {
      state.PauseTiming();
      refill_offer_pool<IntervalT, ClockT>(pool, n, queues, round);
      k = 0;
      state.ResumeTiming();
    }
    const ProcessId key = pool[k].origin;
    benchmark::DoNotOptimize(engine.offer(key, std::move(pool[k])));
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["solutions"] =
      static_cast<double>(engine.solutions_found());
}

void BM_OfferThroughput(benchmark::State& state) {
  offer_throughput<detect::QueueEngine, Interval, VectorClock>(state);
}
BENCHMARK(BM_OfferThroughput)->Arg(8)->Arg(64)->Arg(256)->Arg(kWideOffer);

void BM_OfferThroughputBaseline(benchmark::State& state) {
  offer_throughput<reference::detect::QueueEngine, reference::Interval,
                   reference::VectorClock>(state);
}
BENCHMARK(BM_OfferThroughputBaseline)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(kWideOffer);

// ---- Aggregate throughput: span ⊓ over a fan-in of 8 ----------------------

reference::Interval to_reference(const Interval& x) {
  reference::Interval out;
  out.lo = reference::VectorClock(x.lo.size());
  out.hi = reference::VectorClock(x.hi.size());
  for (std::size_t i = 0; i < x.lo.size(); ++i) {
    out.lo[i] = x.lo[i];
    out.hi[i] = x.hi[i];
  }
  out.origin = x.origin;
  out.seq = x.seq;
  out.weight = x.weight;
  return out;
}

std::vector<Interval> aggregate_inputs(std::size_t n) {
  Rng rng(6);
  std::vector<Interval> xs;
  for (std::size_t i = 0; i < 8; ++i) {  // d + 1 heads at fan-out 7
    xs.push_back(random_interval(rng, n, static_cast<ProcessId>(i), 1));
  }
  return xs;
}

void BM_AggregateThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<Interval> xs = aggregate_inputs(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aggregate(std::span<const Interval>(xs), 99, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AggregateThroughput)->Arg(8)->Arg(64)->Arg(256);

void BM_AggregateThroughputBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<reference::Interval> xs;
  for (const Interval& x : aggregate_inputs(n)) {  // identical inputs
    xs.push_back(to_reference(x));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::aggregate(
        std::span<const reference::Interval>(xs), 99, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AggregateThroughputBaseline)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace hpd

int main(int argc, char** argv) {
  return hpd::bench::gbench_json_main("bench_micro", argc, argv);
}
