// Shared helpers of the bench_e2e binary: command-line access, wall-clock
// timing, percentiles, the solution keys the correctness gate compares,
// and the one-line JSON report every mode prints last.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <time.h>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds this thread has run. Unlike wall time it leaves out the
/// time the thread waits while another thread, or another guest of the
/// host, holds its CPU.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// `--key value` pairs after the mode word.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string str(const std::string& key) const;  ///< required
  double num(const std::string& key, double dflt) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; sorts a copy.
double percentile(std::vector<double> xs, double q);

double median(std::vector<double> xs);

/// One detected solution as the oracle sees it: member (origin, seq)
/// pairs in queue-key order.
using SolutionKey = std::vector<std::pair<std::int32_t, std::uint64_t>>;

void write_solutions(const std::string& path,
                     const std::vector<SolutionKey>& sols);
std::vector<SolutionKey> read_solutions(const std::string& path);

/// key=value lines (workload meta written by `prepare`).
void write_kv(const std::string& path,
              const std::map<std::string, std::string>& kv);
std::map<std::string, std::string> read_kv(const std::string& path);

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

/// fsync(2) calls this process has made. In this binary fsync only counts
/// (see main.cpp), so checkpoint writes are timed without the disk.
std::uint64_t fsync_calls();

/// Ordered metric set; printed as {"name": {"value": v, "unit": u}, ...}.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// The machine-readable line run.py parses: the metrics plus free-form
/// integer/float/string facts (sample counts, check results).
struct Report {
  Metrics metrics;
  std::vector<std::pair<std::string, std::string>> facts;  ///< JSON text

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void fact(const std::string& name, double v);
  void fact(const std::string& name, const std::vector<double>& xs);
  void print_json_line() const;
};

}  // namespace bench
