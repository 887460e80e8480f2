// bench_e2e: end-to-end and per-layer benchmark of the hpd detector.
//
//   bench_e2e prepare --workload W --seed S --dir D
//       generate the seeded event stream, the offline-oracle solution list
//       and (gossip-ckpt) the mid-stream checkpoint the daemon restarts
//       from, in their own process so stream generation never sets the
//       ingest process's peak RSS.
//   bench_e2e ingest --dir D --seconds T --trace 0|1
//       drive the stream through the daemon's library calls, pass after
//       pass, until T seconds have been measured.
//
// Each mode prints one JSON line last; bench_e2e/run.py drives the modes,
// runs the fidelity cross-check against hpd_sim and formats the result.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.hpp"
#include "modes.hpp"

namespace bench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument '" + key + "'");
    }
    kv_[key.substr(2)] = argv[++i];
  }
}

std::string Args::str(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) {
    throw std::runtime_error("missing --" + key);
  }
  return it->second;
}

double Args::num(const std::string& key, double dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : std::stod(it->second);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

void write_solutions(const std::string& path,
                     const std::vector<SolutionKey>& sols) {
  std::ofstream out(path, std::ios::trunc);
  for (const SolutionKey& s : sols) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      out << (i == 0 ? "" : " ") << s[i].first << ':' << s[i].second;
    }
    out << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::vector<SolutionKey> read_solutions(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<SolutionKey> sols;
  std::string line;
  while (std::getline(in, line)) {
    SolutionKey s;
    std::istringstream ls(line);
    std::string tok;
    while (ls >> tok) {
      const auto colon = tok.find(':');
      s.emplace_back(static_cast<std::int32_t>(std::stol(tok.substr(0, colon))),
                     std::stoull(tok.substr(colon + 1)));
    }
    sols.push_back(std::move(s));
  }
  return sols;
}

void write_kv(const std::string& path,
              const std::map<std::string, std::string>& kv) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [k, v] : kv) {
    out << k << '=' << v << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::map<std::string, std::string> read_kv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) {
      kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  return kv;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's footprint whenever that one is larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {
std::atomic<std::uint64_t> g_fsyncs{0};
}  // namespace

std::uint64_t fsync_calls() { return g_fsyncs.load(); }

}  // namespace bench

// CheckpointStore::write publishes each generation with four fsync calls.
// Timed on a disk, gossip-ckpt measured the host's disk queue more than
// the detector, and a memory-backed work directory is not an option: the
// benchmark writes only inside its checkout. So this executable defines
// fsync itself, which the linker binds ahead of libc's for every call in
// the process: it counts and returns. Encoding, the write(2) calls, the
// renames and the manifest stay measured, as on tmpfs. The hpd_sim used
// for the fidelity check keeps the real fsync.
extern "C" int fsync(int /*fd*/) {
  bench::g_fsyncs.fetch_add(1);
  return 0;
}

namespace bench {
namespace {
std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}
}  // namespace

void Report::fact(const std::string& name, double v) {
  facts.emplace_back(name, json_number(v));
}

void Report::fact(const std::string& name, const std::vector<double>& xs) {
  std::string a = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    a += (i == 0 ? "" : ", ") + json_number(xs[i]);
  }
  facts.emplace_back(name, a + "]");
}

void Report::print_json_line() const {
  std::ostringstream os;
  os << "{\"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].first
       << "\": {\"value\": " << json_number(metrics[i].second.value)
       << ", \"unit\": \"" << metrics[i].second.unit << "\"}";
  }
  os << "}";
  for (const auto& [k, v] : facts) {
    os << ", \"" << k << "\": " << v;
  }
  os << "}\n";
  std::cout << os.str() << std::flush;
}

}  // namespace bench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: bench_e2e prepare|ingest --key value ...\n";
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const bench::Args args(argc, argv, 2);
    if (mode == "prepare") {
      return bench::run_prepare(args);
    }
    if (mode == "ingest") {
      return bench::run_ingest(args);
    }
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e " << mode << ": " << e.what() << "\n";
    return 1;
  }
}
