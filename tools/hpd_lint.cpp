// hpd_lint — dependency-free structural linter for project invariants.
//
// Walks `<root>/src` and enforces, as machine-checkable rules, the
// conventions the differential oracles and the layered build silently
// depend on (see docs/STATIC_ANALYSIS.md for each rule's rationale):
//
//   layering          include-layering DAG between src/ modules
//   determinism       no wall clocks / ambient randomness outside rt/
//   wire-endianness   host<->network byte-order calls only in wire/
//   raw-concurrency   no naked std primitives outside the annotated wrappers
//   hot-path-containers  no std::map/set/deque in vc/, interval/, detect/
//   reactor-nonblocking  no blocking calls inside src/rt/reactor/
//   simd-intrinsics   vendor SIMD headers only in src/vc/simd.*
//   todo-issue        TODO must carry an issue reference; FIXME is banned
//   pragma-once       every header starts its life with #pragma once
//   using-namespace   no `using namespace std`
//
// Findings print as `file:line: rule-id message` (paths relative to the
// root) and the exit code is 1 when any finding survives the allowlist,
// 0 on a clean tree, 2 on usage errors. Per-rule allowlists live in a
// rules file (default `tools/hpd_lint_rules.txt` under the root): each
// non-comment line is `rule-id path-prefix`.
//
// The linter is deliberately textual (no libclang): it blanks comments and
// string literals, then matches identifier-boundary tokens, which is exact
// enough for these rules and keeps the tool a single translation unit that
// builds everywhere the project builds.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;  // relative to root, forward slashes
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct AllowEntry {
  std::string rule;
  std::string path_prefix;
  mutable bool used = false;
};

// ---- Module layering DAG ----------------------------------------------------

// Allowed direct-include edges between src/ modules. A module may always
// include itself and anything listed here; everything else is a layering
// violation. Key invariants (ISSUE 3): vc/interval/core must not see sim,
// sim must not see rt (and vice versa — only the transport abstraction is
// shared), and mc may see everything.
const std::map<std::string, std::set<std::string>>& allowed_deps() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {}},
      {"vc", {"common"}},
      {"metrics", {"common"}},
      {"net", {"common"}},
      {"transport", {"common"}},
      {"parallel", {"common"}},
      {"interval", {"common", "vc"}},
      {"proto", {"common", "vc", "interval"}},
      {"wire", {"common", "vc", "interval", "proto"}},
      {"trace", {"common", "vc", "interval", "net"}},
      {"detect", {"common", "vc", "interval", "net", "trace"}},
      {"core", {"common", "vc", "interval", "net", "trace", "detect"}},
      {"ft", {"common", "vc", "interval", "proto"}},
      {"analysis", {"common", "vc", "interval", "metrics", "net", "trace"}},
      {"ckpt",
       {"common", "vc", "interval", "metrics", "proto", "trace", "net",
        "wire", "detect", "core", "ft"}},
      {"sim", {"common", "metrics", "transport"}},
      {"runner",
       {"common", "vc", "interval", "metrics", "net", "transport", "proto",
        "wire", "trace", "detect", "core", "ft", "sim", "ckpt"}},
      {"rt",
       {"common", "vc", "interval", "metrics", "net", "transport", "proto",
        "wire", "trace", "detect", "core", "ft", "parallel", "runner",
        "ckpt"}},
      {"mc",
       {"common", "vc", "interval", "metrics", "net", "transport", "proto",
        "wire", "trace", "detect", "core", "ft", "parallel", "runner", "sim",
        "rt", "ckpt"}},
  };
  return kAllowed;
}

// ---- Token tables -----------------------------------------------------------

struct TokenRule {
  const char* token;
  const char* message;
};

// Wall-clock and ambient-randomness entry points. Sim-side code must be
// bit-reproducible from (config, seed); only the live runtime (rt/) may
// consult real time. Randomness must flow through common/rng (seeded).
constexpr TokenRule kDeterminismTokens[] = {
    {"std::chrono::system_clock", "wall clock breaks sim determinism"},
    {"std::chrono::steady_clock", "wall clock breaks sim determinism"},
    {"std::chrono::high_resolution_clock",
     "wall clock breaks sim determinism"},
    {"std::random_device", "ambient entropy breaks seed determinism"},
    {"std::this_thread::sleep_for", "wall-clock sleep outside the runtime"},
    {"std::this_thread::sleep_until", "wall-clock sleep outside the runtime"},
    {"rand(", "unseeded libc randomness; use common/rng"},
    {"srand(", "unseeded libc randomness; use common/rng"},
    // Qualified forms only: bare `time(` / `clock(` collide with member
    // functions of the same name (e.g. AppCore::clock()).
    {"std::time(", "wall clock breaks sim determinism"},
    {"::time(", "wall clock breaks sim determinism"},
    {"std::clock(", "wall clock breaks sim determinism"},
    {"::clock(", "wall clock breaks sim determinism"},
    {"gettimeofday(", "wall clock breaks sim determinism"},
    {"localtime(", "wall clock breaks sim determinism"},
    {"gmtime(", "wall clock breaks sim determinism"},
};

// Host<->network byte-order conversions belong to the wire layer; protocol
// code must go through wire/codec so the oracles can decode what travelled.
constexpr TokenRule kEndianTokens[] = {
    {"htons(", "byte-order conversion outside wire/"},
    {"htonl(", "byte-order conversion outside wire/"},
    {"ntohs(", "byte-order conversion outside wire/"},
    {"ntohl(", "byte-order conversion outside wire/"},
    {"htobe16(", "byte-order conversion outside wire/"},
    {"htobe32(", "byte-order conversion outside wire/"},
    {"htobe64(", "byte-order conversion outside wire/"},
    {"be16toh(", "byte-order conversion outside wire/"},
    {"be32toh(", "byte-order conversion outside wire/"},
    {"be64toh(", "byte-order conversion outside wire/"},
};

// Naked std synchronization; the annotated wrappers in
// common/thread_annotations.hpp are the only sanctioned spelling, so the
// Clang Thread Safety Analysis sees every lock.
constexpr TokenRule kConcurrencyTokens[] = {
    {"std::mutex", "use hpd::Mutex (annotated)"},
    {"std::recursive_mutex", "use hpd::Mutex (annotated)"},
    {"std::timed_mutex", "use hpd::Mutex (annotated)"},
    {"std::shared_mutex", "use hpd::Mutex (annotated)"},
    {"std::condition_variable", "use hpd::CondVar (annotated)"},
    {"std::lock_guard", "use hpd::MutexLock (annotated)"},
    {"std::unique_lock", "use hpd::MutexLock (annotated)"},
    {"std::scoped_lock", "use hpd::MutexLock (annotated)"},
};

// Thread spawning is confined to the runtime and the sweep-level pool.
constexpr TokenRule kThreadTokens[] = {
    {"std::thread", "threads only in rt/ and parallel/"},
    {"std::jthread", "threads only in rt/ and parallel/"},
};

// The detection hot path (ISSUE 5) is flat: dense slot-indexed vectors,
// ring buffers, and bitmaps. Node-based / segmented std containers
// allocate per element and chase pointers per step, which is exactly what
// the allocation-free offer() work removed — new uses need an allowlist
// entry with a justification.
constexpr TokenRule kHotPathContainerTokens[] = {
    {"std::map<", "node-based container in a hot-path module; use dense "
                  "slot storage (see queue_engine.hpp)"},
    {"std::multimap<", "node-based container in a hot-path module; use "
                       "dense slot storage (see queue_engine.hpp)"},
    {"std::set<", "node-based container in a hot-path module; use a slot "
                  "bitmap (see queue_engine.hpp)"},
    {"std::multiset<", "node-based container in a hot-path module; use a "
                       "slot bitmap (see queue_engine.hpp)"},
    {"std::deque<", "segmented container in a hot-path module; use a ring "
                    "buffer (see queue_engine.hpp)"},
};

// Durable-state serialization is confined to src/ckpt (typed snapshot /
// checkpoint / event-stream codecs) over the primitives in src/wire.
// Everything else consumes the typed surface — a module hand-rolling a
// wire::Encoder invents a byte format the fuzzers and version-skew tests
// never see. The reliable-session protocol frames in rt/ are the one
// allowlisted exception (protocol messages, not durable state).
constexpr TokenRule kCkptSerializationTokens[] = {
    {"wire::Encoder", "byte-level encoding outside wire/ and ckpt/; add a "
                      "typed codec in src/ckpt instead"},
    {"wire::Decoder", "byte-level decoding outside wire/ and ckpt/; add a "
                      "typed codec in src/ckpt instead"},
    {"encode_checkpoint_file(", "the checkpoint container codec is private "
                                "to src/ckpt; use ckpt::CheckpointStore"},
    {"decode_checkpoint_file(", "the checkpoint container codec is private "
                                "to src/ckpt; use ckpt::CheckpointStore"},
    {"put_interval_full(", "the checkpoint interval codec is private to "
                           "src/ckpt"},
    {"get_interval_full(", "the checkpoint interval codec is private to "
                           "src/ckpt"},
};

// A reactor worker hosts hundreds of nodes on one thread; its only
// sanctioned block point is epoll_wait with a computed timeout. Any other
// blocking call stalls every node the worker owns, so the raw blocking
// syscalls and sleeps are banned under src/rt/reactor/ — the nonblocking
// helpers in rt/socket (read_some / write_some / accept_conn /
// connect_start) are the sanctioned spellings. ScaledClock::sleep_until is
// driver-side pacing, never called from a worker, and member calls are
// exempt from the token match anyway.
constexpr TokenRule kReactorBlockingTokens[] = {
    {"std::this_thread::sleep_for",
     "sleep stalls every node on this worker; schedule a timer-wheel entry"},
    {"std::this_thread::sleep_until",
     "sleep stalls every node on this worker; schedule a timer-wheel entry"},
    {"usleep(", "sleep stalls every node on this worker"},
    {"nanosleep(", "sleep stalls every node on this worker"},
    {"::sleep(", "sleep stalls every node on this worker"},
    {"::poll(", "blocking multiplex; epoll_wait is the only block point"},
    {"::ppoll(", "blocking multiplex; epoll_wait is the only block point"},
    {"::select(", "blocking multiplex; epoll_wait is the only block point"},
    {"::pselect(", "blocking multiplex; epoll_wait is the only block point"},
    {"::connect(", "blocking connect; use rt::connect_start/connect_finish"},
    {"::accept(", "use rt::accept_conn (nonblocking)"},
    {"::send(", "use rt::write_some (nonblocking, EINTR/EAGAIN-safe)"},
    {"::recv(", "use rt::read_some (nonblocking, EINTR/EAGAIN-safe)"},
};

// Vendor SIMD intrinsics headers are confined to the dispatch layer in
// src/vc/simd.* — everything else calls through the vc_simd::Kernels
// table, so exactly one translation unit decides CPU-feature questions
// and the portable/AVX2/NEON bit-identity contract stays testable in one
// place.
constexpr TokenRule kSimdIntrinsicsTokens[] = {
    {"<immintrin.h>", "vendor intrinsics outside src/vc/simd.*; use the "
                      "vc_simd::Kernels table"},
    {"<x86intrin.h>", "vendor intrinsics outside src/vc/simd.*; use the "
                      "vc_simd::Kernels table"},
    {"<emmintrin.h>", "vendor intrinsics outside src/vc/simd.*; use the "
                      "vc_simd::Kernels table"},
    {"<arm_neon.h>", "vendor intrinsics outside src/vc/simd.*; use the "
                     "vc_simd::Kernels table"},
};

// ---- Lexical helpers --------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Blank comment bodies and string/char literal contents (newlines kept, so
/// line numbers survive). Raw strings are handled; include directives are
/// matched on the raw text separately, so losing their quoted path is fine.
std::string strip_comments_and_strings(const std::string& in) {
  std::string out = in;
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw } st = St::kCode;
  std::string raw_delim;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for `R` plus an optional encoding prefix
          // (u8, u, U, L) starting at an identifier boundary — `LR"(...)"`
          // must not fall into the plain-string state, where the literal's
          // first unescaped quote would end it early and leak its tail.
          std::size_t r = i;
          bool raw = false;
          if (i >= 1 && out[i - 1] == 'R') {
            std::size_t pre = i - 1;
            if (pre >= 1 && (out[pre - 1] == 'u' || out[pre - 1] == 'U' ||
                             out[pre - 1] == 'L')) {
              pre -= 1;
            } else if (pre >= 2 && out[pre - 2] == 'u' && out[pre - 1] == '8') {
              pre -= 2;
            }
            if (pre == 0 || !ident_char(out[pre - 1])) {
              raw = true;
              r = i - 1;
            }
          }
          if (raw) {
            // Delimiter scan is bounded (the standard caps it at 16 chars)
            // and stops at newline/EOF instead of running off the file.
            std::size_t p = i + 1;
            raw_delim.clear();
            while (p < out.size() && out[p] != '(' && out[p] != '\n' &&
                   raw_delim.size() <= 16) {
              raw_delim += out[p++];
            }
            if (p < out.size() && out[p] == '(') {
              for (std::size_t k = r; k <= p; ++k) {
                out[k] = ' ';
              }
              i = p;
              st = St::kRaw;
            } else {
              st = St::kStr;  // `R"` not opening a raw string after all
            }
          } else {
            st = St::kStr;
          }
        } else if (c == '\'' && (i == 0 || !ident_char(out[i - 1]))) {
          // Identifier-boundary check keeps digit separators (1'000) intact.
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else if (c == '\\' && next == '\n') {
          // Backslash line-splice: to the compiler the comment continues on
          // the next physical line, so it must stay blanked here too. Keep
          // the newline itself — line numbers depend on it.
          out[i] = ' ';
          ++i;
        } else if (c == '\\' && next == '\r' && i + 2 < out.size() &&
                   out[i + 2] == '\n') {
          out[i] = out[i + 1] = ' ';
          i += 2;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && out[i + 1] != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && out[i + 1] != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRaw: {
        const std::string closer = ")" + raw_delim + "\"";
        if (out.compare(i, closer.size(), closer) == 0) {
          for (std::size_t k = i; k < i + closer.size(); ++k) {
            out[k] = ' ';
          }
          i += closer.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    lines.push_back(cur);
  }
  return lines;
}

/// Find `token` in `line` at an identifier boundary (the char before the
/// match must not be part of an identifier or a `.`/`>` member access —
/// `obj.time(` is a member call, not libc time()).
bool has_token(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const char before = pos == 0 ? '\0' : line[pos - 1];
    if (pos == 0 ||
        (!ident_char(before) && before != '.' && before != ':' &&
         before != '>')) {
      return true;
    }
    pos += 1;
  }
  return false;
}

// ---- Per-file checks --------------------------------------------------------

struct FileReport {
  std::vector<Finding> findings;
};

void add(FileReport& r, const std::string& file, std::size_t line,
         const char* rule, const std::string& msg) {
  r.findings.push_back({file, line, rule, msg});
}

void check_file(const fs::path& abs, const std::string& rel, FileReport& r) {
  std::ifstream in(abs, std::ios::binary);
  if (!in) {
    add(r, rel, 0, "io-error", "cannot read file");
    return;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string raw = buf.str();
  const std::vector<std::string> raw_lines = split_lines(raw);
  const std::vector<std::string> code_lines =
      split_lines(strip_comments_and_strings(raw));

  const bool is_header = rel.size() >= 4 && rel.ends_with(".hpp");
  // rel is "src/<module>/..."; callers only hand us files under src/.
  std::string module;
  {
    const std::size_t a = rel.find('/');
    const std::size_t b = rel.find('/', a + 1);
    if (a != std::string::npos && b != std::string::npos) {
      module = rel.substr(a + 1, b - a - 1);
    }
  }

  // pragma-once: headers must carry the guard.
  if (is_header) {
    // Checked on comment-stripped lines: prose merely *mentioning* the
    // directive must not count.
    const bool found = std::any_of(
        code_lines.begin(), code_lines.end(), [](const std::string& l) {
          return l.find("#pragma once") != std::string::npos;
        });
    if (!found) {
      add(r, rel, 1, "pragma-once", "header without #pragma once");
    }
  }

  const auto& deps = allowed_deps();
  const auto self = deps.find(module);

  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& rl = raw_lines[i];
    const std::string& cl = i < code_lines.size() ? code_lines[i] : rl;
    const std::size_t ln = i + 1;

    // layering: #include "other_module/..." must be an allowed edge.
    if (self != deps.end()) {
      const std::size_t q = rl.find("#include \"");
      if (q != std::string::npos) {
        const std::size_t start = q + 10;
        const std::size_t slash = rl.find('/', start);
        const std::size_t quote = rl.find('"', start);
        if (slash != std::string::npos && quote != std::string::npos &&
            slash < quote) {
          const std::string dep = rl.substr(start, slash - start);
          if (deps.count(dep) != 0 && dep != module &&
              self->second.count(dep) == 0) {
            add(r, rel, ln, "layering",
                "module '" + module + "' must not include '" + dep +
                    "/' (see the layering DAG in docs/STATIC_ANALYSIS.md)");
          }
        }
      }
    }

    // determinism: wall clocks / ambient randomness outside rt/.
    if (module != "rt") {
      for (const TokenRule& t : kDeterminismTokens) {
        if (has_token(cl, t.token)) {
          add(r, rel, ln,
              "determinism", std::string(t.token) + ": " + t.message);
        }
      }
    }

    // wire-endianness: byte-order conversions outside wire/.
    if (module != "wire") {
      for (const TokenRule& t : kEndianTokens) {
        if (has_token(cl, t.token)) {
          add(r, rel, ln,
              "wire-endianness", std::string(t.token) + ": " + t.message);
        }
      }
    }

    // raw-concurrency: naked std sync primitives anywhere; threads outside
    // rt/ and parallel/.
    for (const TokenRule& t : kConcurrencyTokens) {
      if (has_token(cl, t.token)) {
        add(r, rel, ln,
            "raw-concurrency", std::string(t.token) + ": " + t.message);
      }
    }
    if (module != "rt" && module != "parallel") {
      for (const TokenRule& t : kThreadTokens) {
        if (has_token(cl, t.token)) {
          add(r, rel, ln,
              "raw-concurrency", std::string(t.token) + ": " + t.message);
        }
      }
    }

    // hot-path-containers: node-based / segmented std containers stay out
    // of the allocation-free detection modules.
    if (module == "vc" || module == "interval" || module == "detect") {
      for (const TokenRule& t : kHotPathContainerTokens) {
        if (has_token(cl, t.token)) {
          add(r, rel, ln, "hot-path-containers",
              std::string(t.token) + ": " + t.message);
        }
      }
    }

    // ckpt-serialization: durable-state byte codecs stay in src/ckpt and
    // src/wire; everyone else goes through the typed encode_*/decode_*
    // surface or ckpt::CheckpointStore.
    if (module != "ckpt" && module != "wire") {
      for (const TokenRule& t : kCkptSerializationTokens) {
        if (has_token(cl, t.token)) {
          add(r, rel, ln, "ckpt-serialization",
              std::string(t.token) + ": " + t.message);
        }
      }
    }

    // reactor-nonblocking: the event-loop directory must stay free of
    // blocking syscalls and sleeps (epoll_wait is the one block point).
    if (rel.rfind("src/rt/reactor/", 0) == 0) {
      for (const TokenRule& t : kReactorBlockingTokens) {
        if (has_token(cl, t.token)) {
          add(r, rel, ln, "reactor-nonblocking",
              std::string(t.token) + ": " + t.message);
        }
      }
    }

    // simd-intrinsics: vendor SIMD headers stay behind the dispatch layer.
    if (rel != "src/vc/simd.hpp" && rel != "src/vc/simd.cpp") {
      for (const TokenRule& t : kSimdIntrinsicsTokens) {
        if (has_token(cl, t.token)) {
          add(r, rel, ln, "simd-intrinsics",
              std::string(t.token) + ": " + t.message);
        }
      }
    }

    // todo-issue: TODO must reference an issue; FIXME is banned outright.
    // (Checked on raw lines — these live in comments.)
    std::size_t tp = 0;
    while ((tp = rl.find("TODO", tp)) != std::string::npos) {
      const std::size_t after = tp + 4;
      const bool word_tail = after < rl.size() && ident_char(rl[after]);
      const bool boundary_ok = tp == 0 || !ident_char(rl[tp - 1]);
      if (!word_tail && boundary_ok &&
          (rl.compare(after, 2, "(#") != 0 || after + 2 >= rl.size() ||
           std::isdigit(static_cast<unsigned char>(rl[after + 2])) == 0)) {
        add(r, rel, ln, "todo-issue",
            "TODO without an issue reference; write TODO(#123)");
      }
      tp = after;
    }
    if (rl.find("FIXME") != std::string::npos) {
      add(r, rel, ln, "todo-issue", "FIXME marker; file an issue instead");
    }

    // using-namespace: never `using namespace std`.
    if (has_token(cl, "using namespace std")) {
      add(r, rel, ln, "using-namespace",
          "`using namespace std` pollutes every includer");
    }
  }
}

// ---- Driver -----------------------------------------------------------------

const std::set<std::string>& known_rule_ids() {
  static const std::set<std::string> kIds = {
      "layering",        "determinism",         "wire-endianness",
      "raw-concurrency", "hot-path-containers", "reactor-nonblocking",
      "todo-issue",      "pragma-once",         "using-namespace",
      "ckpt-serialization", "simd-intrinsics",
  };
  return kIds;
}

// A malformed line is a hard error (`err` set, caller exits 2): an entry
// that silently fails to parse — or names a rule that doesn't exist —
// would quietly stop suppressing, or worse, let a typo ship as if it
// suppressed something.
std::vector<AllowEntry> read_rules(const fs::path& file, std::string& err) {
  std::vector<AllowEntry> entries;
  std::ifstream in(file);
  if (!in) {
    err = "cannot read rules file " + file.string();
    return entries;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream is(line);
    AllowEntry e;
    std::string extra;
    if (!(is >> e.rule)) {
      continue;  // blank / comment-only line
    }
    if (!(is >> e.path_prefix) || (is >> extra)) {
      err = file.string() + ":" + std::to_string(lineno) +
            ": malformed allowlist line (want `rule-id path-prefix`)";
      return entries;
    }
    if (known_rule_ids().count(e.rule) == 0) {
      err = file.string() + ":" + std::to_string(lineno) +
            ": unknown rule-id `" + e.rule + "`";
      return entries;
    }
    entries.push_back(e);
  }
  return entries;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--rules FILE] [--strict] [--quiet]\n"
               "Lints DIR/src (default root: .). Allowlist: FILE lines of\n"
               "`rule-id path-prefix` (default: DIR/tools/hpd_lint_rules.txt\n"
               "when present). --strict also fails on unused allowlist\n"
               "entries. Exit 1 on findings, 2 on usage errors or a\n"
               "malformed rules file.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path rules_file;
  bool strict = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--rules" && i + 1 < argc) {
      rules_file = argv[++i];
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    std::cerr << "hpd_lint: no src/ under " << root << "\n";
    return 2;
  }

  std::vector<AllowEntry> allow;
  if (rules_file.empty()) {
    const fs::path dflt = root / "tools" / "hpd_lint_rules.txt";
    if (fs::exists(dflt)) {
      rules_file = dflt;
    }
  }
  if (!rules_file.empty()) {
    std::string err;
    allow = read_rules(rules_file, err);
    if (!err.empty()) {
      std::cerr << "hpd_lint: " << err << "\n";
      return 2;
    }
  }

  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  FileReport report;
  for (const fs::path& f : files) {
    const std::string rel =
        fs::relative(f, root).generic_string();
    check_file(f, rel, report);
  }

  std::vector<Finding> kept;
  for (const Finding& fd : report.findings) {
    const auto suppressed =
        std::any_of(allow.begin(), allow.end(), [&](const AllowEntry& e) {
          if (e.rule != fd.rule ||
              fd.file.compare(0, e.path_prefix.size(), e.path_prefix) != 0) {
            return false;
          }
          e.used = true;
          return true;
        });
    if (!suppressed) {
      kept.push_back(fd);
    }
  }

  for (const Finding& fd : kept) {
    std::cout << fd.file << ":" << fd.line << ": " << fd.rule << " "
              << fd.message << "\n";
  }
  std::size_t unused = 0;
  for (const AllowEntry& e : allow) {
    if (e.used) {
      continue;
    }
    ++unused;
    if (strict || !quiet) {
      std::cerr << "hpd_lint: " << (strict ? "error" : "note")
                << ": unused allowlist entry `" << e.rule << " "
                << e.path_prefix << "`\n";
    }
  }
  if (!quiet) {
    std::cerr << "hpd_lint: " << files.size() << " files, " << kept.size()
              << " finding(s)\n";
  }
  if (!kept.empty()) {
    return 1;
  }
  return strict && unused != 0 ? 1 : 0;
}
