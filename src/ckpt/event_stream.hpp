// Durable interval-event streams: the input format of hpd_sim --daemon.
//
// A stream file is the ingestion schedule of a detector sink, one interval
// per event, in arrival order:
//
//   magic    "HPDEVTS1" (8 bytes, raw)
//   frames   wire/frame framing (varint length + payload + CRC-32C)
//     HEADER  u8 0x00, varint stream format version (1), varint process
//             count (at most kMaxStreamProcesses) — always the first frame
//     EVENT   u8 0x01 + interval (wire codec + completed_at)
//     END     u8 0xFF, empty — the producer finished; a reader that hits
//             EOF without END in non-follow mode reports truncation
//
// The writer flushes after every append so a tailing reader (--follow)
// sees events as they land and a killed producer leaves at worst one
// partial frame, which the CRC framing detects. Unknown tags between
// HEADER and END are skipped (CRC-checked), mirroring the checkpoint
// container's forward-compatibility rule.
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "interval/interval.hpp"
#include "wire/frame.hpp"

namespace hpd::ckpt {

/// Current event-stream format version (HEADER frame).
inline constexpr std::uint32_t kStreamVersion = 1;

/// Largest process count a HEADER may declare. Every engine sets up one
/// queue per process before the first event, so an unchecked count from a
/// header-only file could ask for terabytes. The bound stays above the 10^5
/// processes a star set-up must handle and inside ProcessId's range.
inline constexpr std::uint64_t kMaxStreamProcesses = std::uint64_t{1} << 20;
static_assert(kMaxStreamProcesses <=
              static_cast<std::uint64_t>(std::numeric_limits<ProcessId>::max()));

class EventStreamWriter {
 public:
  /// Truncates `path` and writes the magic + HEADER frame immediately.
  /// Throws CkptError when the file cannot be created.
  EventStreamWriter(const std::string& path, std::size_t num_processes);

  /// Append one EVENT frame and flush it to the OS.
  void append(const Interval& x);

  /// Append the END frame and flush. Idempotent.
  void finish();

  std::uint64_t events_written() const { return events_; }

 private:
  void write_frame(const std::vector<std::uint8_t>& payload);

  std::ofstream out_;
  std::string path_;
  std::uint64_t events_ = 0;
  bool finished_ = false;
};

/// Incremental, tail-capable reader. next() never blocks: it reads whatever
/// bytes the file currently holds and reports kWait when no complete frame
/// is available yet, so a --follow daemon can interleave polling with
/// signal checks. Corruption (bad magic, CRC mismatch, malformed frame)
/// throws CkptError — a stream that lost sync is never silently resumed.
class EventStreamReader {
 public:
  enum class Status {
    kEvent,  ///< `out` holds the next interval
    kEnd,    ///< END frame seen; the stream is complete
    kWait,   ///< no complete frame buffered (EOF for now, or mid-frame)
  };

  /// Throws CkptError when `path` cannot be opened.
  explicit EventStreamReader(const std::string& path);

  /// Advance: consumes the HEADER frame transparently (see have_header()).
  Status next(Interval& out);

  /// True once the HEADER frame has been consumed; num_processes() is only
  /// meaningful afterwards.
  bool have_header() const { return have_header_; }
  std::size_t num_processes() const { return num_processes_; }

  std::uint64_t events_read() const { return events_; }

 private:
  /// Pull newly appended file bytes into the frame reader. Returns true if
  /// any arrived.
  bool fill();

  std::ifstream in_;
  std::string path_;
  wire::FrameReader frames_;
  bool checked_magic_ = false;
  std::size_t magic_seen_ = 0;  ///< verified magic prefix length
  bool have_header_ = false;
  bool saw_end_ = false;
  std::size_t num_processes_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace hpd::ckpt
