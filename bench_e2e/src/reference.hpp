// The host-speed probe: a fixed piece of work, kept in this directory and
// independent of the detector's code, timed between intervals.
//
// The benchmark runs on a shared host whose speed changes by tens of
// percent from one millisecond to the next and drifts over minutes
// (neighbours on the same cores, all-core frequency, cache and memory
// contention). Timed alone, the daemon's figures track that drift more
// than the code. The probe does, in small measure, the kinds of work the
// daemon does: component-wise comparisons of wide vector clocks,
// delta-varint encoding with a table-driven CRC-32C, and copying bytes
// out. Its thread CPU time now, over its time on a quiet host
// (kQuietProbeS), is the local slowdown that each interval's times are
// divided by (daemon.cpp). A change to the detector cannot move the
// probe, so it moves the normalised figures in full.
#pragma once

#include <cstdint>
#include <vector>

namespace bench {

class Reference {
 public:
  /// Thread CPU seconds one probe takes on a quiet 4-core Xeon
  /// (Sapphire Rapids) KVM guest.
  static constexpr double kQuietProbeS = 30e-6;

  Reference();

  /// Runs the probe once; returns the host's slowdown now (1 on a quiet
  /// host, 1.3 when it runs 30% slower).
  double probe();

 private:
  std::vector<std::uint32_t> clocks_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint8_t> encoded_;
  std::vector<std::uint8_t> ring_;
  std::size_t ring_pos_ = 0;
  std::uint32_t table_[256];
  std::uint64_t next_ = 0;  ///< LCG state choosing clock pairs
  volatile std::uint64_t sink_ = 0;  ///< keeps the work observable
};

}  // namespace bench
