// Scaled wall clock of the live runtime: one SimTime unit is `scale` real
// seconds on std::chrono::steady_clock. The reactor (rt/reactor) measures
// protocol time through this one translation so its chaos windows, timer
// deadlines and recorded fault instants agree by construction.
//
// sleep_until() lives here (and not in the reactor sources) on purpose: it
// is a *driver-thread* facility — worker threads inside src/rt/reactor/ are
// forbidden to block (see the reactor-nonblocking lint rule).
#pragma once

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/types.hpp"

namespace hpd::rt {

class ScaledClock {
 public:
  using Clock = std::chrono::steady_clock;

  ScaledClock() : start_(Clock::now()) {}

  /// Re-anchor SimTime 0 at `t0` with `scale` real seconds per unit.
  void reset(Clock::time_point t0, double scale) {
    start_ = t0;
    scale_ = scale;
  }

  Clock::time_point start() const { return start_; }

  /// SimTime units elapsed since the anchor. Any thread.
  SimTime now() const {
    const std::chrono::duration<double> el = Clock::now() - start_;
    return el.count() / scale_;
  }

  /// A SimTime duration as a real steady-clock duration (clamped at 0).
  Clock::duration to_real(SimTime d) const {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(std::max(0.0, d) * scale_));
  }

  /// The real instant at which SimTime `t` arrives.
  Clock::time_point at(SimTime t) const { return start_ + to_real(t); }

  /// Block the calling (driver) thread until now() >= t.
  void sleep_until(SimTime t) const { std::this_thread::sleep_until(at(t)); }

 private:
  Clock::time_point start_;
  double scale_ = 0.02;
};

}  // namespace hpd::rt
