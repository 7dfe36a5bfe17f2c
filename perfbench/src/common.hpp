#pragma once
// Small shared helpers: the clock, order statistics, and a micro-timer for
// the per-layer calls.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

constexpr double kMiB = 1024.0 * 1024.0;

/// Seconds on the steady clock (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process so far, MiB (getrusage).
double peak_rss_mb();

/// Median seconds per call of `f`: calls it once to warm up, sizes a round
/// to take at least `round_s`, then times `rounds` rounds.
template <class F>
double time_per_call_s(F&& f, int rounds = 7, double round_s = 2e-3) {
  f();
  int n = 1;
  for (;;) {
    const double t0 = now_s();
    for (int i = 0; i < n; ++i) f();
    const double dt = now_s() - t0;
    if (dt >= round_s || n >= (1 << 20)) break;
    n *= 2;
  }
  std::vector<double> per_call;
  per_call.reserve(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < n; ++i) f();
    per_call.push_back((now_s() - t0) / n);
  }
  return median(std::move(per_call));
}

}  // namespace perfbench
