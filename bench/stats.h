// Repeated-measurement statistics for the bench binaries: run a workload K
// times after W discarded warmup passes and summarize the samples
// (mean / min / max / median / stddev), so reported numbers carry their own
// run-to-run noise instead of a single arbitrary draw.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "obs/json.h"

namespace bloc::bench {

/// Summary of K repeated samples of one measurement (e.g. rounds/sec).
struct Stats {
  std::size_t reps = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double stddev = 0.0;  // sample stddev (n-1); 0 with fewer than 2 reps

  static Stats Of(std::vector<double> samples) {
    Stats s;
    s.reps = samples.size();
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    s.min = samples.front();
    s.max = samples.back();
    const std::size_t n = samples.size();
    s.p50 = (n % 2 == 1) ? samples[n / 2]
                         : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    double sum = 0.0;
    for (const double v : samples) sum += v;
    s.mean = sum / static_cast<double>(n);
    if (n >= 2) {
      double sq = 0.0;
      for (const double v : samples) sq += (v - s.mean) * (v - s.mean);
      s.stddev = std::sqrt(sq / static_cast<double>(n - 1));
    }
    return s;
  }

  /// {"reps": .., "mean": .., "min": .., "max": .., "p50": .., "stddev": ..}
  obs::JsonValue ToJson() const {
    return obs::JsonValue::Object({{"reps", reps},
                                   {"mean", mean},
                                   {"min", min},
                                   {"max", max},
                                   {"p50", p50},
                                   {"stddev", stddev}});
  }
};

/// Runs `fn` (returning one double sample) `warmup` discarded times, then
/// `reps` measured times.
template <typename Fn>
Stats MeasureRepeated(std::size_t warmup, std::size_t reps, Fn&& fn) {
  for (std::size_t i = 0; i < warmup; ++i) (void)fn();
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) samples.push_back(fn());
  return Stats::Of(samples);
}

}  // namespace bloc::bench
