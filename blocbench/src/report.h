// Run options, and the result a run prints and records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geom/vec2.h"
#include "trace.h"

namespace blocbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run record and the span dump (empty = none).
  std::string out_dir;
};

/// What one run measured.
class Result {
 public:
  /// Sets a metric (throws when the value is not finite). Names and units
  /// are declared in BENCHMARK.json; run.py checks the names against it.
  void Set(const std::string& name, double value);
  /// Adds a pre-rendered JSON value to the run record's "details".
  void Detail(const std::string& key, const std::string& json);
  /// Records a timing's sample count and highest supported percentile.
  void Samples(const std::string& metric, std::size_t samples);

  /// Counts one localized round; `ok` false marks it failed.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False on any output that differs from the serial reference.
  bool correct = true;
  /// Hash of the generated inputs (changes with --seed).
  std::string fingerprint;

  /// The result line: {"correct", "attempted", "failed", "metrics"}, with
  /// every metric the run set as name: value.
  std::string ResultLine() const;
  /// Writes the full run record (stamp, metrics, details) as JSON.
  void WriteRecord(const Options& options, const std::string& path) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> details_;
};

/// Derives the span-based per-layer metrics (stage timings, layer shares,
/// coverage) from a traced run's spans.
void LayerMetrics(const Trace& trace, Result& result);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// FNV-1a hash of the ground-truth positions of a generated input set.
std::string Fingerprint(const std::vector<bloc::geom::Vec2>& truths);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

std::string JsonNumber(double value);

}  // namespace blocbench
