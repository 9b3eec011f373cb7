// In-memory spans recorded by the benchmark around its calls into the
// program, and the arithmetic the per-layer report is built from.
//
// A span is a named [start, end) interval with the index of the span that
// caused it; every span of one localization round carries the round's id.
// A span's layer is its name up to the first '.', so "bloc.filter" belongs
// to the bloc layer. Self time is a span's duration minus the part of that
// interval its children cover (overlapping children count once).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace blocbench {

struct Span {
  const char* name = "";  // a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t round = 0;
};

/// Monotonic clock every span and timestamp of the benchmark reads.
std::int64_t NowNs();

/// Spans of one run, kept in memory until the run ends. Single-threaded:
/// workloads that time work on several threads record plain timestamps
/// there and add the spans afterwards.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its index (-1 when disabled).
  std::int32_t Add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t round);
  /// Opens a span ending at the matching End (-1 when disabled).
  std::int32_t Begin(const char* name, std::int32_t parent,
                     std::uint64_t round);
  void End(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one CSV line per span: index,parent,round,name,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// The layer a span name belongs to: the text before the first '.'.
std::string_view LayerOf(std::string_view name);

/// Self time of every span, index-matched to `spans`.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Linear-interpolated percentile (0..100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double pct);

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it,
/// or "none" below 20 samples.
const char* SupportedPercentile(std::size_t samples);

}  // namespace blocbench
