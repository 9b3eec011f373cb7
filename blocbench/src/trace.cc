#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace blocbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Trace::Add(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::int32_t parent,
                        std::uint64_t round) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, round});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t Trace::Begin(const char* name, std::int32_t parent,
                          std::uint64_t round) {
  const std::int64_t now = NowNs();
  return Add(name, now, now, parent, round);
}

void Trace::End(std::int32_t index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
}

bool Trace::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  out << "index,parent,round,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.round << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::string_view LayerOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(
        static_cast<std::int32_t>(i));
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::int32_t c : children[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(k.start_ns, s.start_ns);
      const std::int64_t b = std::min(k.end_ns, s.end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      pct / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

const char* SupportedPercentile(std::size_t samples) {
  if (samples >= 10000) return "p99.9";
  if (samples >= 1000) return "p99";
  if (samples >= 100) return "p90";
  if (samples >= 20) return "p50";
  return "none";
}

}  // namespace blocbench
