#include "obs/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/json.h"

namespace bloc::obs {

namespace {

std::string FmtDouble(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << v;
  return os.str();
}

/// Minimal aligned table (obs sits below eval, so it brings its own).
void PrintAligned(std::ostream& os, const std::vector<std::string>& header,
                  const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) {
    widths[c] = header[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    os << "  ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
         << row[c];
    }
    os << "\n";
  };
  print_row(header);
  for (const auto& row : rows) print_row(row);
}

}  // namespace

RunReport RunReport::Capture() {
  RunReport report;
  report.metrics = MetricsRegistry::Global().Snapshot();
  return report;
}

void RunReport::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject().Key("counters").BeginObject();
  for (const CounterSnapshot& c : metrics.counters) w.Field(c.name, c.value);
  w.EndObject().Key("gauges").BeginObject();
  for (const GaugeSnapshot& g : metrics.gauges) {
    w.Key(g.name).BeginObject().Field("value", g.value).Field("max", g.max);
    w.EndObject();
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const HistogramSnapshot& h : metrics.histograms) {
    w.Key(h.name).BeginObject().Field("count", h.count).Field("sum", h.sum);
    w.Field("max", h.max).Field("p50", h.p50).Field("p95", h.p95);
    w.Field("p99", h.p99).EndObject();
  }
  w.EndObject().EndObject();
  os << "\n";
}

bool RunReport::WriteJsonFile(const std::string& path) const {
  return obs::WriteJsonFile(path, [this](std::ostream& os) { WriteJson(os); });
}

void RunReport::PrintTable(std::ostream& os) const {
  os << "=== run report ===\n";
  if (!metrics.counters.empty()) {
    os << "counters:\n";
    std::vector<std::vector<std::string>> rows;
    for (const CounterSnapshot& c : metrics.counters) {
      if (c.value == 0) continue;  // registered but untouched: noise
      rows.push_back({c.name, std::to_string(c.value)});
    }
    PrintAligned(os, {"name", "value"}, rows);
  }
  if (!metrics.gauges.empty()) {
    os << "gauges:\n";
    std::vector<std::vector<std::string>> rows;
    for (const GaugeSnapshot& g : metrics.gauges) {
      rows.push_back(
          {g.name, std::to_string(g.value), std::to_string(g.max)});
    }
    PrintAligned(os, {"name", "value", "max"}, rows);
  }
  if (!metrics.histograms.empty()) {
    os << "histograms:\n";
    std::vector<std::vector<std::string>> rows;
    for (const HistogramSnapshot& h : metrics.histograms) {
      if (h.count == 0) continue;
      rows.push_back({h.name, std::to_string(h.count), FmtDouble(h.p50),
                      FmtDouble(h.p95), FmtDouble(h.p99),
                      std::to_string(h.max)});
    }
    PrintAligned(os, {"name", "count", "p50", "p95", "p99", "max"}, rows);
  }
}

}  // namespace bloc::obs
