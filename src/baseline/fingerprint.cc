#include "baseline/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bloc::baseline {

RssiFingerprint::RssiFingerprint(FingerprintConfig config)
    : config_(config) {
  if (config_.k == 0) {
    throw std::invalid_argument("RssiFingerprint: k must be positive");
  }
}

std::vector<double> RssiFingerprint::Feature(
    const net::MeasurementRound& round) {
  std::vector<std::pair<std::uint32_t, double>> per_anchor;
  for (const anchor::CsiReport& report : round.reports) {
    if (report.band_count() == 0) continue;
    double mean = 0.0;
    for (const anchor::BandMeasurement& b : report.bands()) mean += b.rssi_db;
    per_anchor.emplace_back(report.anchor_id,
                            mean / static_cast<double>(report.band_count()));
  }
  std::sort(per_anchor.begin(), per_anchor.end());
  std::vector<double> feature;
  feature.reserve(per_anchor.size());
  for (const auto& [id, rssi] : per_anchor) feature.push_back(rssi);
  return feature;
}

void RssiFingerprint::Train(const geom::Vec2& position,
                            const net::MeasurementRound& round) {
  entries_.push_back({position, Feature(round)});
}

geom::Vec2 RssiFingerprint::Locate(const net::MeasurementRound& round) const {
  if (entries_.empty()) {
    throw std::logic_error("RssiFingerprint::Locate: no training data");
  }
  const std::vector<double> query = Feature(round);

  std::vector<std::pair<double, std::size_t>> scored;  // (distance, entry)
  scored.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::vector<double>& f = entries_[i].feature;
    if (f.size() != query.size()) continue;  // survey/query anchor mismatch
    double d2 = 0.0;
    for (std::size_t j = 0; j < f.size(); ++j) {
      const double d = f[j] - query[j];
      d2 += d * d;
    }
    scored.emplace_back(std::sqrt(d2), i);
  }
  if (scored.empty()) {
    throw std::logic_error("RssiFingerprint::Locate: feature size mismatch");
  }
  const std::size_t k = std::min(config_.k, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(k),
                    scored.end());

  geom::Vec2 acc{0, 0};
  double wsum = 0.0;
  for (std::size_t n = 0; n < k; ++n) {
    const double w = 1.0 / (scored[n].first + 1e-3);
    acc = acc + entries_[scored[n].second].position * w;
    wsum += w;
  }
  return acc / wsum;
}

}  // namespace bloc::baseline
