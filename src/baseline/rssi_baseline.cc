#include "baseline/rssi_baseline.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace bloc::baseline {

RssiBaseline::RssiBaseline(core::Deployment deployment,
                           RssiBaselineConfig config)
    : deployment_(std::move(deployment)), config_(std::move(config)) {}

double RssiBaseline::RangeFromRssi(double rssi_db) const {
  const double exponent =
      (config_.rssi_at_1m_db - rssi_db) / (10.0 * config_.path_loss_exponent);
  return std::pow(10.0, exponent);
}

RssiResult RssiBaseline::Locate(const net::MeasurementRound& round) const {
  std::vector<geom::Vec2> positions;
  std::vector<double> ranges;
  for (const anchor::CsiReport& report : round.reports) {
    const core::AnchorPose* pose = deployment_.Find(report.anchor_id);
    if (pose == nullptr || report.band_count() == 0) continue;
    double mean_rssi = 0.0;
    for (const anchor::BandMeasurement& b : report.bands()) {
      mean_rssi += b.rssi_db;
    }
    mean_rssi /= static_cast<double>(report.band_count());
    positions.push_back(pose->geometry.Centroid());
    ranges.push_back(RangeFromRssi(mean_rssi));
  }
  if (positions.size() < 3) {
    throw std::invalid_argument("RssiBaseline: need >= 3 anchors");
  }

  // Grid search for the least-squares trilateration fit.
  const dsp::GridSpec& spec = config_.grid;
  geom::Vec2 best{spec.x_min, spec.y_min};
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t row = 0; row < spec.Rows(); ++row) {
    for (std::size_t col = 0; col < spec.Cols(); ++col) {
      const geom::Vec2 x{spec.XOf(col), spec.YOf(row)};
      double cost = 0.0;
      for (std::size_t i = 0; i < positions.size(); ++i) {
        const double r = geom::Distance(x, positions[i]) - ranges[i];
        cost += r * r;
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = x;
      }
    }
  }
  return {best, ranges};
}

}  // namespace bloc::baseline
