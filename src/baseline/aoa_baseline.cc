#include "baseline/aoa_baseline.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "dsp/complex_ops.h"
#include "dsp/eig.h"

namespace bloc::baseline {

using dsp::cplx;
using dsp::kSpeedOfLight;
using dsp::kTwoPi;

AoaBaseline::AoaBaseline(core::Deployment deployment,
                         AoaBaselineConfig config)
    : deployment_(std::move(deployment)), config_(std::move(config)) {
  if (deployment_.anchors.empty()) {
    throw std::invalid_argument("AoaBaseline: no anchors");
  }
}

namespace {

struct BandVectors {
  std::vector<dsp::CVec> per_band;  // [band][antenna]
  std::vector<double> freqs;
};

BandVectors CollectBands(const anchor::CsiReport& report,
                         const AoaBaselineConfig& config,
                         std::size_t antennas) {
  BandVectors out;
  for (const anchor::BandMeasurement& b : report.bands()) {
    if (!config.allowed_channels.empty()) {
      const auto& ch = config.allowed_channels;
      if (std::find(ch.begin(), ch.end(), b.data_channel) == ch.end()) {
        continue;
      }
    }
    dsp::CVec v(b.tag_csi.begin(),
                b.tag_csi.begin() + static_cast<std::ptrdiff_t>(antennas));
    out.per_band.push_back(std::move(v));
    out.freqs.push_back(b.freq_hz);
  }
  return out;
}

std::size_t EffectiveAntennas(const anchor::CsiReport& report,
                              const AoaBaselineConfig& config) {
  const std::size_t all =
      report.band_count() == 0 ? 0 : report.band(0).tag_csi.size();
  const std::size_t n =
      config.max_antennas == 0 ? all : std::min(all, config.max_antennas);
  if (n == 0) {
    throw std::invalid_argument("AoaBaseline: report has no antennas");
  }
  return n;
}

/// Noise-subspace basis (columns) for MUSIC.
dsp::CMatrix NoiseSubspace(const BandVectors& bands, std::size_t antennas,
                           std::size_t sources) {
  dsp::CMatrix cov(antennas, antennas);
  for (const dsp::CVec& v : bands.per_band) {
    dsp::AccumulateOuter(cov, v);
  }
  const dsp::EigResult eig = dsp::HermitianEig(cov);
  const std::size_t noise_dims =
      antennas > sources ? antennas - sources : 1;
  dsp::CMatrix en(antennas, noise_dims);
  for (std::size_t c = 0; c < noise_dims; ++c) {
    for (std::size_t r = 0; r < antennas; ++r) {
      en.At(r, c) = eig.vectors.At(r, antennas - 1 - c);
    }
  }
  return en;
}

/// Spectrum value at sin_theta. The physical channel phase across antennas
/// is e^{+j 2 pi f l (u.axis) j / c} for a target direction u, so the
/// compensating steering for scan value s = u.axis is e^{-j 2 pi f l s j/c}.
double SpectrumAt(const BandVectors& bands, const dsp::CMatrix& noise,
                  const AoaBaselineConfig& config, std::size_t antennas,
                  double spacing, double mean_freq, double s) {
  if (config.method == AoaMethod::kBartlett) {
    double p = 0.0;
    for (std::size_t k = 0; k < bands.per_band.size(); ++k) {
      const double psi = kTwoPi * spacing * s * bands.freqs[k] / kSpeedOfLight;
      const cplx step = dsp::Rotor(-psi);
      cplx rotor{1, 0};
      cplx acc{0, 0};
      for (std::size_t j = 0; j < antennas; ++j) {
        acc += bands.per_band[k][j] * rotor;
        rotor *= step;
      }
      p += std::abs(acc);
    }
    return p;
  }
  // MUSIC at the mean band frequency: steering a_j = e^{+j psi j}.
  const double psi = kTwoPi * spacing * s * mean_freq / kSpeedOfLight;
  double denom = 0.0;
  for (std::size_t c = 0; c < noise.cols(); ++c) {
    cplx acc{0, 0};
    cplx rotor{1, 0};
    const cplx step = dsp::Rotor(psi);
    for (std::size_t j = 0; j < antennas; ++j) {
      acc += std::conj(noise.At(j, c)) * rotor;
      rotor *= step;
    }
    denom += std::norm(acc);
  }
  return 1.0 / std::max(denom, 1e-12);
}

}  // namespace

dsp::RVec AoaBaseline::BearingSpectrum(const anchor::CsiReport& report,
                                       const core::AnchorPose& pose) const {
  const std::size_t antennas = EffectiveAntennas(report, config_);
  const BandVectors bands = CollectBands(report, config_, antennas);
  if (bands.per_band.empty()) {
    throw std::invalid_argument("BearingSpectrum: no usable bands");
  }
  dsp::CMatrix noise;
  double mean_freq = 0.0;
  for (double f : bands.freqs) mean_freq += f;
  mean_freq /= static_cast<double>(bands.freqs.size());
  if (config_.method == AoaMethod::kMusic) {
    noise = NoiseSubspace(bands, antennas, config_.music_sources);
  }
  dsp::RVec spectrum(config_.bearing_bins, 0.0);
  for (std::size_t i = 0; i < config_.bearing_bins; ++i) {
    const double s = -1.0 + 2.0 * static_cast<double>(i) /
                                static_cast<double>(config_.bearing_bins - 1);
    spectrum[i] = SpectrumAt(bands, noise, config_, antennas,
                             pose.geometry.spacing_m, mean_freq, s);
  }
  return spectrum;
}

AnchorBearing AoaBaseline::Bearing(const anchor::CsiReport& report,
                                   const core::AnchorPose& pose) const {
  const dsp::RVec spectrum = BearingSpectrum(report, pose);
  const auto it = std::max_element(spectrum.begin(), spectrum.end());
  const auto idx = static_cast<std::size_t>(it - spectrum.begin());
  const double s = -1.0 + 2.0 * static_cast<double>(idx) /
                              static_cast<double>(config_.bearing_bins - 1);

  AnchorBearing bearing;
  bearing.anchor_id = report.anchor_id;
  bearing.sin_theta = s;
  bearing.strength = *it;
  bearing.origin = pose.geometry.Centroid();
  const geom::Vec2 axis{std::cos(pose.geometry.axis_radians),
                        std::sin(pose.geometry.axis_radians)};
  const geom::Vec2 boresight = pose.geometry.Boresight();
  const double cos_theta = std::sqrt(std::max(0.0, 1.0 - s * s));
  // Front-back ambiguity of a linear array resolved toward boresight.
  bearing.direction = (axis * s + boresight * cos_theta).Normalized();
  return bearing;
}

geom::Vec2 TriangulateBearings(const std::vector<AnchorBearing>& bearings) {
  if (bearings.empty()) {
    throw std::invalid_argument("TriangulateBearings: no bearings");
  }
  // Minimize sum_i w_i || (I - u_i u_i^T) (x - p_i) ||^2: a 2x2 solve.
  double a11 = 0, a12 = 0, a22 = 0, b1 = 0, b2 = 0;
  double wsum = 0;
  for (const AnchorBearing& br : bearings) {
    const double w = std::max(br.strength, 1e-12);
    const geom::Vec2 u = br.direction;
    const double m11 = w * (1.0 - u.x * u.x);
    const double m12 = w * (-u.x * u.y);
    const double m22 = w * (1.0 - u.y * u.y);
    a11 += m11;
    a12 += m12;
    a22 += m22;
    b1 += m11 * br.origin.x + m12 * br.origin.y;
    b2 += m12 * br.origin.x + m22 * br.origin.y;
    wsum += w;
  }
  const double det = a11 * a22 - a12 * a12;
  if (std::abs(det) < 1e-9 * wsum * wsum) {
    geom::Vec2 centroid{0, 0};
    for (const AnchorBearing& br : bearings) centroid = centroid + br.origin;
    return centroid / static_cast<double>(bearings.size());
  }
  return {(b1 * a22 - b2 * a12) / det, (a11 * b2 - a12 * b1) / det};
}

dsp::Grid2D AoaBaseline::AnchorBearingMap(const anchor::CsiReport& report,
                                          const core::AnchorPose& pose) const {
  const std::size_t antennas = EffectiveAntennas(report, config_);
  const BandVectors bands = CollectBands(report, config_, antennas);
  if (bands.per_band.empty()) {
    throw std::invalid_argument("AnchorBearingMap: no usable bands");
  }
  dsp::CMatrix noise;
  double mean_freq = 0.0;
  for (double f : bands.freqs) mean_freq += f;
  mean_freq /= static_cast<double>(bands.freqs.size());
  if (config_.method == AoaMethod::kMusic) {
    noise = NoiseSubspace(bands, antennas, config_.music_sources);
  }
  const geom::Vec2 origin = pose.geometry.AntennaPosition(0);
  const geom::Vec2 axis{std::cos(pose.geometry.axis_radians),
                        std::sin(pose.geometry.axis_radians)};

  dsp::Grid2D grid(config_.grid);
  for (std::size_t row = 0; row < grid.rows(); ++row) {
    const double y = grid.YOf(row);
    for (std::size_t col = 0; col < grid.cols(); ++col) {
      const geom::Vec2 u =
          (geom::Vec2{grid.XOf(col), y} - origin).Normalized();
      grid.At(col, row) =
          SpectrumAt(bands, noise, config_, antennas, pose.geometry.spacing_m,
                     mean_freq, u.Dot(axis));
    }
  }
  grid.NormalizePeak();
  return grid;
}

AoaResult AoaBaseline::Locate(const net::MeasurementRound& round) const {
  std::vector<const anchor::CsiReport*> usable;
  for (const anchor::CsiReport& report : round.reports) {
    if (!config_.allowed_anchors.empty()) {
      const auto& allowed = config_.allowed_anchors;
      if (std::find(allowed.begin(), allowed.end(), report.anchor_id) ==
          allowed.end()) {
        continue;
      }
    }
    if (deployment_.Find(report.anchor_id) != nullptr) {
      usable.push_back(&report);
    }
  }
  if (usable.empty()) {
    throw std::invalid_argument("AoaBaseline::Locate: no usable anchors");
  }

  AoaResult result;
  if (config_.combining == AoaCombining::kPeakTriangulation) {
    for (const anchor::CsiReport* report : usable) {
      result.bearings.push_back(
          Bearing(*report, *deployment_.Find(report->anchor_id)));
    }
    result.position = TriangulateBearings(result.bearings);
    // Clamp into the search region (a reflected bearing consensus can put
    // the intersection outside the room).
    result.position.x =
        std::clamp(result.position.x, config_.grid.x_min, config_.grid.x_max);
    result.position.y =
        std::clamp(result.position.y, config_.grid.y_min, config_.grid.y_max);
    return result;
  }

  dsp::Grid2D fused(config_.grid);
  for (const anchor::CsiReport* report : usable) {
    fused.Add(AnchorBearingMap(*report, *deployment_.Find(report->anchor_id)));
  }
  const auto cell = fused.ArgMax();
  result.position = {fused.XOf(cell.col), fused.YOf(cell.row)};
  if (config_.keep_map) {
    result.fused_map = std::make_shared<dsp::Grid2D>(std::move(fused));
  }
  return result;
}

}  // namespace bloc::baseline
