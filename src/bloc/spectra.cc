#include "bloc/spectra.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "bloc/steering_plan.h"
#include "dsp/complex_ops.h"

namespace bloc::core {

using dsp::cplx;
using dsp::kSpeedOfLight;
using dsp::kTwoPi;

namespace detail {

void BuildComb(const SpectraInput& input, std::size_t antennas,
               SpectraWorkspace& ws) {
  const auto& freqs = input.band_freqs_hz;
  if (freqs.empty()) throw std::invalid_argument("spectra: no bands");
  ws.comb_f0 = freqs.front();
  std::size_t max_k = 0;
  ws.k_of.resize(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double delta = freqs[i] - ws.comb_f0;
    if (delta < -1.0) throw std::invalid_argument("spectra: bands unsorted");
    const auto k = static_cast<std::size_t>(std::llround(delta / ws.comb_step));
    ws.k_of[i] = k;
    max_k = std::max(max_k, k);
  }
  ws.comb_steps = max_k + 1;
  ws.dense.resize(antennas);
  for (std::size_t j = 0; j < antennas; ++j) {
    ws.dense[j].assign(ws.comb_steps, cplx{0, 0});
    const dsp::CVec& alpha = input.channels->alpha[j];
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      ws.dense[j][ws.k_of[i]] = alpha[i];
    }
  }
}

std::size_t EffectiveAntennas(const SpectraInput& input) {
  const std::size_t all = input.channels->alpha.size();
  return input.max_antennas == 0 ? all : std::min(all, input.max_antennas);
}

}  // namespace detail

using detail::EffectiveAntennas;

dsp::Grid2D JointLikelihoodMap(const SpectraInput& input,
                               const dsp::GridSpec& spec) {
  dsp::Grid2D grid(spec);
  SpectraWorkspace ws;
  const SteeringPlan plan(MakeSteeringPlanKey(input, spec, ws.comb_step));
  JointLikelihoodMapInto(input, plan, grid, ws);
  return grid;
}

dsp::Grid2D AngleOnlyMap(const SpectraInput& input,
                         const dsp::GridSpec& spec) {
  const std::size_t antennas = EffectiveAntennas(input);
  const auto& freqs = input.band_freqs_hz;
  const double l = input.geometry.spacing_m;
  const geom::Vec2 origin = input.geometry.AntennaPosition(0);
  const geom::Vec2 axis{std::cos(input.geometry.axis_radians),
                        std::sin(input.geometry.axis_radians)};

  dsp::Grid2D grid(spec);
  for (std::size_t row = 0; row < grid.rows(); ++row) {
    const double y = grid.YOf(row);
    for (std::size_t col = 0; col < grid.cols(); ++col) {
      const geom::Vec2 u = (geom::Vec2{grid.XOf(col), y} - origin).Normalized();
      // See AoaBaseline: channel phase across antennas carries +u.axis, so
      // the compensating steering angle is negated.
      const double sin_theta = -u.Dot(axis);
      double p = 0.0;
      for (std::size_t k = 0; k < freqs.size(); ++k) {
        const double psi = kTwoPi * l * sin_theta * freqs[k] / kSpeedOfLight;
        const cplx step = dsp::Rotor(psi);
        cplx rotor{1, 0};
        cplx acc{0, 0};
        for (std::size_t j = 0; j < antennas; ++j) {
          acc += input.channels->alpha[j][k] * rotor;
          rotor *= step;
        }
        p += std::abs(acc);
      }
      grid.At(col, row) = p;
    }
  }
  return grid;
}

dsp::Grid2D DistanceOnlyMap(const SpectraInput& input,
                            const dsp::GridSpec& spec,
                            SteeringPlanCache* cache) {
  dsp::Grid2D grid(spec);
  SpectraWorkspace ws;
  if (cache != nullptr) {
    const auto plan = cache->GetOrBuild(input, spec, ws.comb_step);
    DistanceOnlyMapInto(input, *plan, grid, ws);
  } else {
    const SteeringPlan plan(MakeSteeringPlanKey(input, spec, ws.comb_step));
    DistanceOnlyMapInto(input, plan, grid, ws);
  }
  return grid;
}

dsp::RVec AngleSpectrum(std::span<const cplx> per_antenna, double freq_hz,
                        double spacing_m, std::span<const double> thetas) {
  dsp::RVec out;
  out.reserve(thetas.size());
  for (double theta : thetas) {
    const double psi =
        kTwoPi * spacing_m * std::sin(theta) * freq_hz / kSpeedOfLight;
    const cplx step = dsp::Rotor(psi);
    cplx rotor{1, 0};
    cplx acc{0, 0};
    for (const cplx& a : per_antenna) {
      acc += a * rotor;
      rotor *= step;
    }
    out.push_back(std::abs(acc));
  }
  return out;
}

}  // namespace bloc::core
