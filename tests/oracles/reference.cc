#include "oracles/reference.h"

#include <memory>
#include <vector>

#include "dsp/complex_ops.h"

namespace bloc::oracles {

using dsp::cplx;
using dsp::kSpeedOfLight;
using dsp::kTwoPi;

namespace {

/// sum_k alpha_jk e^{+j 2 pi f_k D / c} via base+step rotor walk.
cplx BandSum(const dsp::CVec& dense, const core::SpectraWorkspace& ws,
             double relative_d) {
  const double base_phi = kTwoPi * ws.comb_f0 * relative_d / kSpeedOfLight;
  const double step_phi = kTwoPi * ws.comb_step * relative_d / kSpeedOfLight;
  cplx rotor = dsp::Rotor(base_phi);
  const cplx step = dsp::Rotor(step_phi);
  cplx acc{0, 0};
  for (std::size_t k = 0; k < ws.comb_steps; ++k) {
    acc += dense[k] * rotor;
    rotor *= step;
  }
  return acc;
}

}  // namespace

void ReferenceJointLikelihoodMapInto(const core::SpectraInput& input,
                                     dsp::Grid2D& grid,
                                     core::SpectraWorkspace& ws) {
  const std::size_t antennas = core::detail::EffectiveAntennas(input);
  core::detail::BuildComb(input, antennas, ws);
  std::vector<geom::Vec2> ant_pos(antennas);
  for (std::size_t j = 0; j < antennas; ++j) {
    ant_pos[j] = input.geometry.AntennaPosition(j);
  }

  for (std::size_t row = 0; row < grid.rows(); ++row) {
    const double y = grid.YOf(row);
    for (std::size_t col = 0; col < grid.cols(); ++col) {
      const geom::Vec2 x{grid.XOf(col), y};
      const double d_ref = geom::Distance(x, input.master_ref_antenna);
      cplx acc{0, 0};
      for (std::size_t j = 0; j < antennas; ++j) {
        const double d = geom::Distance(x, ant_pos[j]);
        const double relative = d - d_ref - input.master_ref_distance;
        acc += BandSum(ws.dense[j], ws, relative);
      }
      grid.At(col, row) = std::abs(acc);
    }
  }
}

dsp::Grid2D ReferenceFusedMap(const core::Localizer& localizer,
                              const core::CorrectedChannels& corrected) {
  std::vector<std::size_t> order;
  localizer.FuseOrder(corrected, order);
  const dsp::GridSpec& spec = localizer.config().grid;
  dsp::Grid2D fused(spec);
  dsp::Grid2D map(spec);
  core::SpectraWorkspace ws;
  for (const std::size_t idx : order) {
    ReferenceJointLikelihoodMapInto(localizer.SpectraInputFor(corrected, idx),
                                    map, ws);
    map.NormalizePeak();
    fused.Add(map);
  }
  return fused;
}

core::LocationResult ReferenceLocate(const core::Localizer& localizer,
                                     const net::MeasurementRound& round) {
  core::RoundView view;
  if (!localizer.FilterInto(round, view)) return core::LocationResult{};
  core::CorrectedChannels corrected;
  localizer.CorrectInto(view, corrected);
  return localizer.ScoreFused(
      std::make_shared<dsp::Grid2D>(ReferenceFusedMap(localizer, corrected)),
      corrected);
}

}  // namespace bloc::oracles
