#include "channel/pathset.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/complex_ops.h"
#include "dsp/simd_dispatch.h"

namespace bloc::chan {

using dsp::cplx;
using dsp::kSpeedOfLight;
using dsp::kTwoPi;

cplx PathSet::Evaluate(double freq_hz) const {
  cplx h{0.0, 0.0};
  for (const Path& p : paths) {
    const double phi = -kTwoPi * freq_hz * p.length_m / kSpeedOfLight;
    h += p.amplitude * dsp::Rotor(phi);
  }
  return h;
}

dsp::CVec PathSet::EvaluateComb(double f_start_hz, double f_step_hz,
                                std::size_t count) const {
  // Deliberately kept as the original serial rotor recurrence (one chain
  // per path): it is the reference EvaluateCombInto is tested against, and
  // the baseline the measurement simulator's reference kernels time.
  dsp::CVec out(count, cplx{0.0, 0.0});
  for (const Path& p : paths) {
    const double base_phi =
        -kTwoPi * f_start_hz * p.length_m / kSpeedOfLight;
    const double step_phi =
        -kTwoPi * f_step_hz * p.length_m / kSpeedOfLight;
    cplx rotor = p.amplitude * dsp::Rotor(base_phi);
    const cplx step = dsp::Rotor(step_phi);
    for (std::size_t k = 0; k < count; ++k) {
      out[k] += rotor;
      rotor *= step;
    }
  }
  return out;
}

void PathSet::EvaluateCombInto(double f_start_hz, double f_step_hz,
                               std::span<cplx> out) const {
  std::fill(out.begin(), out.end(), cplx{0.0, 0.0});
  // Per-path rotor set-up here, the comb itself in the dispatched kernel.
  // Batches are whole kernel chunks, so the chunk order (and the bits) do
  // not depend on the batch size.
  constexpr std::size_t kBatch = 8 * dsp::simd::kPathCombChunk;
  double base_re[kBatch], base_im[kBatch];
  double step_re[kBatch], step_im[kBatch], mag[kBatch];
  const dsp::simd::Kernels& kernels = dsp::simd::Active();
  for (std::size_t p0 = 0; p0 < paths.size(); p0 += kBatch) {
    const std::size_t m = std::min(kBatch, paths.size() - p0);
    for (std::size_t l = 0; l < m; ++l) {
      const Path& p = paths[p0 + l];
      const double base_phi =
          -kTwoPi * f_start_hz * p.length_m / kSpeedOfLight;
      const double step_phi =
          -kTwoPi * f_step_hz * p.length_m / kSpeedOfLight;
      base_re[l] = p.amplitude * std::cos(base_phi);
      base_im[l] = p.amplitude * std::sin(base_phi);
      step_re[l] = std::cos(step_phi);
      step_im[l] = std::sin(step_phi);
      mag[l] = std::abs(p.amplitude);
    }
    kernels.path_comb(base_re, base_im, step_re, step_im, mag, m,
                      reinterpret_cast<double*>(out.data()), out.size());
  }
}

double PathSet::ShortestLength() const {
  double best = std::numeric_limits<double>::infinity();
  for (const Path& p : paths) best = std::min(best, p.length_m);
  return best;
}

const Path* PathSet::Strongest() const {
  const Path* best = nullptr;
  for (const Path& p : paths) {
    if (best == nullptr || std::abs(p.amplitude) > std::abs(best->amplitude)) {
      best = &p;
    }
  }
  return best;
}

}  // namespace bloc::chan
