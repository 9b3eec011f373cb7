// Test oracles: reference implementations the production pipeline is
// checked against. Nothing here ships in the library; the parity tests and
// bench_perf's kernel comparison link it as bloc_oracles.
//
// The reference Eq. 17 kernel recomputes every distance and rotor per cell
// (sqrt + sincos per antenna and cell), which is what the steering-plan
// kernel (bloc/steering_plan.h) precomputes. ReferenceLocate runs one
// round through the Localizer's public stages with that kernel in place of
// the plan kernel and the search: every anchor map exhaustive, normalized
// to its peak and fused in ascending anchor id.
#pragma once

#include "bloc/localizer.h"
#include "bloc/spectra.h"
#include "dsp/grid2d.h"
#include "net/collector.h"

namespace bloc::oracles {

/// Eq. 17 per cell: overwrites every cell of `grid` (whose spec defines
/// the evaluation points) using `ws` for the band comb. Matches
/// core::JointLikelihoodMap over the same spec to < 1e-9.
void ReferenceJointLikelihoodMapInto(const core::SpectraInput& input,
                                     dsp::Grid2D& grid,
                                     core::SpectraWorkspace& ws);

/// The fused map of an already-corrected round under `localizer`'s
/// deployment and config, every anchor map from the reference kernel.
dsp::Grid2D ReferenceFusedMap(const core::Localizer& localizer,
                              const core::CorrectedChannels& corrected);

/// Localizer::Locate rebuilt from the public stages (FilterInto,
/// CorrectInto, FuseOrder, SpectraInputFor, NormalizePeak, ScoreFused) on
/// the reference kernel. Returns the same sentinel as Locate when the
/// filter leaves nothing usable.
core::LocationResult ReferenceLocate(const core::Localizer& localizer,
                                     const net::MeasurementRound& round);

}  // namespace bloc::oracles
