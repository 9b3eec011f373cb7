// Likelihood maps over 2-D space from corrected channels (paper §5.3).
//
// JointLikelihoodMap implements Eq. 17 mapped onto Cartesian coordinates:
// P_i(x) = | sum_j sum_k alpha_ij^{f_k} e^{+j 2 pi f_k / c * D_ij(x)} | with
// D_ij(x) = |x - a_ij| - |x - m_00| - d_i0, where a_ij is antenna j of
// anchor i and m_00 is antenna 0 of the master. Angle-only (Eq. 15) and
// distance-only (Eq. 16) maps are provided for analysis and the Fig. 6
// illustrations.
//
// Eq. 17 runs on the steering-plan kernel (bloc/steering_plan.h): per-cell
// distances and rotors are read from a precomputed SteeringPlan, so the
// steady-state work is a vectorized complex MAC. The per-cell reference
// kernel it replaced lives on as a test oracle (tests/oracles), which the
// parity tests pin the plan kernel against.
#pragma once

#include <span>

#include "anchor/array.h"
#include "bloc/corrected_channel.h"
#include "dsp/aligned.h"
#include "dsp/grid2d.h"
#include "geom/vec2.h"

namespace bloc::core {

class SteeringPlan;
class SteeringPlanCache;

struct SpectraInput {
  /// Corrected channels of one anchor: alpha[antenna][band].
  const AnchorCorrected* channels = nullptr;
  anchor::ArrayGeometry geometry;
  /// Antenna 0 of the master anchor (relative-distance reference).
  geom::Vec2 master_ref_antenna;
  /// d_i0^00 from deployment calibration (0 for the master anchor).
  double master_ref_distance = 0.0;
  std::span<const double> band_freqs_hz;
  /// Use only the first `max_antennas` antennas (0 = all).
  std::size_t max_antennas = 0;
};

/// How the likelihood surface is searched for the position estimate.
enum class SearchMode {
  /// Evaluate every cell of every anchor map at full resolution. The fused
  /// map is exact everywhere and the peak list complete — what keep_map
  /// users and the shortest-distance scorer (Fig. 12) read.
  kExhaustive,
  /// Hierarchical coarse-to-fine: evaluate a strided coarse level, bound
  /// each block from its coarse neighborhood, refine only the blocks that
  /// can still matter for peak selection (DESIGN.md §5e). Selected
  /// positions are bit-identical to exhaustive as long as the block bounds
  /// hold; violated bounds trigger an automatic exhaustive fallback.
  kCoarseToFine,
};

struct SearchConfig {
  SearchMode mode = SearchMode::kExhaustive;
  /// Coarse decimation: fine cells per block side (>= 2 for coarse mode; a
  /// smaller value falls back to exhaustive). At the paper's 7.5 cm grid,
  /// stride 4 samples every 30 cm; the 3x3 coarse neighborhood then spans
  /// ~0.9 m, wide enough to envelope the fused surface's fringes. Strides
  /// 3 and 4 prune almost identically on the fig9 workload, but 4 halves
  /// the coarse-pass and span-bookkeeping overhead (fewer, larger blocks),
  /// and 5+ starts tripping the bound canary.
  std::size_t coarse_stride = 4;
  /// Safety factor kappa on the 3x3-coarse-neighborhood upper bound.
  /// Per-round worst block-max/neighborhood ratios on the fig9 workload
  /// cluster around 1.05-1.25, with a tail at 1.34/1.43 and one outlier
  /// block near 2.0 (a fine peak landing between coarse samples); 1.45
  /// covers every round that the refine-pass canary would otherwise bounce
  /// to the exhaustive fallback, while the canary plus the position-parity
  /// audit absorb anything beyond. Larger values refine more blocks;
  /// smaller values prune harder at the cost of more canary fallbacks.
  double bound_inflation = 1.45;
  /// Refine every block whose fused upper bound reaches this fraction of
  /// the best fused coarse sample. At or below the FindPeaks floor
  /// (ScoringConfig min_relative_height, 0.2 by default) the refined map
  /// reproduces the full peak list; above it, low peaks may be dropped from
  /// the candidate list while every surviving peak keeps its exact value,
  /// entropy window and score — the argmax cell is always refined, and the
  /// selected positions stay bit-identical on the fig9 workloads (asserted
  /// by the parity tests and the CI parity job).
  double refine_threshold = 0.9;
  /// When the survivor set exceeds this fraction of all cells, pruning is
  /// not paying for its bookkeeping: run the exhaustive path instead.
  double max_refine_fraction = 0.95;
  /// Debug/CI mode: recompute every round exhaustively as well and throw
  /// unless the coarse path selected the bit-identical position.
  bool parity_check = false;
};

/// Scratch buffers for the likelihood-map kernels: the dense 2 MHz band
/// comb and the split-complex accumulators of the steering-plan kernel.
/// Reusing one workspace across calls makes the in-place map variants
/// allocation-free in steady state.
struct SpectraWorkspace {
  std::vector<dsp::CVec> dense;       // comb values per antenna
  std::vector<std::size_t> k_of;      // band index -> comb step
  double comb_f0 = 0.0;
  double comb_step = 2.0e6;           // BLE channel spacing
  std::size_t comb_steps = 0;
  // Steering-plan kernel scratch (one slot per grid cell).
  dsp::SplitComplexVec cur;    // running rotor of the comb walk
  dsp::SplitComplexVec acc;    // per-antenna band sum
  dsp::SplitComplexVec total;  // cross-antenna coherent sum
  // Gathered rotors of a cell subset (coarse/refine evaluation).
  dsp::SplitComplexVec gbase;
  dsp::SplitComplexVec gstep;
};

namespace detail {
/// Number of antennas the kernels actually process for `input`.
std::size_t EffectiveAntennas(const SpectraInput& input);
/// Re-indexes the (possibly gappy) band list onto a dense 2 MHz comb so the
/// per-cell band sum becomes a single rotor walk. Writes into the workspace,
/// reusing its buffers.
void BuildComb(const SpectraInput& input, std::size_t antennas,
               SpectraWorkspace& ws);
}  // namespace detail

/// Eq. 17: coherent combination over antennas and bands (steering-plan
/// kernel with a plan built on the fly).
dsp::Grid2D JointLikelihoodMap(const SpectraInput& input,
                               const dsp::GridSpec& spec);

/// Eq. 15 mapped to space: per-band Bartlett angle spectra evaluated at the
/// bearing of each grid cell, summed incoherently over bands.
dsp::Grid2D AngleOnlyMap(const SpectraInput& input, const dsp::GridSpec& spec);

/// Eq. 16 mapped to space: per-antenna relative-distance spectra (hyperbolic
/// level sets), summed incoherently over antennas. Runs the steering-plan
/// kernel; pass `cache` to reuse plans across calls (nullptr builds one).
dsp::Grid2D DistanceOnlyMap(const SpectraInput& input,
                            const dsp::GridSpec& spec,
                            SteeringPlanCache* cache = nullptr);

/// The classic 1-D Bartlett angle pseudospectrum at a single band:
/// P(theta) = | sum_j alpha_j e^{+j 2 pi j l sin(theta) f / c} | evaluated on
/// `thetas` (radians, relative to array boresight).
dsp::RVec AngleSpectrum(std::span<const dsp::cplx> per_antenna, double freq_hz,
                        double spacing_m, std::span<const double> thetas);

}  // namespace bloc::core
