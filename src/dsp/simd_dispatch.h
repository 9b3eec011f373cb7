// Runtime CPU dispatch for the split-complex comb-walk kernels.
//
// The Eq. 17 hot loop is a fused MAC+rotate over grid cells, the full-PHY
// simulator's channel comb is a rotor recurrence per path and its receiver
// noise a counter-based Gaussian fill; left to the compiler, all three are
// pinned to the baseline ISA (SSE2 on portable builds). This facility
// probes the CPU once at startup and resolves a function-pointer table to
// explicit scalar / AVX2 / AVX-512 variants of the loop bodies, so a
// portable binary still runs 512-bit kernels on machines that have them.
//
// Bit-identity contract: every variant performs the same IEEE-754 double
// operations in the same per-element order and none uses FMA (the
// translation unit is additionally built with -ffp-contract=off), so for
// any cell the result is bit-identical across ISAs, across lane packings
// and between full-grid and gathered-subset evaluation. The coarse-to-fine
// search (bloc/localizer.cc), the full-PHY golden digests and the cross-ISA
// parity tests rely on this; gaussian_fill additionally calls no libm, so
// its bits do not depend on the C or C++ standard library either.
//
// `BLOC_FORCE_ISA=scalar|avx2|avx512` overrides the probe (clamped down to
// what the CPU supports) — used by the tests and the CI scalar leg.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace bloc::dsp::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// The comb-walk loop bodies (see bloc/steering_plan.cc WalkComb), the
/// channel comb and the noise fill of the full-PHY simulator. All per-cell
/// arrays are length `n`; aliasing between distinct arguments is not
/// allowed.
struct Kernels {
  /// acc += a * cur, then cur *= step, per element.
  void (*mac_rotate)(double a_re, double a_im, const double* step_re,
                     const double* step_im, double* cur_re, double* cur_im,
                     double* acc_re, double* acc_im, std::size_t n);
  /// acc += a * cur per element (final comb step: no rotation needed).
  void (*mac_only)(double a_re, double a_im, const double* cur_re,
                   const double* cur_im, double* acc_re, double* acc_im,
                   std::size_t n);
  /// cur *= step per element (comb gap: the band is absent, only advance).
  void (*rotate_only)(const double* step_re, const double* step_im,
                      double* cur_re, double* cur_im, std::size_t n);
  /// The whole comb walk fused per cell: starting from cur = base, for each
  /// comb step k apply the MAC (skipped when comb[k] == 0, a comb gap) and
  /// then the rotation (skipped on the final step), writing the summed
  /// accumulator to acc. `comb` is `steps` interleaved (re, im) pairs.
  /// Equivalent to the step-major kernels above but holds cur/acc in
  /// registers for the full walk — per cell the operation sequence is
  /// identical (loop interchange only), so results stay bit-identical.
  void (*walk)(const double* comb, std::size_t steps, const double* base_re,
               const double* base_im, const double* step_re,
               const double* step_im, double* acc_re, double* acc_im,
               std::size_t n);
  /// The channel comb of `paths` propagation paths (chan::PathSet::
  /// EvaluateCombInto): adds sum_p base_p * step_p^k to out[k] for k <
  /// `count`, where `out` is `count` interleaved (re, im) pairs. Paths are
  /// summed in chunks of kPathCombChunk: per comb step a chunk's rotors are
  /// summed left to right from 0.0 and each is advanced by its step; the
  /// chunk sums fold into out[k] in path order. Every kPathCombRenorm steps
  /// each nonzero rotor is rescaled to its `mag` (|amplitude|) so long combs
  /// don't drift. Vector variants put one chunk in each lane; the bits are
  /// those of the scalar variant on every ISA.
  void (*path_comb)(const double* base_re, const double* base_im,
                    const double* step_re, const double* step_im,
                    const double* mag, std::size_t paths, double* out,
                    std::size_t count);
  /// Counter-based Gaussian noise: writes n circular complex Gaussian
  /// pairs to out[0, 2n), out[2k] and out[2k + 1] being pair first + k of
  /// stream `key`, each component N(0, stddev^2). Pair i is a pure function
  /// of (key, i): splitmix64 words 2i and 2i + 1 of the sequence seeded at
  /// `key` (state key + (j + 1) * 0x9E3779B97F4A7C15, splitmix finalizer)
  /// give u in (0, 1] and an angle theta, and Box-Muller returns
  /// stddev * sqrt(-2 ln u) * (cos theta, sin theta) + 0.0, so stddev 0
  /// gives +0.0. ln, sin and cos are fixed polynomials (fdlibm's), not
  /// libm, and there is no FMA, so any split of a fill equals one call and
  /// every variant gives the scalar variant's bits.
  void (*gaussian_fill)(std::uint64_t key, std::uint64_t first, double* out,
                        std::size_t n, double stddev);
  Isa isa = Isa::kScalar;
};

/// Paths per lane chunk of Kernels::path_comb.
inline constexpr std::size_t kPathCombChunk = 8;
/// Comb steps between path_comb's rotor renormalizations.
inline constexpr std::size_t kPathCombRenorm = 512;

/// Lowercase spelling used by BLOC_FORCE_ISA and the metrics/logs.
const char* IsaName(Isa isa);

/// Inverse of IsaName; nullopt for unknown spellings.
std::optional<Isa> ParseIsa(std::string_view name);

/// Whether this CPU can execute the variant (scalar is always true).
bool IsaSupported(Isa isa);

/// The widest ISA this CPU supports.
Isa BestSupported();

/// Pure resolution rule: `force` is the BLOC_FORCE_ISA value (may be null
/// or unrecognized, both meaning "no override"), `best` the probe result.
/// A forced ISA wider than `best` clamps down to `best`.
Isa ResolveIsa(const char* force, Isa best);

/// The kernel table of a specific variant. Callers must check
/// IsaSupported(isa) first; used by the cross-ISA parity tests.
const Kernels& ForIsa(Isa isa);

/// The process-wide active table: ResolveIsa(getenv("BLOC_FORCE_ISA"),
/// BestSupported()), resolved once on first call and cached.
const Kernels& Active();

}  // namespace bloc::dsp::simd
