// Propagation paths between a transmit and a receive point.
//
// Each path is characterized by its geometric length and a real, positive
// amplitude times a sign (reflections flip phase); the frequency-dependent
// part of the channel is exactly e^{-j 2 pi f d / c}, so the same PathSet
// evaluates coherently on every BLE band — the property BLoc's band
// stitching relies on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "geom/vec2.h"

namespace bloc::chan {

enum class PathKind : std::uint8_t {
  kDirect,
  kSpecular,       // single-bounce mirror reflection
  kSecondOrder,    // double-bounce wall reflection
  kDiffuse,        // scatter off a rough surface point
};

struct Path {
  double length_m = 0.0;
  /// Signed real amplitude: includes 1/d spreading, reflection and
  /// penetration losses; negative for phase-inverting reflections.
  double amplitude = 0.0;
  PathKind kind = PathKind::kDirect;
  /// Index of the reflector face involved (walls first), -1 for direct.
  int face_index = -1;
};

struct PathSet {
  std::vector<Path> paths;

  /// Evaluates the channel h(f) = sum_p a_p e^{-j 2 pi f d_p / c}.
  dsp::cplx Evaluate(double freq_hz) const;

  /// Evaluates h on a frequency comb f_k = f_start + k*f_step using an
  /// incremental complex rotor per path (one sincos pair per path instead of
  /// one per path per band).
  dsp::CVec EvaluateComb(double f_start_hz, double f_step_hz,
                         std::size_t count) const;

  /// Allocation-free EvaluateComb: overwrites `out` (out.size() comb bins)
  /// in caller-owned storage. Runs on the dispatched dsp::simd path-comb
  /// kernel: paths in fixed-size lane chunks with the comb index as the
  /// outer loop, so the per-path rotor recurrences run side by side instead
  /// of as latency-bound serial chains; rotors renormalize periodically so
  /// long combs don't drift (parity vs per-bin Evaluate stays < 1e-9, see
  /// tests/test_channel.cc). The bits are the same on every ISA.
  void EvaluateCombInto(double f_start_hz, double f_step_hz,
                        std::span<dsp::cplx> out) const;

  /// Length of the shortest path, or +inf when empty.
  double ShortestLength() const;
  /// Amplitude-weighted strongest path.
  const Path* Strongest() const;
};

}  // namespace bloc::chan
