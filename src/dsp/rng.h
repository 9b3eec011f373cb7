// Deterministic random number streams.
//
// Every stochastic component of the simulator (scatterer placement, noise,
// per-retune phase offsets, tag position sampling) draws from a named
// sub-stream derived from a single experiment seed, so whole experiments are
// reproducible bit-for-bit and individual components can be re-seeded
// independently without perturbing the others.
//
// Two kinds of stream derive from the same fork keys:
//  - `Rng`: an mt19937_64 engine with the standard distributions. Its
//    Gaussian and uniform draws come from the standard library's
//    distribution objects, whose algorithms are implementation-defined, so
//    the bits are those of libstdc++. The analytic measurement mode, the
//    geometry and the LO model draw from it.
//  - `FillComplexNoise`: a stateless counter-based Gaussian stream, keyed by
//    `Rng::ForkKey` (simd::Kernels::gaussian_fill). Sample i is a pure
//    function of (key, i), needs no engine or seeding, calls no libm and
//    gives the same bits on every ISA and standard library. Full-PHY
//    receiver noise (one 1920-sample fill per measured packet) draws from
//    it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <random>
#include <span>
#include <string_view>

#include "dsp/types.h"

namespace bloc::dsp {

/// Stable 64-bit FNV-1a hash used to derive sub-stream seeds from names.
std::uint64_t HashName(std::string_view name) noexcept;

/// A seeded random stream with the distributions the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Derives an independent child stream, e.g. `rng.Fork("noise")`.
  Rng Fork(std::string_view name) const;

  /// Derives an independent child stream from a tuple of integer ids, e.g.
  /// `rng.Fork({round, channel, antenna})`. Each id goes through one
  /// splitmix round, so streams for adjacent tuples are uncorrelated and
  /// the derivation is order-sensitive ((1,2) != (2,1)). This is how the
  /// measurement simulator gives every (round, channel, anchor, antenna,
  /// leg) its own noise stream (through ForkKey): forking is pure, so
  /// parallel workers can derive their streams in any order and still
  /// reproduce the serial output bit for bit.
  Rng Fork(std::initializer_list<std::uint64_t> ids) const;

  /// The seed Fork(ids) gives its child, i.e. Fork(ids) == Rng(ForkKey(ids)):
  /// the key of the tuple's counter-based stream (FillComplexNoise).
  std::uint64_t ForkKey(std::initializer_list<std::uint64_t> ids) const;

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal scaled by `stddev`.
  double Gaussian(double stddev = 1.0);

  /// Circularly symmetric complex Gaussian with total variance `variance`
  /// (i.e. variance/2 per real dimension).
  cplx ComplexGaussian(double variance);

  /// Uniform phase in [0, 2*pi) as a unit-magnitude complex rotor.
  cplx RandomRotor();

  /// Bernoulli trial.
  bool Chance(double probability);

 private:
  std::uint64_t seed_ = 0;  // retained so Fork derives from the root seed
  std::mt19937_64 engine_;
};

/// Fills `out` with iid circular complex Gaussians of total variance
/// `variance` (variance/2 per real dimension; 0 gives +0.0) from the
/// counter-based stream `key`: out[k] is pair k of
/// simd::Kernels::gaussian_fill, run on the active ISA.
void FillComplexNoise(std::uint64_t key, std::span<cplx> out, double variance);

}  // namespace bloc::dsp
