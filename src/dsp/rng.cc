#include "dsp/rng.h"

#include <cmath>

#include "dsp/simd_dispatch.h"

namespace bloc::dsp {

std::uint64_t HashName(std::string_view name) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

std::uint64_t SplitMix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng Rng::Fork(std::string_view name) const {
  // Mix the parent's seed with the child name; splitmix-style finalizer so
  // adjacent names give uncorrelated streams.
  return Rng(SplitMix(seed_ + HashName(name) + 0x9E3779B97F4A7C15ULL));
}

Rng Rng::Fork(std::initializer_list<std::uint64_t> ids) const {
  return Rng(ForkKey(ids));
}

std::uint64_t Rng::ForkKey(std::initializer_list<std::uint64_t> ids) const {
  // One full splitmix round per id: the intermediate finalization makes the
  // derivation order-sensitive and keeps adjacent tuples uncorrelated.
  std::uint64_t z = seed_;
  for (const std::uint64_t id : ids) {
    z = SplitMix(z + id + 0x9E3779B97F4A7C15ULL);
  }
  return z;
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

// The Gaussian draws scale a standard normal themselves: libstdc++ computes
// `z * stddev + mean` for normal_distribution(mean, stddev), so this is the
// same stream bit for bit, but stddev == 0 (a noiseless channel) no longer
// violates the distribution's stddev > 0 precondition.
double Rng::Gaussian(double stddev) {
  std::normal_distribution<double> dist;
  return dist(engine_) * stddev + 0.0;
}

cplx Rng::ComplexGaussian(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return {Gaussian(s), Gaussian(s)};
}

cplx Rng::RandomRotor() {
  const double phi = Uniform(0.0, kTwoPi);
  return {std::cos(phi), std::sin(phi)};
}

bool Rng::Chance(double probability) {
  return Uniform(0.0, 1.0) < probability;
}

void FillComplexNoise(std::uint64_t key, std::span<cplx> out,
                      double variance) {
  // std::complex<double> is layout-compatible with double[2].
  simd::Active().gaussian_fill(key, 0, reinterpret_cast<double*>(out.data()),
                               out.size(), std::sqrt(variance / 2.0));
}

}  // namespace bloc::dsp
