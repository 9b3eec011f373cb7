#include "dsp/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bloc::dsp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform(0, 1) == b.Uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng root(99);
  Rng c1 = root.Fork("noise");
  Rng c2 = Rng(99).Fork("noise");
  EXPECT_DOUBLE_EQ(c1.Uniform(0, 1), c2.Uniform(0, 1));

  Rng d1 = Rng(99).Fork("noise");
  Rng d2 = Rng(99).Fork("positions");
  EXPECT_NE(d1.Uniform(0, 1), d2.Uniform(0, 1));
}

TEST(Rng, ForkIgnoresParentConsumption) {
  // Forking depends only on the root seed and the name, not on how many
  // draws the parent made — this keeps components independent.
  Rng a(5);
  a.Uniform(0, 1);
  a.Uniform(0, 1);
  Rng b(5);
  EXPECT_DOUBLE_EQ(a.Fork("x").Uniform(0, 1), b.Fork("x").Uniform(0, 1));
}

TEST(Rng, TupleForkIsDeterministicAndPure) {
  Rng root(42);
  Rng a = root.Fork({3, 1, 4, 1, 5});
  root.Uniform(0, 1);  // parent consumption must not matter
  Rng b = root.Fork({3, 1, 4, 1, 5});
  EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
}

TEST(Rng, TupleForkIsOrderSensitive) {
  Rng root(42);
  Rng ab = root.Fork({1, 2});
  Rng ba = root.Fork({2, 1});
  EXPECT_NE(ab.Uniform(0, 1), ba.Uniform(0, 1));
}

TEST(Rng, TupleForkAdjacentIdsDecorrelate) {
  // Neighbouring tuples (as the measurement simulator produces per
  // antenna/leg) must give unrelated streams.
  Rng root(7);
  Rng a = root.Fork({10, 0, 0});
  Rng b = root.Fork({10, 0, 1});
  Rng c = root.Fork({10, 1, 0});
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    const double va = a.Uniform(0, 1);
    if (va == b.Uniform(0, 1)) ++same;
    if (va == c.Uniform(0, 1)) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkKeySeedsTheForkedStream) {
  const Rng root(42);
  Rng forked = root.Fork({3, 1, 4, 1, 5});
  Rng keyed(root.ForkKey({3, 1, 4, 1, 5}));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(forked.Gaussian(1.0), keyed.Gaussian(1.0));
  }
  EXPECT_NE(root.ForkKey({1, 2}), root.ForkKey({2, 1}));
}

// ---------------------------------------------------------------------------
// FillComplexNoise: the counter-based Gaussian stream of full-PHY noise.

TEST(GaussianFill, MatchesRequestedVariance) {
  CVec buf(20000);
  FillComplexNoise(11, buf, 2.0);
  double power = 0.0, mean_re = 0.0;
  for (const cplx& v : buf) {
    power += std::norm(v);
    mean_re += v.real();
  }
  power /= static_cast<double>(buf.size());
  mean_re /= static_cast<double>(buf.size());
  EXPECT_NEAR(power, 2.0, 0.1);
  EXPECT_NEAR(mean_re, 0.0, 0.05);
}

TEST(GaussianFill, IsAPureFunctionOfTheKey) {
  CVec x(64), y(64), z(64);
  FillComplexNoise(13, x, 0.5);
  FillComplexNoise(13, y, 0.5);
  FillComplexNoise(14, z, 0.5);
  EXPECT_EQ(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NE(x[i], z[i]);
  // A shorter fill is a prefix of a longer one.
  CVec prefix(17);
  FillComplexNoise(13, prefix, 0.5);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), x.begin()));
}

TEST(GaussianFill, ZeroVarianceIsPositiveZero) {
  CVec noiseless(16, cplx(1.0, 1.0));
  FillComplexNoise(17, noiseless, 0.0);
  for (const cplx& v : noiseless) {
    EXPECT_EQ(v, cplx(0.0, 0.0));
    EXPECT_FALSE(std::signbit(v.real()));
    EXPECT_FALSE(std::signbit(v.imag()));
  }
}

// The stream's definition (splitmix64 words, bit slicing, the polynomial
// log/sincos) pinned by value: the same bits on every ISA, compiler and
// standard library.
TEST(GaussianFill, MatchesGoldenDigest) {
  CVec pairs(256);
  FillComplexNoise(0xB10C, pairs, 2.0);
  std::uint64_t h = 1469598103934665603ull;
  for (const cplx& v : pairs) {
    for (const double part : {v.real(), v.imag()}) {
      h ^= std::bit_cast<std::uint64_t>(part);
      h *= 1099511628211ull;
    }
  }
  EXPECT_EQ(h, 0x448c40e63b3bbdc1ull) << "0x" << std::hex << h;
}

/// 2^20 pairs (2,097,152 unit normals) of stream `key`, real and imaginary
/// parts interleaved.
std::vector<double> UnitNormals(std::uint64_t key) {
  CVec pairs(std::size_t{1} << 20);
  FillComplexNoise(key, pairs, 2.0);  // variance 1 per real dimension
  std::vector<double> out;
  out.reserve(2 * pairs.size());
  for (const cplx& v : pairs) {
    out.push_back(v.real());
    out.push_back(v.imag());
  }
  return out;
}

double Correlation(const std::vector<double>& a, const std::vector<double>& b,
                   std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum / static_cast<double>(n);
}

// Moments, a Kolmogorov-Smirnov bound against Phi and the 4-sigma tail
// mass. Bounds sit at ~5 standard errors of each statistic (KS: p = 0.001),
// so a defect in the log/sincos polynomials or the bit slicing fails them
// while a correct sampler passes on any fixed key.
TEST(GaussianFill, UnitNormalMomentsTailsAndKolmogorovSmirnov) {
  std::vector<double> x = UnitNormals(0x5EED);
  const double n = static_cast<double>(x.size());
  double sum = 0.0, sum2 = 0.0, sum4 = 0.0;
  std::size_t beyond_4 = 0;
  for (const double v : x) {
    sum += v;
    sum2 += v * v;
    sum4 += v * v * v * v;
    beyond_4 += std::abs(v) > 4.0 ? 1 : 0;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 5.0 / std::sqrt(n));
  EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(sum4 / n / (var * var), 3.0, 5.0 * std::sqrt(24.0 / n));
  // P(|Z| > 4) = 6.334e-5: ~133 of these samples, standard error ~11.5.
  const double tail_expected = 6.334248e-5 * n;
  EXPECT_NEAR(static_cast<double>(beyond_4), tail_expected,
              5.0 * std::sqrt(tail_expected));

  std::sort(x.begin(), x.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double phi = 0.5 * std::erfc(-x[i] / std::sqrt(2.0));
    ks = std::max({ks, std::abs(phi - static_cast<double>(i) / n),
                   std::abs(phi - static_cast<double>(i + 1) / n)});
  }
  EXPECT_LT(std::sqrt(n) * ks, 1.95);
}

// Neighbouring samples of one stream, and the streams of neighbouring keys
// (raw integers and the fork tuples the simulator uses), are uncorrelated.
TEST(GaussianFill, AdjacentIndicesAndKeysAreUncorrelated) {
  const std::vector<double> a = UnitNormals(1000);
  const std::size_t n = a.size() - 1;
  const double bound = 5.0 / std::sqrt(static_cast<double>(n));
  // Adjacent indices: re/im of one pair and consecutive pairs.
  const std::vector<double> shifted(a.begin() + 1, a.end());
  EXPECT_NEAR(Correlation(a, shifted, n), 0.0, bound);
  const std::vector<double> next_pair(a.begin() + 2, a.end());
  EXPECT_NEAR(Correlation(a, next_pair, n - 1), 0.0, bound);
  // Adjacent keys.
  EXPECT_NEAR(Correlation(a, UnitNormals(1001), n), 0.0, bound);
  const Rng root(7);
  const std::vector<double> leg0 = UnitNormals(root.ForkKey({3, 20, 1, 2, 0}));
  const std::vector<double> leg1 = UnitNormals(root.ForkKey({3, 20, 1, 2, 1}));
  EXPECT_NEAR(Correlation(leg0, leg1, n), 0.0, bound);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(2.0);
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sum_sq / n, 4.0, 0.2);
}

TEST(Rng, ZeroStddevGaussianIsZeroAndKeepsTheStream) {
  Rng zero(17);
  Rng one(17);
  for (int i = 0; i < 8; ++i) {
    const double z = zero.Gaussian(0.0);
    EXPECT_EQ(z, 0.0);
    EXPECT_FALSE(std::signbit(z));
    one.Gaussian(1.0);
  }
  // Both engines consumed the same draws, so their streams stay in step.
  EXPECT_EQ(zero.Uniform(0.0, 1.0), one.Uniform(0.0, 1.0));
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(13);
  double power = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) power += std::norm(rng.ComplexGaussian(0.5));
  EXPECT_NEAR(power / n, 0.5, 0.03);
}

TEST(Rng, RandomRotorUnitMagnitudeUniformPhase) {
  Rng rng(17);
  cplx mean{0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const cplx r = rng.RandomRotor();
    EXPECT_NEAR(std::abs(r), 1.0, 1e-12);
    mean += r;
  }
  EXPECT_NEAR(std::abs(mean) / n, 0.0, 0.02);  // phases uniform
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(HashName, StableAndDistinct) {
  EXPECT_EQ(HashName("abc"), HashName("abc"));
  EXPECT_NE(HashName("abc"), HashName("abd"));
  EXPECT_NE(HashName(""), HashName("a"));
}

}  // namespace
}  // namespace bloc::dsp
