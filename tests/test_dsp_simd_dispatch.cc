#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "dsp/simd_dispatch.h"

namespace bloc::dsp::simd {
namespace {

TEST(SimdDispatch, IsaNameParseRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const auto parsed = ParseIsa(IsaName(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_EQ(ParseIsa("scalar"), Isa::kScalar);
  EXPECT_EQ(ParseIsa("avx2"), Isa::kAvx2);
  EXPECT_EQ(ParseIsa("avx512"), Isa::kAvx512);
  EXPECT_FALSE(ParseIsa("").has_value());
  EXPECT_FALSE(ParseIsa("AVX2").has_value());
  EXPECT_FALSE(ParseIsa("sse9").has_value());
}

TEST(SimdDispatch, ResolveIsaHonorsForceAndClampsToSupport) {
  // No override (null or unrecognized): the probed best wins.
  EXPECT_EQ(ResolveIsa(nullptr, Isa::kAvx512), Isa::kAvx512);
  EXPECT_EQ(ResolveIsa("bogus", Isa::kAvx2), Isa::kAvx2);
  // Narrower force is obeyed.
  EXPECT_EQ(ResolveIsa("scalar", Isa::kAvx512), Isa::kScalar);
  EXPECT_EQ(ResolveIsa("avx2", Isa::kAvx512), Isa::kAvx2);
  // Wider force clamps down to what the machine can run.
  EXPECT_EQ(ResolveIsa("avx512", Isa::kAvx2), Isa::kAvx2);
  EXPECT_EQ(ResolveIsa("avx512", Isa::kScalar), Isa::kScalar);
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndTablesTagged) {
  EXPECT_TRUE(IsaSupported(Isa::kScalar));
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    EXPECT_EQ(ForIsa(isa).isa, isa);
  }
  EXPECT_TRUE(IsaSupported(Active().isa));
}

/// Randomized operands for one kernel invocation of n cells. The comb has
/// deliberate gaps (zero coefficients) to exercise the skip branch.
struct Operands {
  std::vector<double> comb;  // interleaved (re, im), `steps` pairs
  std::vector<double> base_re, base_im, step_re, step_im;
  std::vector<double> cur_re, cur_im, acc_re, acc_im;

  Operands(std::mt19937& rng, std::size_t steps, std::size_t n) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::bernoulli_distribution gap(0.2);
    for (std::size_t k = 0; k < steps; ++k) {
      if (gap(rng)) {
        comb.insert(comb.end(), {0.0, 0.0});
      } else {
        comb.insert(comb.end(), {u(rng), u(rng)});
      }
    }
    auto fill = [&](std::vector<double>& v) {
      v.resize(n);
      for (double& x : v) x = u(rng);
    };
    fill(base_re);
    fill(base_im);
    fill(step_re);
    fill(step_im);
    fill(cur_re);
    fill(cur_im);
    acc_re.assign(n, 0.0);
    acc_im.assign(n, 0.0);
  }
};

// Every kernel variant must produce bit-identical doubles for every lane —
// the coarse-to-fine search's position-parity contract depends on it, so
// the comparisons below are EXPECT_EQ, not EXPECT_NEAR.
TEST(SimdDispatch, KernelsBitIdenticalAcrossIsas) {
  std::mt19937 rng(7);
  const Kernels& ref = ForIsa(Isa::kScalar);
  for (const std::size_t n : {1u, 3u, 8u, 13u, 31u, 32u, 33u, 64u, 100u}) {
    for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
      if (!IsaSupported(isa)) continue;
      const Kernels& alt = ForIsa(isa);
      const std::size_t steps = 37;
      Operands a(rng, steps, n);
      Operands b = a;

      // walk
      alt.walk(b.comb.data(), steps, b.base_re.data(), b.base_im.data(),
               b.step_re.data(), b.step_im.data(), b.acc_re.data(),
               b.acc_im.data(), n);
      ref.walk(a.comb.data(), steps, a.base_re.data(), a.base_im.data(),
               a.step_re.data(), a.step_im.data(), a.acc_re.data(),
               a.acc_im.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a.acc_re[i], b.acc_re[i]) << "walk n=" << n << " i=" << i;
        ASSERT_EQ(a.acc_im[i], b.acc_im[i]) << "walk n=" << n << " i=" << i;
      }

      // mac_rotate (mutates cur and acc)
      alt.mac_rotate(0.6, -0.3, b.step_re.data(), b.step_im.data(),
                     b.cur_re.data(), b.cur_im.data(), b.acc_re.data(),
                     b.acc_im.data(), n);
      ref.mac_rotate(0.6, -0.3, a.step_re.data(), a.step_im.data(),
                     a.cur_re.data(), a.cur_im.data(), a.acc_re.data(),
                     a.acc_im.data(), n);
      // mac_only
      alt.mac_only(-0.8, 0.25, b.cur_re.data(), b.cur_im.data(),
                   b.acc_re.data(), b.acc_im.data(), n);
      ref.mac_only(-0.8, 0.25, a.cur_re.data(), a.cur_im.data(),
                   a.acc_re.data(), a.acc_im.data(), n);
      // rotate_only
      alt.rotate_only(b.step_re.data(), b.step_im.data(), b.cur_re.data(),
                      b.cur_im.data(), n);
      ref.rotate_only(a.step_re.data(), a.step_im.data(), a.cur_re.data(),
                      a.cur_im.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a.cur_re[i], b.cur_re[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(a.cur_im[i], b.cur_im[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(a.acc_re[i], b.acc_re[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(a.acc_im[i], b.acc_im[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

// The fused walk is a loop interchange of the step-major kernels: driving
// mac_rotate / mac_only / rotate_only step by step must reproduce walk's
// accumulator bit for bit (gaps skip the MAC, the final step skips the
// rotation).
TEST(SimdDispatch, WalkMatchesStepMajorComposition) {
  std::mt19937 rng(13);
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    const Kernels& k = ForIsa(isa);
    const std::size_t steps = 23;
    const std::size_t n = 53;
    Operands w(rng, steps, n);

    std::vector<double> acc_re(n, 0.0), acc_im(n, 0.0);
    std::vector<double> cur_re = w.base_re, cur_im = w.base_im;
    for (std::size_t s = 0; s < steps; ++s) {
      const double a_re = w.comb[2 * s];
      const double a_im = w.comb[2 * s + 1];
      const bool gap = a_re == 0.0 && a_im == 0.0;
      const bool last = s + 1 == steps;
      if (!gap && !last) {
        k.mac_rotate(a_re, a_im, w.step_re.data(), w.step_im.data(),
                     cur_re.data(), cur_im.data(), acc_re.data(),
                     acc_im.data(), n);
      } else if (!gap) {
        k.mac_only(a_re, a_im, cur_re.data(), cur_im.data(), acc_re.data(),
                   acc_im.data(), n);
      } else if (!last) {
        k.rotate_only(w.step_re.data(), w.step_im.data(), cur_re.data(),
                      cur_im.data(), n);
      }
    }

    k.walk(w.comb.data(), steps, w.base_re.data(), w.base_im.data(),
           w.step_re.data(), w.step_im.data(), w.acc_re.data(),
           w.acc_im.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(w.acc_re[i], acc_re[i]) << IsaName(isa) << " i=" << i;
      ASSERT_EQ(w.acc_im[i], acc_im[i]) << IsaName(isa) << " i=" << i;
    }
  }
}

/// Per-path operands of one path_comb call: unit-modulus steps, rotors of
/// magnitude mag (amplitudes of both signs), as PathSet builds them.
struct PathOperands {
  std::vector<double> base_re, base_im, step_re, step_im, mag;

  PathOperands(std::mt19937& rng, std::size_t paths) {
    std::uniform_real_distribution<double> phase(-3.14159, 3.14159);
    std::uniform_real_distribution<double> amp(-0.5, 0.5);
    for (std::size_t p = 0; p < paths; ++p) {
      // Path 3 has zero amplitude: its rotor is a signed zero and it is
      // never renormalized.
      const double a = p == 3 ? 0.0 : amp(rng);
      const double phi = phase(rng);
      const double dphi = 1e-3 * phase(rng);
      base_re.push_back(a * std::cos(phi));
      base_im.push_back(a * std::sin(phi));
      step_re.push_back(std::cos(dphi));
      step_im.push_back(std::sin(dphi));
      mag.push_back(std::abs(a));
    }
  }

  /// path_comb over paths [p0, p0 + n), added into out.
  void Run(const Kernels& k, std::size_t p0, std::size_t n,
           std::vector<double>& out) const {
    k.path_comb(base_re.data() + p0, base_im.data() + p0, step_re.data() + p0,
                step_im.data() + p0, mag.data() + p0, n, out.data(),
                out.size() / 2);
  }
};

// The path comb promises the scalar variant's bits on every ISA: ragged
// lane chunks, full, padded and 4-lane remainder vector groups (0..130
// paths), a zero-amplitude path, and
// comb lengths on both sides of the renormalization interval that are not
// whole blocks. The output is pre-filled because the kernel adds into it.
TEST(SimdDispatch, PathCombBitIdenticalAcrossIsas) {
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const Kernels& ref = ForIsa(Isa::kScalar);
  for (const std::size_t paths :
       {0u, 1u, 7u, 8u, 9u, 40u, 64u, 65u, 83u, 130u}) {
    const PathOperands ops(rng, paths);
    for (const std::size_t count : {1u, 5u, 33u, 511u, 512u, 513u, 1100u}) {
      std::vector<double> init(2 * count);
      for (double& x : init) x = u(rng);
      std::vector<double> want = init;
      ops.Run(ref, 0, paths, want);
      for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
        if (!IsaSupported(isa)) continue;
        std::vector<double> got = init;
        ops.Run(ForIsa(isa), 0, paths, got);
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(want[i], got[i])
              << IsaName(isa) << " paths=" << paths << " count=" << count
              << " i=" << i;
        }
      }
    }
  }
}

// Chunks fold into the output in path order, so splitting a path list at a
// chunk boundary into two calls gives the bits of one call (PathSet's
// batching relies on it).
TEST(SimdDispatch, PathCombSplitAtChunkBoundaryMatchesOneCall) {
  std::mt19937 rng(31);
  const PathOperands ops(rng, 83);
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    const Kernels& k = ForIsa(isa);
    std::vector<double> whole(2 * 700, 0.0);
    ops.Run(k, 0, 83, whole);
    std::vector<double> split(2 * 700, 0.0);
    ops.Run(k, 0, 64, split);
    ops.Run(k, 64, 19, split);
    for (std::size_t i = 0; i < whole.size(); ++i) {
      ASSERT_EQ(whole[i], split[i]) << IsaName(isa) << " i=" << i;
    }
  }
}

// The bits of a gaussian_fill call (EXPECT_EQ on doubles would let -0.0
// pass for +0.0).
std::vector<std::uint64_t> FillBits(const Kernels& k, std::uint64_t key,
                                    std::uint64_t first, std::size_t n,
                                    double stddev) {
  std::vector<double> out(2 * n, -1.0);
  k.gaussian_fill(key, first, out.data(), n, stddev);
  std::vector<std::uint64_t> bits(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    bits[i] = std::bit_cast<std::uint64_t>(out[i]);
  }
  return bits;
}

// Every variant gives the scalar variant's bits, for whole vectors, lane
// tails and counters that do not start on a vector boundary.
TEST(SimdDispatch, GaussianFillBitIdenticalAcrossIsas) {
  const Kernels& ref = ForIsa(Isa::kScalar);
  for (const std::uint64_t key : {0ull, 1ull, 0x9E3779B97F4A7C15ull}) {
    for (const std::uint64_t first : {0ull, 5ull, 1ull << 40}) {
      for (const std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 1920u, 2048u}) {
        for (const double stddev : {1.0, 0.0037}) {
          const std::vector<std::uint64_t> want =
              FillBits(ref, key, first, n, stddev);
          for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
            if (!IsaSupported(isa)) continue;
            EXPECT_EQ(FillBits(ForIsa(isa), key, first, n, stddev), want)
                << IsaName(isa) << " key=" << key << " first=" << first
                << " n=" << n << " stddev=" << stddev;
          }
        }
      }
    }
  }
}

// Pair i is a pure function of (key, i): a fill split at any offset gives
// the bits of one call.
TEST(SimdDispatch, GaussianFillSplitAtAnyOffsetMatchesOneCall) {
  constexpr std::size_t kN = 37;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    const Kernels& k = ForIsa(isa);
    const std::vector<std::uint64_t> whole = FillBits(k, 42, 3, kN, 0.5);
    for (std::size_t cut = 0; cut <= kN; ++cut) {
      std::vector<std::uint64_t> split = FillBits(k, 42, 3, cut, 0.5);
      const std::vector<std::uint64_t> rest =
          FillBits(k, 42, 3 + cut, kN - cut, 0.5);
      split.insert(split.end(), rest.begin(), rest.end());
      EXPECT_EQ(split, whole) << IsaName(isa) << " cut=" << cut;
    }
  }
}

// stddev 0 (a noiseless channel) writes +0.0, never -0.0.
TEST(SimdDispatch, GaussianFillZeroStddevIsPositiveZero) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    for (const std::uint64_t bits : FillBits(ForIsa(isa), 7, 0, 67, 0.0)) {
      ASSERT_EQ(bits, 0u) << IsaName(isa);
    }
  }
}

}  // namespace
}  // namespace bloc::dsp::simd
