// Explicit scalar / AVX2 / AVX-512 variants of the comb-walk loop bodies,
// the full-PHY path comb and the full-PHY Gaussian noise fill.
//
// Every variant evaluates, per element c:
//   acc[c] += a * cur[c]        (complex MAC, split re/im)
//   cur[c] *= step[c]           (complex rotate)
// with the exact expression shapes of the scalar reference below — two
// multiplies then one add/sub per component, never an FMA — so the results
// are bit-identical across ISAs and across lane/tail splits. The path-comb
// variants likewise share one per-lane rotor update and one summation order,
// and the Gaussian-fill variants one template body (PolarParts).
// This file is compiled with -ffp-contract=off (src/dsp/CMakeLists.txt) to
// keep the compiler from fusing those multiply-adds behind our back.

#include "dsp/simd_dispatch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define BLOC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace bloc::dsp::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference (also the tail loop of the vector variants).

void MacRotateScalar(double a_re, double a_im, const double* step_re,
                     const double* step_im, double* cur_re, double* cur_im,
                     double* acc_re, double* acc_im, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) {
    const double r = cur_re[c];
    const double i = cur_im[c];
    acc_re[c] += a_re * r - a_im * i;
    acc_im[c] += a_re * i + a_im * r;
    cur_re[c] = r * step_re[c] - i * step_im[c];
    cur_im[c] = r * step_im[c] + i * step_re[c];
  }
}

void MacOnlyScalar(double a_re, double a_im, const double* cur_re,
                   const double* cur_im, double* acc_re, double* acc_im,
                   std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) {
    acc_re[c] += a_re * cur_re[c] - a_im * cur_im[c];
    acc_im[c] += a_re * cur_im[c] + a_im * cur_re[c];
  }
}

void RotateOnlyScalar(const double* step_re, const double* step_im,
                      double* cur_re, double* cur_im, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) {
    const double r = cur_re[c];
    const double i = cur_im[c];
    cur_re[c] = r * step_re[c] - i * step_im[c];
    cur_im[c] = r * step_im[c] + i * step_re[c];
  }
}

// The fused walk: per cell, the same step sequence the three kernels above
// perform step-major — MAC unless the comb coefficient is zero, rotate
// unless it is the final step — but cell-major, so cur/acc live in
// registers for the whole walk instead of round-tripping memory once per
// step. Loop interchange does not touch any per-cell expression, so the
// result is bit-identical to driving the step kernels.
void WalkScalarOne(const double* comb, std::size_t steps, double r, double i,
                   double sr, double si, double* out_re, double* out_im) {
  double ar = 0.0;
  double ai = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    const double a_re = comb[2 * k];
    const double a_im = comb[2 * k + 1];
    if (a_re != 0.0 || a_im != 0.0) {
      ar += a_re * r - a_im * i;
      ai += a_re * i + a_im * r;
    }
    if (k + 1 != steps) {
      const double pr = r;
      const double pi = i;
      r = pr * sr - pi * si;
      i = pr * si + pi * sr;
    }
  }
  *out_re = ar;
  *out_im = ai;
}

void WalkScalar(const double* comb, std::size_t steps, const double* base_re,
                const double* base_im, const double* step_re,
                const double* step_im, double* acc_re, double* acc_im,
                std::size_t n) {
  // Four cells in flight: each cell's rotation is a serial multiply chain
  // across steps, so interleaving independent chains restores the ILP the
  // step-major kernels had. The per-cell operation sequence is unchanged.
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    double r0 = base_re[c], i0 = base_im[c];
    double r1 = base_re[c + 1], i1 = base_im[c + 1];
    double r2 = base_re[c + 2], i2 = base_im[c + 2];
    double r3 = base_re[c + 3], i3 = base_im[c + 3];
    const double sr0 = step_re[c], si0 = step_im[c];
    const double sr1 = step_re[c + 1], si1 = step_im[c + 1];
    const double sr2 = step_re[c + 2], si2 = step_im[c + 2];
    const double sr3 = step_re[c + 3], si3 = step_im[c + 3];
    double ar0 = 0.0, ai0 = 0.0, ar1 = 0.0, ai1 = 0.0;
    double ar2 = 0.0, ai2 = 0.0, ar3 = 0.0, ai3 = 0.0;
    for (std::size_t k = 0; k < steps; ++k) {
      const double a_re = comb[2 * k];
      const double a_im = comb[2 * k + 1];
      if (a_re != 0.0 || a_im != 0.0) {
        ar0 += a_re * r0 - a_im * i0;
        ai0 += a_re * i0 + a_im * r0;
        ar1 += a_re * r1 - a_im * i1;
        ai1 += a_re * i1 + a_im * r1;
        ar2 += a_re * r2 - a_im * i2;
        ai2 += a_re * i2 + a_im * r2;
        ar3 += a_re * r3 - a_im * i3;
        ai3 += a_re * i3 + a_im * r3;
      }
      if (k + 1 != steps) {
        double p = r0;
        r0 = p * sr0 - i0 * si0;
        i0 = p * si0 + i0 * sr0;
        p = r1;
        r1 = p * sr1 - i1 * si1;
        i1 = p * si1 + i1 * sr1;
        p = r2;
        r2 = p * sr2 - i2 * si2;
        i2 = p * si2 + i2 * sr2;
        p = r3;
        r3 = p * sr3 - i3 * si3;
        i3 = p * si3 + i3 * sr3;
      }
    }
    acc_re[c] = ar0;
    acc_im[c] = ai0;
    acc_re[c + 1] = ar1;
    acc_im[c + 1] = ai1;
    acc_re[c + 2] = ar2;
    acc_im[c + 2] = ai2;
    acc_re[c + 3] = ar3;
    acc_im[c + 3] = ai3;
  }
  for (; c < n; ++c) {
    WalkScalarOne(comb, steps, base_re[c], base_im[c], step_re[c], step_im[c],
                  acc_re + c, acc_im + c);
  }
}

// ---------------------------------------------------------------------------
// Path comb. Each lane of a chunk carries one path's rotor a_p e^{j phi_k};
// idle lanes (past the last path) spin a zero rotor with a unit step so the
// chunk loop stays branch-free, and their zero adds are part of the bits.

void PathCombScalar(const double* base_re, const double* base_im,
                    const double* step_re, const double* step_im,
                    const double* mag, std::size_t paths, double* out,
                    std::size_t count) {
  constexpr std::size_t kLanes = kPathCombChunk;
  for (std::size_t p0 = 0; p0 < paths; p0 += kLanes) {
    double rot_re[kLanes], rot_im[kLanes];
    double sr[kLanes], si[kLanes], mg[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const bool live = p0 + l < paths;
      rot_re[l] = live ? base_re[p0 + l] : 0.0;
      rot_im[l] = live ? base_im[p0 + l] : 0.0;
      sr[l] = live ? step_re[p0 + l] : 1.0;
      si[l] = live ? step_im[p0 + l] : 0.0;
      mg[l] = live ? mag[p0 + l] : 0.0;
    }
    std::size_t since_renorm = 0;
    for (std::size_t k = 0; k < count; ++k) {
      double acc_re = 0.0;
      double acc_im = 0.0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        acc_re += rot_re[l];
        acc_im += rot_im[l];
        const double r = rot_re[l] * sr[l] - rot_im[l] * si[l];
        rot_im[l] = rot_re[l] * si[l] + rot_im[l] * sr[l];
        rot_re[l] = r;
      }
      out[2 * k] += acc_re;
      out[2 * k + 1] += acc_im;
      if (++since_renorm == kPathCombRenorm) {
        since_renorm = 0;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double cur = std::hypot(rot_re[l], rot_im[l]);
          if (cur > 0.0) {
            const double scale = mg[l] / cur;
            rot_re[l] *= scale;
            rot_im[l] *= scale;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Gaussian fill. Pair i of stream `key` reads words 2i and 2i+1 of the
// splitmix64 sequence seeded at key (state key + (j + 1) * gamma, then the
// splitmix finalizer). Word 1 gives u in (0, 1] and the radius
// sqrt(-2 ln u); word 2 gives the angle: its top two bits pick a quadrant q
// and 52 bits below them x uniform in [-pi/4, pi/4), so theta = q pi/2 + x.
// ln is fdlibm's e_log reduction and polynomial, sin/cos fdlibm's kernels
// on [-pi/4, pi/4]; the quadrant only swaps and negates. Every step is an
// integer op or one IEEE add/sub/mul/div/sqrt in a fixed order, so the
// vector variants below reproduce these bits lane for lane.

constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kMix1 = 0xBF58476D1CE4E5B9ull;
constexpr std::uint64_t kMix2 = 0x94D049BB133111EBull;
constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;  // 1.0
constexpr std::uint64_t kMantissa = 0x000FFFFFFFFFFFFFull;
// Added to the mantissa, carries into bit 52 iff the significand is at
// least ~sqrt(2) (fdlibm's 0x95f64 on the high word).
constexpr std::uint64_t kSqrt2Carry = 0x00095F6400000000ull;
constexpr std::uint64_t kBit52 = 0x0010000000000000ull;
constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
// 2^52 as bits and as a double with the exponent bias folded in: OR-ing a
// small integer into kTwo52Bits and subtracting kTwo52PlusBias yields the
// unbiased exponent exactly, without an int64 -> double instruction.
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;
constexpr double kTwo52PlusBias = 4503599627370496.0 + 1023.0;

constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;
constexpr double kPiOver2 = 1.57079632679489661923;

// The splitmix finalizer, in place; 64-bit multiplies wrap (GCC lowers the
// vector ones to 32x32 multiplies where the ISA has no 64-bit mullo).
// Vector values only cross these always-inline helpers by reference (and
// __builtin_bit_cast is no call), so no vector ABI is involved on
// baseline-ISA builds.
template <typename U>
__attribute__((always_inline)) inline void SplitMix(U& z) {
  z = (z ^ (z >> 30)) * kMix1;
  z = (z ^ (z >> 27)) * kMix2;
  z = z ^ (z >> 31);
}

// The pairs whose word-1 splitmix state is `state`, up to the square root
// (each variant applies its ISA's): r2 = -2 ln u and the rotor
// (cos theta, sin theta).
template <typename D, typename U>
__attribute__((always_inline)) inline void PolarParts(const U& state, D& r2,
                                                      D& cos_t, D& sin_t) {
  U w1 = state;
  U w2 = state + kGamma;
  SplitMix(w1);
  SplitMix(w2);

  // ln u for u in (0, 1]: u = 2^k m with m in [~sqrt(2)/2, ~sqrt(2)).
  const D u = 2.0 - __builtin_bit_cast(D, (w1 >> 12) | kOneBits);
  const U bits = __builtin_bit_cast(U, u);
  const U m52 = bits & kMantissa;
  const U i = (m52 + kSqrt2Carry) & kBit52;
  const D m = __builtin_bit_cast(D, m52 | (i ^ kOneBits));
  const D dk =
      __builtin_bit_cast(D, ((bits >> 52) + (i >> 52)) | kTwo52Bits) -
      kTwo52PlusBias;
  const D f = m - 1.0;
  const D hfsq = 0.5 * f * f;
  const D s = f / (2.0 + f);
  const D s2 = s * s;
  const D s4 = s2 * s2;
  const D t1 = s4 * (kLg2 + s4 * (kLg4 + s4 * kLg6));
  const D t2 = s2 * (kLg1 + s4 * (kLg3 + s4 * (kLg5 + s4 * kLg7)));
  const D ln_u =
      dk * kLn2Hi - ((hfsq - (s * (hfsq + (t2 + t1)) + dk * kLn2Lo)) - f);
  r2 = -2.0 * ln_u;

  // sin and cos of x in [-pi/4, pi/4).
  const D x =
      (__builtin_bit_cast(D, ((w2 >> 10) & kMantissa) | kOneBits) - 1.5) *
      kPiOver2;
  const D z = x * x;
  const D v = z * x;
  const D sr = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const D sin_x = x + v * (kS1 + z * sr);
  const D cr =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const D hz = 0.5 * z;
  const D cw = 1.0 - hz;
  const D cos_x = cw + (((1.0 - cw) - hz) + z * cr);

  // Quadrant q = top two bits: bit 62 swaps cos/sin, bit 63 negates sin,
  // bit 63 ^ bit 62 negates cos.
  const U swap = U{} - ((w2 >> 62) & 1);  // all ones or all zeros
  const U cos_bits = __builtin_bit_cast(U, cos_x);
  const U sin_bits = __builtin_bit_cast(U, sin_x);
  const U a = (cos_bits & ~swap) | (sin_bits & swap);
  const U b = (sin_bits & ~swap) | (cos_bits & swap);
  cos_t = __builtin_bit_cast(D, a ^ ((w2 ^ (w2 << 1)) & kSignBit));
  sin_t = __builtin_bit_cast(D, b ^ (w2 & kSignBit));
}

// splitmix state of word 1 of pair `pair`.
std::uint64_t PairState(std::uint64_t key, std::uint64_t pair) {
  return key + (2 * pair + 1) * kGamma;
}

// out = (stddev r cos theta, stddev r sin theta) + 0.0 (no -0.0 at stddev 0).
void GaussianPairScalar(std::uint64_t state, double stddev, double* out) {
  double r2, cos_t, sin_t;
  PolarParts(state, r2, cos_t, sin_t);
  const double rs = std::sqrt(r2) * stddev;
  out[0] = rs * cos_t + 0.0;
  out[1] = rs * sin_t + 0.0;
}

void GaussianFillScalar(std::uint64_t key, std::uint64_t first, double* out,
                        std::size_t n, double stddev) {
  for (std::size_t k = 0; k < n; ++k) {
    GaussianPairScalar(PairState(key, first + k), stddev, out + 2 * k);
  }
}

constexpr Kernels kScalarKernels{MacRotateScalar,    MacOnlyScalar,
                                 RotateOnlyScalar,   WalkScalar,
                                 PathCombScalar,     GaussianFillScalar,
                                 Isa::kScalar};

// The per-path operands of one path_comb call.
struct PathArrays {
  const double* base_re;
  const double* base_im;
  const double* step_re;
  const double* step_im;
  const double* mag;
  std::size_t paths;

  std::size_t chunks() const {
    return (paths + kPathCombChunk - 1) / kPathCombChunk;
  }
};

// Lane layout of the vector path-comb variants: lane c of every vector holds
// chunk g0 + c of a group of W chunks, and lane slot l of those chunks is
// its own vector, so a chunk's left-to-right lane sum becomes kPathCombChunk
// vector adds. Lanes past the group's live chunks are all idle lanes; they
// run but never fold into the output.
template <std::size_t W>
struct CombLanes {
  alignas(64) double rot_re[kPathCombChunk][W];
  alignas(64) double rot_im[kPathCombChunk][W];
  alignas(64) double step_re[kPathCombChunk][W];
  alignas(64) double step_im[kPathCombChunk][W];
  alignas(64) double mag[kPathCombChunk][W];
  std::size_t chunks = 0;  // live chunks in this group, <= W
};

// Comb steps per block: a block's chunk sums are staged, then folded. A
// divisor of kPathCombRenorm, so renormalization falls on block ends.
constexpr std::size_t kCombBlock = 32;
static_assert(kPathCombRenorm % kCombBlock == 0);

template <std::size_t W>
struct CombSums {
  alignas(64) double re[kCombBlock][W];
  alignas(64) double im[kCombBlock][W];
};

template <std::size_t W>
void LoadCombLanes(const PathArrays& a, std::size_t g0, std::size_t live,
                   CombLanes<W>& g) {
  g.chunks = live;
  for (std::size_t l = 0; l < kPathCombChunk; ++l) {
    for (std::size_t c = 0; c < W; ++c) {
      const std::size_t p = (g0 + c) * kPathCombChunk + l;
      const bool on = c < live && p < a.paths;
      g.rot_re[l][c] = on ? a.base_re[p] : 0.0;
      g.rot_im[l][c] = on ? a.base_im[p] : 0.0;
      g.step_re[l][c] = on ? a.step_re[p] : 1.0;
      g.step_im[l][c] = on ? a.step_im[p] : 0.0;
      g.mag[l][c] = on ? a.mag[p] : 0.0;
    }
  }
}

template <std::size_t W>
void RenormCombLanes(CombLanes<W>& g) {
  for (std::size_t l = 0; l < kPathCombChunk; ++l) {
    for (std::size_t c = 0; c < W; ++c) {
      const double cur = std::hypot(g.rot_re[l][c], g.rot_im[l][c]);
      if (cur > 0.0) {
        const double scale = g.mag[l][c] / cur;
        g.rot_re[l][c] *= scale;
        g.rot_im[l][c] *= scale;
      }
    }
  }
}

// Runs every chunk in groups of W on a vector block: `block(g, n, sums)`
// advances every lane n <= kCombBlock steps from g's rotors (stored back on
// return) and writes each step's chunk sums to sums. Groups run in path
// order and each folds its live chunks in lane order, so out[k] sees the
// scalar variant's chunk order.
template <std::size_t W, typename Block>
void PathCombGroups(const PathArrays& a, double* out, std::size_t count,
                    Block block) {
  CombLanes<W> g;
  CombSums<W> sums;
  const std::size_t chunks = a.chunks();
  for (std::size_t g0 = 0; g0 < chunks; g0 += W) {
    LoadCombLanes(a, g0, std::min(W, chunks - g0), g);
    for (std::size_t k0 = 0; k0 < count; k0 += kCombBlock) {
      const std::size_t n = std::min(kCombBlock, count - k0);
      block(g, n, sums);
      for (std::size_t k = 0; k < n; ++k) {
        double re = out[2 * (k0 + k)];
        double im = out[2 * (k0 + k) + 1];
        for (std::size_t c = 0; c < g.chunks; ++c) {
          re += sums.re[k][c];
          im += sums.im[k][c];
        }
        out[2 * (k0 + k)] = re;
        out[2 * (k0 + k) + 1] = im;
      }
      if ((k0 + n) % kPathCombRenorm == 0) RenormCombLanes(g);
    }
  }
}

#if defined(BLOC_SIMD_X86)

// GCC vector types for the gaussian_fill body (PolarParts): the same
// source that runs on double / uint64_t in the scalar variant runs on 4- and
// 8-lane vectors below.
typedef double V4d __attribute__((vector_size(32)));
typedef std::uint64_t V4u __attribute__((vector_size(32)));
typedef double V8d __attribute__((vector_size(64)));
typedef std::uint64_t V8u __attribute__((vector_size(64)));

// ---------------------------------------------------------------------------
// AVX2: 4 doubles per lane group. _mm256_mul_pd/_mm256_add_pd/_mm256_sub_pd
// mirror the scalar expression tree exactly (no _mm256_fmadd_pd).

__attribute__((target("avx2"))) void MacRotateAvx2(
    double a_re, double a_im, const double* step_re, const double* step_im,
    double* cur_re, double* cur_im, double* acc_re, double* acc_im,
    std::size_t n) {
  const __m256d ar = _mm256_set1_pd(a_re);
  const __m256d ai = _mm256_set1_pd(a_im);
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d r = _mm256_loadu_pd(cur_re + c);
    const __m256d i = _mm256_loadu_pd(cur_im + c);
    const __m256d sr = _mm256_loadu_pd(step_re + c);
    const __m256d si = _mm256_loadu_pd(step_im + c);
    _mm256_storeu_pd(
        acc_re + c,
        _mm256_add_pd(_mm256_loadu_pd(acc_re + c),
                      _mm256_sub_pd(_mm256_mul_pd(ar, r),
                                    _mm256_mul_pd(ai, i))));
    _mm256_storeu_pd(
        acc_im + c,
        _mm256_add_pd(_mm256_loadu_pd(acc_im + c),
                      _mm256_add_pd(_mm256_mul_pd(ar, i),
                                    _mm256_mul_pd(ai, r))));
    _mm256_storeu_pd(cur_re + c, _mm256_sub_pd(_mm256_mul_pd(r, sr),
                                               _mm256_mul_pd(i, si)));
    _mm256_storeu_pd(cur_im + c, _mm256_add_pd(_mm256_mul_pd(r, si),
                                               _mm256_mul_pd(i, sr)));
  }
  MacRotateScalar(a_re, a_im, step_re + c, step_im + c, cur_re + c, cur_im + c,
                  acc_re + c, acc_im + c, n - c);
}

__attribute__((target("avx2"))) void MacOnlyAvx2(double a_re, double a_im,
                                                 const double* cur_re,
                                                 const double* cur_im,
                                                 double* acc_re,
                                                 double* acc_im,
                                                 std::size_t n) {
  const __m256d ar = _mm256_set1_pd(a_re);
  const __m256d ai = _mm256_set1_pd(a_im);
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d r = _mm256_loadu_pd(cur_re + c);
    const __m256d i = _mm256_loadu_pd(cur_im + c);
    _mm256_storeu_pd(
        acc_re + c,
        _mm256_add_pd(_mm256_loadu_pd(acc_re + c),
                      _mm256_sub_pd(_mm256_mul_pd(ar, r),
                                    _mm256_mul_pd(ai, i))));
    _mm256_storeu_pd(
        acc_im + c,
        _mm256_add_pd(_mm256_loadu_pd(acc_im + c),
                      _mm256_add_pd(_mm256_mul_pd(ar, i),
                                    _mm256_mul_pd(ai, r))));
  }
  MacOnlyScalar(a_re, a_im, cur_re + c, cur_im + c, acc_re + c, acc_im + c,
                n - c);
}

__attribute__((target("avx2"))) void RotateOnlyAvx2(const double* step_re,
                                                    const double* step_im,
                                                    double* cur_re,
                                                    double* cur_im,
                                                    std::size_t n) {
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d r = _mm256_loadu_pd(cur_re + c);
    const __m256d i = _mm256_loadu_pd(cur_im + c);
    const __m256d sr = _mm256_loadu_pd(step_re + c);
    const __m256d si = _mm256_loadu_pd(step_im + c);
    _mm256_storeu_pd(cur_re + c, _mm256_sub_pd(_mm256_mul_pd(r, sr),
                                               _mm256_mul_pd(i, si)));
    _mm256_storeu_pd(cur_im + c, _mm256_add_pd(_mm256_mul_pd(r, si),
                                               _mm256_mul_pd(i, sr)));
  }
  RotateOnlyScalar(step_re + c, step_im + c, cur_re + c, cur_im + c, n - c);
}

// One 8-cell block of the AVX2 walk: 2 independent rotation chains of 4
// lanes. Two chains hide the rotate's multiply latency while staying inside
// the 16 ymm registers (4 step rotors + 4 cur + 4 acc + 2 broadcasts = 14
// live).
__attribute__((target("avx2"))) inline void WalkAvx2Block8(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im) {
  __m256d r0 = _mm256_loadu_pd(base_re);
  __m256d i0 = _mm256_loadu_pd(base_im);
  __m256d r1 = _mm256_loadu_pd(base_re + 4);
  __m256d i1 = _mm256_loadu_pd(base_im + 4);
  const __m256d sr0 = _mm256_loadu_pd(step_re);
  const __m256d si0 = _mm256_loadu_pd(step_im);
  const __m256d sr1 = _mm256_loadu_pd(step_re + 4);
  const __m256d si1 = _mm256_loadu_pd(step_im + 4);
  __m256d ar0 = _mm256_setzero_pd();
  __m256d ai0 = _mm256_setzero_pd();
  __m256d ar1 = _mm256_setzero_pd();
  __m256d ai1 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < steps; ++k) {
    const double a_re = comb[2 * k];
    const double a_im = comb[2 * k + 1];
    if (a_re != 0.0 || a_im != 0.0) {
      const __m256d va = _mm256_set1_pd(a_re);
      const __m256d vb = _mm256_set1_pd(a_im);
      ar0 = _mm256_add_pd(ar0, _mm256_sub_pd(_mm256_mul_pd(va, r0),
                                             _mm256_mul_pd(vb, i0)));
      ai0 = _mm256_add_pd(ai0, _mm256_add_pd(_mm256_mul_pd(va, i0),
                                             _mm256_mul_pd(vb, r0)));
      ar1 = _mm256_add_pd(ar1, _mm256_sub_pd(_mm256_mul_pd(va, r1),
                                             _mm256_mul_pd(vb, i1)));
      ai1 = _mm256_add_pd(ai1, _mm256_add_pd(_mm256_mul_pd(va, i1),
                                             _mm256_mul_pd(vb, r1)));
    }
    if (k + 1 != steps) {
      const __m256d p0 = r0;
      r0 = _mm256_sub_pd(_mm256_mul_pd(p0, sr0), _mm256_mul_pd(i0, si0));
      i0 = _mm256_add_pd(_mm256_mul_pd(p0, si0), _mm256_mul_pd(i0, sr0));
      const __m256d p1 = r1;
      r1 = _mm256_sub_pd(_mm256_mul_pd(p1, sr1), _mm256_mul_pd(i1, si1));
      i1 = _mm256_add_pd(_mm256_mul_pd(p1, si1), _mm256_mul_pd(i1, sr1));
    }
  }
  _mm256_storeu_pd(acc_re, ar0);
  _mm256_storeu_pd(acc_im, ai0);
  _mm256_storeu_pd(acc_re + 4, ar1);
  _mm256_storeu_pd(acc_im + 4, ai1);
}

__attribute__((target("avx2"))) void WalkAvx2(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im, std::size_t n) {
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    WalkAvx2Block8(comb, steps, base_re + c, base_im + c, step_re + c,
                   step_im + c, acc_re + c, acc_im + c);
  }
  if (c == n) return;
  if (n >= 8) {
    // Overlapped tail: the walk is pure per cell (acc[c] is a function of
    // base[c]/step[c]/comb only), so re-running the final full-width block
    // shifted to end exactly at n rewrites the overlap with identical bits
    // and keeps the remainder at full vector throughput.
    c = n - 8;
    WalkAvx2Block8(comb, steps, base_re + c, base_im + c, step_re + c,
                   step_im + c, acc_re + c, acc_im + c);
    return;
  }
  // n < 8: 4-cell chunk as one chain, then scalar.
  for (; c + 4 <= n; c += 4) {
    __m256d r0 = _mm256_loadu_pd(base_re + c);
    __m256d i0 = _mm256_loadu_pd(base_im + c);
    const __m256d sr0 = _mm256_loadu_pd(step_re + c);
    const __m256d si0 = _mm256_loadu_pd(step_im + c);
    __m256d ar0 = _mm256_setzero_pd();
    __m256d ai0 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < steps; ++k) {
      const double a_re = comb[2 * k];
      const double a_im = comb[2 * k + 1];
      if (a_re != 0.0 || a_im != 0.0) {
        const __m256d va = _mm256_set1_pd(a_re);
        const __m256d vb = _mm256_set1_pd(a_im);
        ar0 = _mm256_add_pd(ar0, _mm256_sub_pd(_mm256_mul_pd(va, r0),
                                               _mm256_mul_pd(vb, i0)));
        ai0 = _mm256_add_pd(ai0, _mm256_add_pd(_mm256_mul_pd(va, i0),
                                               _mm256_mul_pd(vb, r0)));
      }
      if (k + 1 != steps) {
        const __m256d p0 = r0;
        r0 = _mm256_sub_pd(_mm256_mul_pd(p0, sr0), _mm256_mul_pd(i0, si0));
        i0 = _mm256_add_pd(_mm256_mul_pd(p0, si0), _mm256_mul_pd(i0, sr0));
      }
    }
    _mm256_storeu_pd(acc_re + c, ar0);
    _mm256_storeu_pd(acc_im + c, ai0);
  }
  WalkScalar(comb, steps, base_re + c, base_im + c, step_re + c, step_im + c,
             acc_re + c, acc_im + c, n - c);
}

// One block of the AVX2 path comb: 4 chunks per vector, the same per-lane
// sum and rotor update as PathCombScalar.
__attribute__((target("avx2"))) void PathCombBlockAvx2(CombLanes<4>& g,
                                                       std::size_t n,
                                                       CombSums<4>& sums) {
  __m256d rr[kPathCombChunk], ri[kPathCombChunk];
  for (std::size_t l = 0; l < kPathCombChunk; ++l) {
    rr[l] = _mm256_load_pd(g.rot_re[l]);
    ri[l] = _mm256_load_pd(g.rot_im[l]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    __m256d acc_re = _mm256_setzero_pd();
    __m256d acc_im = _mm256_setzero_pd();
    for (std::size_t l = 0; l < kPathCombChunk; ++l) {
      acc_re = _mm256_add_pd(acc_re, rr[l]);
      acc_im = _mm256_add_pd(acc_im, ri[l]);
      const __m256d sr = _mm256_load_pd(g.step_re[l]);
      const __m256d si = _mm256_load_pd(g.step_im[l]);
      const __m256d p = rr[l];
      rr[l] = _mm256_sub_pd(_mm256_mul_pd(p, sr), _mm256_mul_pd(ri[l], si));
      ri[l] = _mm256_add_pd(_mm256_mul_pd(p, si), _mm256_mul_pd(ri[l], sr));
    }
    _mm256_store_pd(sums.re[k], acc_re);
    _mm256_store_pd(sums.im[k], acc_im);
  }
  for (std::size_t l = 0; l < kPathCombChunk; ++l) {
    _mm256_store_pd(g.rot_re[l], rr[l]);
    _mm256_store_pd(g.rot_im[l], ri[l]);
  }
}

void PathCombAvx2(const double* base_re, const double* base_im,
                  const double* step_re, const double* step_im,
                  const double* mag, std::size_t paths, double* out,
                  std::size_t count) {
  const PathArrays a{base_re, base_im, step_re, step_im, mag, paths};
  PathCombGroups<4>(a, out, count, PathCombBlockAvx2);
}

// AVX2 Gaussian fill: lane l of a vector holds pair k + l; the body is
// PolarParts on 4-lane vectors, so lanes and the scalar tail share its bits.
__attribute__((target("avx2"))) void GaussianFillAvx2(std::uint64_t key,
                                                      std::uint64_t first,
                                                      double* out,
                                                      std::size_t n,
                                                      double stddev) {
  const std::uint64_t s0 = PairState(key, first);
  V4u state = {s0, s0 + 2 * kGamma, s0 + 4 * kGamma, s0 + 6 * kGamma};
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    V4d r2, cos_t, sin_t;
    PolarParts(state, r2, cos_t, sin_t);
    const V4d rs = V4d(_mm256_sqrt_pd(r2)) * stddev;
    const V4d re = rs * cos_t + 0.0;
    const V4d im = rs * sin_t + 0.0;
    const __m256d lo = _mm256_unpacklo_pd(re, im);  // pairs 0 and 2
    const __m256d hi = _mm256_unpackhi_pd(re, im);  // pairs 1 and 3
    _mm256_storeu_pd(out + 2 * k, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 2 * k + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    state += 8 * kGamma;
  }
  for (; k < n; ++k) {
    GaussianPairScalar(PairState(key, first + k), stddev, out + 2 * k);
  }
}

constexpr Kernels kAvx2Kernels{MacRotateAvx2,    MacOnlyAvx2,
                               RotateOnlyAvx2,   WalkAvx2,
                               PathCombAvx2,     GaussianFillAvx2,
                               Isa::kAvx2};

// ---------------------------------------------------------------------------
// AVX-512F: 8 doubles per lane group, same expression tree.

__attribute__((target("avx512f"))) void MacRotateAvx512(
    double a_re, double a_im, const double* step_re, const double* step_im,
    double* cur_re, double* cur_im, double* acc_re, double* acc_im,
    std::size_t n) {
  const __m512d ar = _mm512_set1_pd(a_re);
  const __m512d ai = _mm512_set1_pd(a_im);
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512d r = _mm512_loadu_pd(cur_re + c);
    const __m512d i = _mm512_loadu_pd(cur_im + c);
    const __m512d sr = _mm512_loadu_pd(step_re + c);
    const __m512d si = _mm512_loadu_pd(step_im + c);
    _mm512_storeu_pd(
        acc_re + c,
        _mm512_add_pd(_mm512_loadu_pd(acc_re + c),
                      _mm512_sub_pd(_mm512_mul_pd(ar, r),
                                    _mm512_mul_pd(ai, i))));
    _mm512_storeu_pd(
        acc_im + c,
        _mm512_add_pd(_mm512_loadu_pd(acc_im + c),
                      _mm512_add_pd(_mm512_mul_pd(ar, i),
                                    _mm512_mul_pd(ai, r))));
    _mm512_storeu_pd(cur_re + c, _mm512_sub_pd(_mm512_mul_pd(r, sr),
                                               _mm512_mul_pd(i, si)));
    _mm512_storeu_pd(cur_im + c, _mm512_add_pd(_mm512_mul_pd(r, si),
                                               _mm512_mul_pd(i, sr)));
  }
  MacRotateScalar(a_re, a_im, step_re + c, step_im + c, cur_re + c, cur_im + c,
                  acc_re + c, acc_im + c, n - c);
}

__attribute__((target("avx512f"))) void MacOnlyAvx512(double a_re, double a_im,
                                                      const double* cur_re,
                                                      const double* cur_im,
                                                      double* acc_re,
                                                      double* acc_im,
                                                      std::size_t n) {
  const __m512d ar = _mm512_set1_pd(a_re);
  const __m512d ai = _mm512_set1_pd(a_im);
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512d r = _mm512_loadu_pd(cur_re + c);
    const __m512d i = _mm512_loadu_pd(cur_im + c);
    _mm512_storeu_pd(
        acc_re + c,
        _mm512_add_pd(_mm512_loadu_pd(acc_re + c),
                      _mm512_sub_pd(_mm512_mul_pd(ar, r),
                                    _mm512_mul_pd(ai, i))));
    _mm512_storeu_pd(
        acc_im + c,
        _mm512_add_pd(_mm512_loadu_pd(acc_im + c),
                      _mm512_add_pd(_mm512_mul_pd(ar, i),
                                    _mm512_mul_pd(ai, r))));
  }
  MacOnlyScalar(a_re, a_im, cur_re + c, cur_im + c, acc_re + c, acc_im + c,
                n - c);
}

__attribute__((target("avx512f"))) void RotateOnlyAvx512(const double* step_re,
                                                         const double* step_im,
                                                         double* cur_re,
                                                         double* cur_im,
                                                         std::size_t n) {
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512d r = _mm512_loadu_pd(cur_re + c);
    const __m512d i = _mm512_loadu_pd(cur_im + c);
    const __m512d sr = _mm512_loadu_pd(step_re + c);
    const __m512d si = _mm512_loadu_pd(step_im + c);
    _mm512_storeu_pd(cur_re + c, _mm512_sub_pd(_mm512_mul_pd(r, sr),
                                               _mm512_mul_pd(i, si)));
    _mm512_storeu_pd(cur_im + c, _mm512_add_pd(_mm512_mul_pd(r, si),
                                               _mm512_mul_pd(i, sr)));
  }
  RotateOnlyScalar(step_re + c, step_im + c, cur_re + c, cur_im + c, n - c);
}

// One 32-cell block of the AVX-512 walk: 4 independent rotation chains of 8
// lanes; 26 of the 32 zmm registers stay live.
__attribute__((target("avx512f"))) inline void WalkAvx512Block32(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im) {
  __m512d r[4], i[4], ar[4], ai[4];
  __m512d sr[4], si[4];
  for (std::size_t u = 0; u < 4; ++u) {
    r[u] = _mm512_loadu_pd(base_re + 8 * u);
    i[u] = _mm512_loadu_pd(base_im + 8 * u);
    sr[u] = _mm512_loadu_pd(step_re + 8 * u);
    si[u] = _mm512_loadu_pd(step_im + 8 * u);
    ar[u] = _mm512_setzero_pd();
    ai[u] = _mm512_setzero_pd();
  }
  for (std::size_t k = 0; k < steps; ++k) {
    const double a_re = comb[2 * k];
    const double a_im = comb[2 * k + 1];
    if (a_re != 0.0 || a_im != 0.0) {
      const __m512d va = _mm512_set1_pd(a_re);
      const __m512d vb = _mm512_set1_pd(a_im);
      for (std::size_t u = 0; u < 4; ++u) {
        ar[u] = _mm512_add_pd(ar[u], _mm512_sub_pd(_mm512_mul_pd(va, r[u]),
                                                   _mm512_mul_pd(vb, i[u])));
        ai[u] = _mm512_add_pd(ai[u], _mm512_add_pd(_mm512_mul_pd(va, i[u]),
                                                   _mm512_mul_pd(vb, r[u])));
      }
    }
    if (k + 1 != steps) {
      for (std::size_t u = 0; u < 4; ++u) {
        const __m512d p = r[u];
        r[u] = _mm512_sub_pd(_mm512_mul_pd(p, sr[u]),
                             _mm512_mul_pd(i[u], si[u]));
        i[u] = _mm512_add_pd(_mm512_mul_pd(p, si[u]),
                             _mm512_mul_pd(i[u], sr[u]));
      }
    }
  }
  for (std::size_t u = 0; u < 4; ++u) {
    _mm512_storeu_pd(acc_re + 8 * u, ar[u]);
    _mm512_storeu_pd(acc_im + 8 * u, ai[u]);
  }
}

__attribute__((target("avx512f"))) void WalkAvx512(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im, std::size_t n) {
  std::size_t c = 0;
  for (; c + 32 <= n; c += 32) {
    WalkAvx512Block32(comb, steps, base_re + c, base_im + c, step_re + c,
                      step_im + c, acc_re + c, acc_im + c);
  }
  if (c == n) return;
  if (n >= 32) {
    // Overlapped tail: the walk is pure per cell (acc[c] is a function of
    // base[c]/step[c]/comb only), so re-running the final full-width block
    // shifted to end exactly at n rewrites the overlap with identical bits
    // and keeps the remainder at full vector throughput.
    c = n - 32;
    WalkAvx512Block32(comb, steps, base_re + c, base_im + c, step_re + c,
                      step_im + c, acc_re + c, acc_im + c);
    return;
  }
  // n < 32: 8-cell chunks as one chain, then scalar.
  for (; c + 8 <= n; c += 8) {
    __m512d r0 = _mm512_loadu_pd(base_re + c);
    __m512d i0 = _mm512_loadu_pd(base_im + c);
    const __m512d sr0 = _mm512_loadu_pd(step_re + c);
    const __m512d si0 = _mm512_loadu_pd(step_im + c);
    __m512d ar0 = _mm512_setzero_pd();
    __m512d ai0 = _mm512_setzero_pd();
    for (std::size_t k = 0; k < steps; ++k) {
      const double a_re = comb[2 * k];
      const double a_im = comb[2 * k + 1];
      if (a_re != 0.0 || a_im != 0.0) {
        const __m512d va = _mm512_set1_pd(a_re);
        const __m512d vb = _mm512_set1_pd(a_im);
        ar0 = _mm512_add_pd(ar0, _mm512_sub_pd(_mm512_mul_pd(va, r0),
                                               _mm512_mul_pd(vb, i0)));
        ai0 = _mm512_add_pd(ai0, _mm512_add_pd(_mm512_mul_pd(va, i0),
                                               _mm512_mul_pd(vb, r0)));
      }
      if (k + 1 != steps) {
        const __m512d p0 = r0;
        r0 = _mm512_sub_pd(_mm512_mul_pd(p0, sr0), _mm512_mul_pd(i0, si0));
        i0 = _mm512_add_pd(_mm512_mul_pd(p0, si0), _mm512_mul_pd(i0, sr0));
      }
    }
    _mm512_storeu_pd(acc_re + c, ar0);
    _mm512_storeu_pd(acc_im + c, ai0);
  }
  WalkScalar(comb, steps, base_re + c, base_im + c, step_re + c, step_im + c,
             acc_re + c, acc_im + c, n - c);
}

// One block of the AVX-512 path comb: 8 chunks per vector.
__attribute__((target("avx512f"))) void PathCombBlockAvx512(
    CombLanes<8>& g, std::size_t n, CombSums<8>& sums) {
  __m512d rr[kPathCombChunk], ri[kPathCombChunk];
  for (std::size_t l = 0; l < kPathCombChunk; ++l) {
    rr[l] = _mm512_load_pd(g.rot_re[l]);
    ri[l] = _mm512_load_pd(g.rot_im[l]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    __m512d acc_re = _mm512_setzero_pd();
    __m512d acc_im = _mm512_setzero_pd();
    for (std::size_t l = 0; l < kPathCombChunk; ++l) {
      acc_re = _mm512_add_pd(acc_re, rr[l]);
      acc_im = _mm512_add_pd(acc_im, ri[l]);
      const __m512d sr = _mm512_load_pd(g.step_re[l]);
      const __m512d si = _mm512_load_pd(g.step_im[l]);
      const __m512d p = rr[l];
      rr[l] = _mm512_sub_pd(_mm512_mul_pd(p, sr), _mm512_mul_pd(ri[l], si));
      ri[l] = _mm512_add_pd(_mm512_mul_pd(p, si), _mm512_mul_pd(ri[l], sr));
    }
    _mm512_store_pd(sums.re[k], acc_re);
    _mm512_store_pd(sums.im[k], acc_im);
  }
  for (std::size_t l = 0; l < kPathCombChunk; ++l) {
    _mm512_store_pd(g.rot_re[l], rr[l]);
    _mm512_store_pd(g.rot_im[l], ri[l]);
  }
}

void PathCombAvx512(const double* base_re, const double* base_im,
                    const double* step_re, const double* step_im,
                    const double* mag, std::size_t paths, double* out,
                    std::size_t count) {
  const PathArrays a{base_re, base_im, step_re, step_im, mag, paths};
  PathCombGroups<8>(a, out, count, PathCombBlockAvx512);
}

// AVX-512 Gaussian fill: PolarParts on 8-lane vectors; each store
// interleaves 4 pairs' (re, im) with one two-source permute.
__attribute__((target("avx512f"))) void GaussianFillAvx512(
    std::uint64_t key, std::uint64_t first, double* out, std::size_t n,
    double stddev) {
  const std::uint64_t s0 = PairState(key, first);
  V8u state;
  for (std::size_t l = 0; l < 8; ++l) state[l] = s0 + 2 * l * kGamma;
  const __m512i first_half = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
  const __m512i second_half = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    V8d r2, cos_t, sin_t;
    PolarParts(state, r2, cos_t, sin_t);
    // maskz: _mm512_sqrt_pd's undefined pass-through operand trips GCC's
    // -Wmaybe-uninitialized; an all-ones zero-mask is the same vsqrtpd.
    const V8d rs = V8d(_mm512_maskz_sqrt_pd(0xFF, r2)) * stddev;
    const V8d re = rs * cos_t + 0.0;
    const V8d im = rs * sin_t + 0.0;
    _mm512_storeu_pd(out + 2 * k, _mm512_permutex2var_pd(re, first_half, im));
    _mm512_storeu_pd(out + 2 * k + 8,
                     _mm512_permutex2var_pd(re, second_half, im));
    state += 16 * kGamma;
  }
  for (; k < n; ++k) {
    GaussianPairScalar(PairState(key, first + k), stddev, out + 2 * k);
  }
}

constexpr Kernels kAvx512Kernels{MacRotateAvx512,  MacOnlyAvx512,
                                 RotateOnlyAvx512, WalkAvx512,
                                 PathCombAvx512,   GaussianFillAvx512,
                                 Isa::kAvx512};

#endif  // BLOC_SIMD_X86

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::optional<Isa> ParseIsa(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512") return Isa::kAvx512;
  return std::nullopt;
}

bool IsaSupported(Isa isa) {
#if defined(BLOC_SIMD_X86)
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

Isa BestSupported() {
  if (IsaSupported(Isa::kAvx512)) return Isa::kAvx512;
  if (IsaSupported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

Isa ResolveIsa(const char* force, Isa best) {
  if (force == nullptr) return best;
  const std::optional<Isa> wanted = ParseIsa(force);
  if (!wanted) return best;  // unrecognized spelling: ignore the override
  // Forcing wider than the CPU supports clamps down; forcing narrower is
  // always honored (every CPU can run the scalar kernels).
  return *wanted <= best ? *wanted : best;
}

const Kernels& ForIsa(Isa isa) {
#if defined(BLOC_SIMD_X86)
  switch (isa) {
    case Isa::kScalar:
      return kScalarKernels;
    case Isa::kAvx2:
      return kAvx2Kernels;
    case Isa::kAvx512:
      return kAvx512Kernels;
  }
#endif
  return kScalarKernels;
}

const Kernels& Active() {
  // Resolved exactly once; thread-safe via C++ static-init guarantees.
  static const Kernels& table =
      ForIsa(ResolveIsa(std::getenv("BLOC_FORCE_ISA"), BestSupported()));
  return table;
}

}  // namespace bloc::dsp::simd
