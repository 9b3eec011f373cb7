// Radix-2 FFT, used to apply a frequency-selective channel transfer
// function to baseband waveforms in the full-PHY simulation mode.
//
// Two flavours: the original free-function `Fft` (computes twiddles on the
// fly via a rotor recurrence — fine for one-off transforms), and `FftPlan`,
// which precomputes the bit-reversal permutation and per-stage twiddle
// tables once per size. Plans break the serial w *= wlen dependency chain
// inside every butterfly block and halve the complex multiplies, which is
// what makes the measurement simulator's per-packet transforms cheap.
// `FftPlanCache` amortizes plan construction across the simulator the same
// way `SteeringPlanCache` amortizes steering geometry (DESIGN.md §5a/§5b).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>

#include "dsp/types.h"
#include "obs/metrics.h"

namespace bloc::dsp {

/// In-place FFT; size must be a power of two.
void Fft(std::span<cplx> data, bool inverse = false);

/// Next power of two >= n (minimum 1).
std::size_t NextPow2(std::size_t n) noexcept;

/// Frequency in Hz of FFT bin `k` for an n-point transform at sample rate
/// `fs` (negative for the upper half: standard baseband convention).
double BinFrequency(std::size_t k, std::size_t n, double fs) noexcept;

/// A planned n-point radix-2 transform: bit-reversal table plus exact
/// (direct sincos, no recurrence drift) twiddle factors for every stage.
/// Immutable after construction, so one plan can serve many threads.
class FftPlan {
 public:
  /// Throws std::invalid_argument unless `n` is a power of two (>= 1).
  explicit FftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// In-place transforms of exactly size() samples (throws otherwise).
  /// Match the free-function `Fft` contract: Inverse includes the 1/n scale.
  void Forward(std::span<cplx> data) const { Run(data, /*inverse=*/false); }
  void Inverse(std::span<cplx> data) const { Run(data, /*inverse=*/true); }

 private:
  void Run(std::span<cplx> data, bool inverse) const;

  std::size_t n_ = 1;
  std::vector<std::uint32_t> bitrev_;  // n entries
  // Forward-sign twiddles e^{-2*pi*i*k/len}, stages concatenated: stage
  // `len` occupies indices [len/2 - 1, len - 1). n-1 entries total.
  RVec tw_re_;
  RVec tw_im_;
};

/// Thread-safe keyed cache of FFT plans (key = transform size). Plans are
/// built at most once per size under the mutex and handed out as
/// shared_ptr<const>, so readers never synchronize after the build.
/// Every instance also feeds the registry counters
/// `dsp.fft_plan_cache.builds` / `.lookups` (DESIGN.md §5d).
class FftPlanCache {
 public:
  FftPlanCache();

  std::shared_ptr<const FftPlan> GetOrBuild(std::size_t n);

  /// Number of plans built (== distinct sizes seen). The amortization tests
  /// assert this stops growing after warm-up. Exact for this instance,
  /// unlike the process-wide `dsp.fft_plan_cache.*` registry counters
  /// (obs/metrics.h).
  std::size_t builds() const;
  /// Total lookups (hits + builds) on this instance.
  std::size_t lookups() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const FftPlan>> plans_;
  std::size_t builds_ = 0;
  std::size_t lookups_ = 0;
  obs::Counter& builds_metric_;
  obs::Counter& lookups_metric_;
};

/// Filters `x` through the transfer function `h_of_f` (baseband frequency in
/// Hz -> complex gain) by zero-padded FFT multiply. Returns a signal of the
/// same length as `x`.
CVec ApplyTransferFunction(std::span<const cplx> x, double sample_rate_hz,
                           const std::function<cplx(double)>& h_of_f);

/// Planned, allocation-free variant: `x_fft` is the cached forward
/// transform of the zero-padded signal and `h_bins` the per-bin complex
/// gains, both plan.size() long in standard FFT bin order (BinFrequency).
/// Writes x_fft .* h_bins into `work` and inverse-transforms it in place;
/// the first signal-length samples of `work` are the filtered signal.
/// Throws std::invalid_argument on any size mismatch.
void ApplyTransferFunction(const FftPlan& plan, std::span<const cplx> x_fft,
                           std::span<const cplx> h_bins,
                           std::span<cplx> work);

}  // namespace bloc::dsp
