// Committed-baseline comparison for bench_perf --mode=regress.
//
// A BENCH_*.json file written by an earlier bench run (committed to the
// repo) is parsed back with obs::ParseJsonFile; RegressGate then compares
// freshly measured numbers against the recorded ones with noise-aware
// tolerances. Machine-independent ratios (speedups, fractions, parity
// counts) are gated by default; absolute timings only under --regress-abs,
// because CI machines and the machine that wrote the baseline differ.
//
// Tolerances widen with the baseline's own noise estimate: when a section
// carries a bench::Stats block, the allowed band grows by 2x its
// coefficient of variation (stddev/mean) — a metric that flapped when the
// baseline was recorded must not fail the gate for flapping the same way.
#pragma once

#include <cstddef>
#include <iostream>
#include <string>
#include <string_view>

#include "obs/json.h"

namespace bloc::bench {

/// Coefficient of variation of a bench::Stats block recorded in a baseline
/// section (0 when the block is absent or degenerate).
inline double BaselineCv(const obs::JsonValue& section,
                         std::string_view stats) {
  const obs::JsonValue* block = section.Path(stats);
  if (block == nullptr) return 0.0;
  const double mean = block->Number("mean");
  const double stddev = block->Number("stddev");
  return mean > 0.0 ? stddev / mean : 0.0;
}

/// Accumulates pass/fail comparisons against one or more baselines and
/// prints them in a fixed `[regress]` format the CI log greps.
class RegressGate {
 public:
  explicit RegressGate(double tol_pct) : tol_pct_(tol_pct) {}

  /// Gate a higher-is-better metric: fresh >= baseline * (1 - tol).
  /// `tol_pct_override` >= 0 replaces the global tolerance for this check
  /// (deterministic metrics like accuracy medians use a tighter band).
  void AtLeast(const std::string& name, double baseline, double fresh,
               double extra_cv = 0.0, double tol_pct_override = -1.0) {
    const double factor = 1.0 - Tolerance(extra_cv, tol_pct_override);
    Report(name, baseline, fresh, ">=", factor, fresh >= baseline * factor);
  }

  /// Gate a lower-is-better metric: fresh <= baseline * (1 + tol).
  void AtMost(const std::string& name, double baseline, double fresh,
              double extra_cv = 0.0, double tol_pct_override = -1.0) {
    const double factor = 1.0 + Tolerance(extra_cv, tol_pct_override);
    Report(name, baseline, fresh, "<=", factor, fresh <= baseline * factor);
  }

  /// Gate an absolute budget (no relative tolerance): fresh <= budget.
  void Budget(const std::string& name, double budget, double fresh) {
    Report(name, budget, fresh, nullptr, 0.0, fresh <= budget);
  }

  /// Gate an exact-zero invariant (parity mismatches, lost rounds).
  void Zero(const std::string& name, double fresh) {
    Report(name, 0.0, fresh, nullptr, 0.0, fresh == 0.0);
  }

  void Skip(const std::string& section, const std::string& why) {
    std::cout << "  [regress] " << section << ": skipped (" << why << ")\n";
  }

  bool ok() const { return failures_ == 0; }
  std::size_t failures() const { return failures_; }
  std::size_t checks() const { return checks_; }

 private:
  double Tolerance(double extra_cv, double tol_pct_override = -1.0) const {
    const double pct = tol_pct_override >= 0.0 ? tol_pct_override : tol_pct_;
    return pct / 100.0 + 2.0 * extra_cv;
  }

  /// One `[regress]` line; a relative check prints the bound it tested,
  /// e.g. "(>= 0.65 x baseline)".
  void Report(const std::string& name, double baseline, double fresh,
              const char* op, double factor, bool ok) {
    ++checks_;
    if (!ok) ++failures_;
    std::cout << "  [regress] " << name << ": baseline " << baseline
              << " fresh " << fresh;
    if (op != nullptr) {
      std::cout << " (" << op << " " << factor << " x baseline)";
    }
    std::cout << (ok ? "  OK" : "  FAIL") << "\n";
  }

  double tol_pct_;
  std::size_t checks_ = 0;
  std::size_t failures_ = 0;
};

}  // namespace bloc::bench
