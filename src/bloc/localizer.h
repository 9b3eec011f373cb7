// The full BLoc pipeline (paper §5): corrected channels -> per-anchor joint
// likelihood -> cross-anchor fusion -> multipath-rejecting peak selection.
//
// The pipeline is split into explicit stages (filter -> correct -> per-anchor
// spectra -> fuse -> score) that operate on a caller-owned
// LocalizerWorkspace, so steady-state localization reuses every buffer
// instead of reallocating per round. Localizer::Locate is the one place the
// stages run in sequence; LocalizationEngine (bloc/engine.h) calls it on a
// thread pool, fanning the per-anchor maps out over the pool's slots with
// bit-identical results.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "bloc/calibration.h"
#include "bloc/corrected_channel.h"
#include "bloc/multipath.h"
#include "bloc/spectra.h"
#include "bloc/steering_plan.h"
#include "dsp/grid2d.h"
#include "net/collector.h"

namespace bloc::dsp {
class ThreadPool;
}

namespace bloc::core {

struct LocalizerConfig {
  /// Search region; typically the room plus a small margin.
  dsp::GridSpec grid{0.0, 0.0, 6.0, 5.0, 0.075};
  ScoringConfig scoring;
  /// How the fused likelihood surface is searched (DESIGN.md §5e).
  SearchConfig search;
  /// Use only the first N antennas of each anchor (0 = all) — §8.4.
  std::size_t max_antennas = 0;
  /// Restrict to these data channels (empty = all present) — §8.5/8.6.
  std::vector<std::uint8_t> allowed_channels;
  /// Restrict to these anchors (empty = all; must include the master) — §8.3.
  std::vector<std::uint32_t> allowed_anchors;
  /// Retain the fused likelihood map in the result (costs memory).
  bool keep_map = false;
};

struct LocationResult {
  geom::Vec2 position;
  double score = 0.0;
  std::vector<ScoredPeak> peaks;
  std::size_t bands_used = 0;
  std::size_t anchors_used = 0;
  /// Present when LocalizerConfig::keep_map is set.
  std::shared_ptr<const dsp::Grid2D> fused_map;
};

/// Why a coarse-to-fine round ran exhaustively instead.
enum class FallbackReason : std::uint8_t {
  kNone = 0,        // the coarse path produced the map
  kConfig,          // inapplicable configuration (stride/inflation/threshold)
  kDegenerate,      // an anchor map or the fused surface had no positive max
  kFractionGuard,   // survivor set too large for pruning to pay
  kBoundViolation,  // a refined value exceeded its block bound (canary)
  kGateMiss,        // the search gate held no usable likelihood mass
};

/// Per-round outcome of the map stage's search, written by FusedMapInto and
/// read by the tests and the obs counters. "Cells" count (cell, anchor)
/// kernel evaluations; exhaustive rounds evaluate cells x anchors of them.
struct SearchStats {
  /// The coarse-to-fine path produced this round's map.
  bool used_coarse = false;
  /// Coarse search was requested but the round ran exhaustively (bound
  /// violation, degenerate map, or pruning not paying).
  bool fell_back = false;
  FallbackReason fallback_reason = FallbackReason::kNone;
  /// The survivor search ran inside LocalizerWorkspace::gate.
  bool gated = false;
  /// Why an active gate was abandoned this round (kGateMiss when the gated
  /// region was empty or degenerate; the round then re-ran ungated through
  /// the usual coarse -> exhaustive chain).
  FallbackReason gate_fallback = FallbackReason::kNone;
  std::size_t cells_evaluated = 0;
  std::size_t cells_pruned = 0;
  /// Blocks refined at full resolution (core + halo).
  std::size_t regions_refined = 0;
};

/// Scratch of the coarse-to-fine search (DESIGN.md §5e). Indexed by fuse-
/// order slot i and row-major block b; sized on first use and reused.
struct SearchScratch {
  std::vector<double> coarse;      // [i * blocks + b] raw coarse samples
  std::vector<double> bound;       // [i * blocks + b] inflated upper bounds
  std::vector<double> fused_coarse;  // [b] fused coarse samples and bounds
  std::vector<double> anchor_max;  // [i] exact per-anchor fine maximum M_i
  std::vector<double> values;      // per-anchor refined magnitudes
  std::vector<std::uint8_t> block_flag;  // 0 pruned, 1 core, 2 halo
  /// Survivor cells as contiguous row runs (see JointLikelihoodSpansInto);
  /// `values` holds the spans' kernel output concatenated in order.
  std::vector<CellSpan> spans;
  /// Branch-and-bound scratch of the exact per-anchor maximum: candidate
  /// blocks sorted by bound, the current batch's fine cells, each cell's
  /// owning block, and the kernel output.
  std::vector<std::uint32_t> cand;
  std::vector<std::uint32_t> cand_cells;
  std::vector<std::uint32_t> cand_cell_block;
  std::vector<double> cand_values;
  dsp::Grid2D parity_map;  // exhaustive map in parity mode
  SearchStats stats;
};

/// Optional per-round search gate (track-while-localize, DESIGN.md §5g):
/// when active, the coarse-to-fine search restricts the survivor search
/// to the blocks intersecting the square of half-width `radius_m` around
/// `center` — typically the Kalman prediction, sized by its covariance.
/// Refined cells keep the exhaustive path's exact per-cell values and the
/// per-anchor normalizers become the exact maxima over the gated region;
/// the map is zero outside. When the gate holds no usable likelihood mass
/// the round re-runs ungated (FallbackReason::kGateMiss is recorded in
/// SearchStats::gate_fallback). Ignored by the exhaustive search; with
/// `active` false the pipeline is bit-identical to the ungated path.
struct SearchGate {
  bool active = false;
  geom::Vec2 center;
  double radius_m = 0.0;
};

/// All per-round scratch of the staged pipeline. Owned by the caller (one
/// per engine worker); every buffer is reused round after round, so the
/// steady state performs no heap allocations for a fixed deployment shape.
struct LocalizerWorkspace {
  RoundView view;
  CorrectedChannels corrected;
  /// Anchor indices into `corrected.anchors` in fusion order (ascending
  /// anchor id) — fixed so threaded and serial runs fuse identically.
  std::vector<std::size_t> fuse_order;
  /// Per-anchor maps of the exhaustive search, in fuse order (one slot per
  /// anchor, so a fanned-out round computes them concurrently).
  std::vector<dsp::Grid2D> anchor_maps;
  /// Kernel scratch, one per fan-out slot (slot 0 when run inline).
  std::vector<SpectraWorkspace> spectra;
  /// Fused map, shared-ptr-owned so keep_map hands the round's map to the
  /// result without a deep copy; the next round allocates a fresh grid only
  /// if the previous one is still referenced by a result.
  std::shared_ptr<dsp::Grid2D> fused;
  /// Coarse-to-fine search scratch and per-round stats.
  SearchScratch search;
  /// Caller-set per-round search gate (see SearchGate). The search never
  /// mutates it; callers that gate one round must clear `active` after.
  SearchGate gate;

  /// Ensures `fused` exists and is not aliased by an outstanding result.
  dsp::Grid2D& EnsureFused() {
    if (!fused || fused.use_count() != 1) {
      fused = std::make_shared<dsp::Grid2D>();
    }
    return *fused;
  }
};

class Localizer {
 public:
  Localizer(Deployment deployment, LocalizerConfig config);

  /// Localizes the tag from one complete measurement round. Returns a
  /// sentinel result (score = 0, anchors_used = 0) when the round is empty
  /// or filtering removed every usable report.
  LocationResult Locate(const net::MeasurementRound& round) const;

  /// Allocation-free variant: all scratch lives in the caller's workspace.
  /// Bit-identical to Locate(round). With a `pool`, the exhaustive search
  /// computes the per-anchor maps across its slots (null runs them inline);
  /// the coarse-to-fine search is sequential and ignores it.
  LocationResult Locate(const net::MeasurementRound& round,
                        LocalizerWorkspace& ws,
                        const dsp::ThreadPool* pool = nullptr) const;

  /// The corrected channels after anchor/band filtering — exposed for
  /// diagnostics and the microbenchmarks.
  CorrectedChannels CorrectedFor(const net::MeasurementRound& round) const;

  /// Builds the fused (cross-anchor) likelihood map without peak selection,
  /// via the configured search. With SearchMode::kCoarseToFine the
  /// result is partial: exact in every refined block, zero elsewhere — peak
  /// selection over it is bit-identical (see DESIGN.md §5e).
  dsp::Grid2D FusedMap(const CorrectedChannels& corrected) const;

  /// Allocation-free map stage over an already-corrected round: (re)derives
  /// ws.fuse_order from ws.corrected and runs the configured search into
  /// ws.EnsureFused(), fanned out over `pool` as in Locate. The map-stage
  /// body of Locate, exposed for the benchmarks.
  void FusedMapInto(LocalizerWorkspace& ws,
                    const dsp::ThreadPool* pool = nullptr) const;

  // --- Pipeline stages, in execution order (Locate runs them in turn) ---

  /// Filter: selects the usable reports/bands of `round` into `view`
  /// (index lists, no copies). Drops reports from anchors that are not in
  /// the deployment or not allowed, and bands on a disallowed channel or
  /// holding a non-finite tag or master CSI sample. Returns false when
  /// nothing usable survives — no reports kept, or the master's report was
  /// filtered away — in which case the caller should emit the sentinel
  /// LocationResult.
  bool FilterInto(const net::MeasurementRound& round, RoundView& view) const;

  /// Correct: phase-offset-cancelled channels for the filtered view.
  void CorrectInto(const RoundView& view, CorrectedChannels& out) const;

  /// Fusion order over `corrected.anchors`: ascending anchor id.
  void FuseOrder(const CorrectedChannels& corrected,
                 std::vector<std::size_t>& order) const;

  /// Per-anchor spectra: the peak-normalized joint likelihood map of
  /// `corrected.anchors[anchor_index]`, written into `map` (reshaped to the
  /// configured grid). Safe to call concurrently for distinct anchors with
  /// distinct `map`/`ws`.
  void AnchorMapInto(const CorrectedChannels& corrected,
                     std::size_t anchor_index, dsp::Grid2D& map,
                     SpectraWorkspace& ws) const;

  /// The Eq. 17 evaluation inputs of `corrected.anchors[anchor_index]`
  /// under this deployment/config — what AnchorMapInto evaluates. Exposed
  /// for the coarse-to-fine search, which evaluates cell subsets directly,
  /// and for the reference oracles.
  SpectraInput SpectraInputFor(const CorrectedChannels& corrected,
                               std::size_t anchor_index) const;

  /// Score: multipath-rejecting peak selection over the fused map. When
  /// keep_map is configured the result shares `fused` (no deep copy), so
  /// callers that reuse the grid must re-acquire it via
  /// LocalizerWorkspace::EnsureFused before the next round.
  LocationResult ScoreFused(std::shared_ptr<const dsp::Grid2D> fused,
                            const CorrectedChannels& corrected) const;

  const Deployment& deployment() const { return deployment_; }
  const LocalizerConfig& config() const { return config_; }

  /// The steering-plan cache behind AnchorMapInto: created per Localizer,
  /// shared read-only by every thread that localizes through this instance
  /// (the engine's workers all hit this one cache).
  SteeringPlanCache& plan_cache() const { return *plan_cache_; }

 private:
  Deployment deployment_;
  LocalizerConfig config_;
  /// allowed_anchors, sorted for binary-search lookup in FilterInto.
  std::vector<std::uint32_t> allowed_anchors_sorted_;
  /// Direct-indexed allowed_channels membership (data channels are uint8).
  std::array<bool, 256> channel_allowed_{};
  bool filter_channels_ = false;
  std::shared_ptr<SteeringPlanCache> plan_cache_;
};

}  // namespace bloc::core
