#include "bloc/localizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "dsp/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bloc::core {

namespace {

bool AllFinite(std::span<const dsp::cplx> csi) {
  for (const dsp::cplx& v : csi) {
    if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) return false;
  }
  return true;
}

/// Registry handles for the localization stages, resolved once per process
/// (DESIGN.md §5d).
struct LocalizerMetrics {
  obs::Counter& rounds = obs::GetCounter("bloc.localizer.rounds");
  obs::Counter& empty_rounds = obs::GetCounter("bloc.localizer.empty_rounds");
  obs::Histogram& filter_us = obs::GetHistogram("bloc.localizer.filter_us");
  obs::Histogram& correct_us = obs::GetHistogram("bloc.localizer.correct_us");
  obs::Histogram& anchor_map_us =
      obs::GetHistogram("bloc.localizer.anchor_map_us");
  obs::Histogram& fuse_us = obs::GetHistogram("bloc.localizer.fuse_us");
  obs::Histogram& score_us = obs::GetHistogram("bloc.localizer.score_us");
  // Coarse-to-fine search (DESIGN.md §5e).
  obs::Counter& search_cells_evaluated =
      obs::GetCounter("bloc.search.cells_evaluated");
  obs::Counter& search_cells_pruned =
      obs::GetCounter("bloc.search.cells_pruned");
  obs::Counter& search_regions_refined =
      obs::GetCounter("bloc.search.regions_refined");
  obs::Counter& search_fallbacks = obs::GetCounter("bloc.search.fallbacks");
  obs::Counter& search_gated_rounds =
      obs::GetCounter("bloc.search.gated_rounds");
  obs::Counter& search_gate_misses =
      obs::GetCounter("bloc.search.gate_misses");
  obs::Counter& search_parity_failures =
      obs::GetCounter("bloc.search.parity_failures");
  obs::Histogram& search_coarse_us =
      obs::GetHistogram("bloc.search.coarse_us");
  obs::Histogram& search_refine_us =
      obs::GetHistogram("bloc.search.refine_us");

  static const LocalizerMetrics& Get() {
    static const LocalizerMetrics metrics;
    return metrics;
  }
};

/// The exhaustive map loop: every anchor's full-resolution map into
/// ws.anchor_maps[i] (fuse-order slot i), fanned out over `pool`'s slots or
/// run inline when it is null, then summed into `fused` in fuse order.
/// Floating-point addition is not associative, so fusing in ascending
/// anchor id — never in completion order — keeps the fused map
/// bit-identical however the maps were scheduled.
void ExhaustiveMapInto(const Localizer& loc, LocalizerWorkspace& ws,
                       dsp::Grid2D& fused, const dsp::ThreadPool* pool) {
  const LocalizerMetrics& metrics = LocalizerMetrics::Get();
  const std::size_t n = ws.fuse_order.size();
  if (ws.anchor_maps.size() < n) ws.anchor_maps.resize(n);
  const std::size_t slots = pool != nullptr ? pool->size() : 1;
  if (ws.spectra.size() < slots) ws.spectra.resize(slots);
  const auto map_one = [&](std::size_t i, std::size_t slot) {
    const std::size_t idx = ws.fuse_order[i];
    obs::TraceSpan span("localize.anchor_map", "bloc",
                        ws.corrected.anchors[idx].anchor_id);
    obs::ScopedTimer timer(metrics.anchor_map_us);
    loc.AnchorMapInto(ws.corrected, idx, ws.anchor_maps[i], ws.spectra[slot]);
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, map_one);
  } else {
    for (std::size_t i = 0; i < n; ++i) map_one(i, 0);
  }
  fused.Reset(loc.config().grid);
  obs::TraceSpan span("localize.fuse", "bloc");
  obs::ScopedTimer timer(metrics.fuse_us);
  for (std::size_t i = 0; i < n; ++i) fused.Add(ws.anchor_maps[i]);
}

/// The exhaustive search: every cell of every anchor map.
void ExhaustiveSearch(const Localizer& loc, LocalizerWorkspace& ws,
                      const dsp::ThreadPool* pool) {
  ws.search.stats = SearchStats{};
  dsp::Grid2D& fused = ws.EnsureFused();
  ExhaustiveMapInto(loc, ws, fused, pool);
  const std::size_t cells = fused.data().size() * ws.fuse_order.size();
  ws.search.stats.cells_evaluated = cells;
  LocalizerMetrics::Get().search_cells_evaluated.Inc(cells);
}

/// out[b] = inflation x max of `row` over the 3x3 block neighborhood.
void NeighborhoodMax(const double* row, std::size_t bcols,
                     std::size_t brows, double inflation,
                     double* out) {
  for (std::size_t br = 0; br < brows; ++br) {
    const std::size_t r0 = br > 0 ? br - 1 : 0;
    const std::size_t r1 = std::min(br + 1, brows - 1);
    for (std::size_t bc = 0; bc < bcols; ++bc) {
      const std::size_t c0 = bc > 0 ? bc - 1 : 0;
      const std::size_t c1 = std::min(bc + 1, bcols - 1);
      double m = 0.0;
      for (std::size_t r = r0; r <= r1; ++r) {
        for (std::size_t c = c0; c <= c1; ++c) {
          m = std::max(m, row[r * bcols + c]);
        }
      }
      out[br * bcols + bc] = inflation * m;
    }
  }
}

/// Max of `row` over the 3x3 block neighborhood of block `b` alone.
double NeighborhoodMaxAt(const double* row, std::size_t bcols,
                         std::size_t brows, std::size_t b) {
  const std::size_t br = b / bcols;
  const std::size_t bc = b % bcols;
  const std::size_t r0 = br > 0 ? br - 1 : 0;
  const std::size_t r1 = std::min(br + 1, brows - 1);
  const std::size_t c0 = bc > 0 ? bc - 1 : 0;
  const std::size_t c1 = std::min(bc + 1, bcols - 1);
  double m = 0.0;
  for (std::size_t r = r0; r <= r1; ++r) {
    for (std::size_t c = c0; c <= c1; ++c) {
      m = std::max(m, row[r * bcols + c]);
    }
  }
  return m;
}

/// The canary: every refined value must respect its block's upper bound,
/// or the bounds cannot be trusted for the blocks we did NOT refine.
/// Spans may wrap fine rows (full-width runs merge), so each chunk stops
/// at the nearer of the next block boundary and the row end.
bool CheckSpanBounds(const std::vector<CellSpan>& spans,
                     const std::vector<double>& values,
                     const double* bound, std::size_t stride,
                     std::size_t bcols, std::size_t fine_cols) {
  std::size_t off = 0;
  for (const CellSpan& sp : spans) {
    const double* v = values.data() + off;
    std::size_t cell = sp.begin;
    std::size_t t = 0;
    while (t < sp.length) {
      const std::size_t row = cell / fine_cols;
      const std::size_t col = cell % fine_cols;
      const std::size_t bc = col / stride;
      const std::size_t chunk = std::min(
          {sp.length - t, (bc + 1) * stride - col, fine_cols - col});
      const double limit = bound[(row / stride) * bcols + bc];
      for (std::size_t u = 0; u < chunk; ++u) {
        if (v[t + u] > limit) return false;
      }
      t += chunk;
      cell += chunk;
    }
    off += sp.length;
  }
  return true;
}

/// Blocks per JointLikelihoodCellsInto batch of the M_i descent: enough
/// to amortize the per-call comb build, small enough that a freshly
/// raised running max prunes the rest of the list before it is evaluated.
constexpr std::size_t kDescentBatchBlocks = 16;

/// Branch-and-bound exact per-anchor maximum. On entry `m` is a certified
/// lower bound on M_i (an exact fine-cell value of this anchor's map); on
/// true-return `m` is exactly M_i, assuming honest block bounds.
///
/// Candidates are the non-survivor blocks whose bound beats `m`, visited
/// in descending bound order; the descent stops at the first block whose
/// bound cannot beat the running max. If the true argmax block were still
/// unvisited at that point, its bound would satisfy m >= bound >= M_i >=
/// m, pinning m to M_i anyway — so the early stop is exact, not a
/// heuristic. On the fig9 workloads this touches a handful of blocks
/// where refining every candidate would touch half the grid (the
/// per-anchor fringe surfaces hold many near-maximal ridges).
///
/// Returns false when an evaluated cell exceeds its own block's bound
/// (the same canary as CheckSpanBounds): the bounds cannot be trusted,
/// so the round must fall back to the exhaustive path.
bool ExactAnchorMax(const SpectraInput& input,
                    const SteeringPlan& plan,
                    const SteeringLevel& level, const double* bound,
                    SearchScratch& s, double& m,
                    SpectraWorkspace& sws) {
  const std::size_t nb = level.num_blocks();
  s.cand.clear();
  for (std::size_t b = 0; b < nb; ++b) {
    if (s.block_flag[b] == 0 && bound[b] > m) {
      s.cand.push_back(static_cast<std::uint32_t>(b));
    }
  }
  std::sort(s.cand.begin(), s.cand.end(),
            [bound](std::uint32_t a, std::uint32_t b) {
              return bound[a] > bound[b];
            });
  std::size_t k = 0;
  while (k < s.cand.size() && bound[s.cand[k]] > m) {
    s.cand_cells.clear();
    s.cand_cell_block.clear();
    for (std::size_t taken = 0;
         k < s.cand.size() && taken < kDescentBatchBlocks; ++k, ++taken) {
      const std::uint32_t b = s.cand[k];
      if (bound[b] <= m) break;  // sorted: nothing later can beat m either
      level.AppendBlockCells(b % level.bcols, b / level.bcols,
                             s.cand_cells);
      s.cand_cell_block.resize(s.cand_cells.size(), b);
      ++s.stats.regions_refined;
    }
    if (s.cand_cells.empty()) break;
    s.cand_values.resize(s.cand_cells.size());
    JointLikelihoodCellsInto(input, plan, s.cand_cells,
                             s.cand_values.data(), sws);
    s.stats.cells_evaluated += s.cand_cells.size();
    for (std::size_t t = 0; t < s.cand_values.size(); ++t) {
      if (s.cand_values[t] > bound[s.cand_cell_block[t]]) return false;
      m = std::max(m, s.cand_values[t]);
    }
  }
  return true;
}

/// Marks every block within Chebyshev distance `halo` of a core block.
void DilateCore(std::vector<std::uint8_t>& flag, std::size_t bcols,
                std::size_t brows, std::size_t halo) {
  if (halo == 0) return;
  for (std::size_t br = 0; br < brows; ++br) {
    for (std::size_t bc = 0; bc < bcols; ++bc) {
      if (flag[br * bcols + bc] != 1) continue;
      const std::size_t r0 = br > halo ? br - halo : 0;
      const std::size_t r1 = std::min(br + halo, brows - 1);
      const std::size_t c0 = bc > halo ? bc - halo : 0;
      const std::size_t c1 = std::min(bc + halo, bcols - 1);
      for (std::size_t r = r0; r <= r1; ++r) {
        for (std::size_t c = c0; c <= c1; ++c) {
          if (flag[r * bcols + c] == 0) flag[r * bcols + c] = 2;
        }
      }
    }
  }
}

/// Runs the coarse-to-fine round; false means "fall back" (inapplicable
/// configuration, degenerate map, bound violation, pruning not paying,
/// or — with use_gate — a gate miss). ws.fused contents are unspecified
/// on false. With use_gate the survivor search, the per-anchor
/// normalizers and the refine set are restricted to the blocks
/// intersecting ws.gate (dilated by the scoring halo); every refined
/// value keeps the exhaustive path's exact per-cell arithmetic.
bool TryCoarse(const Localizer& loc, LocalizerWorkspace& ws,
               bool use_gate) {
  const LocalizerMetrics& metrics = LocalizerMetrics::Get();
  const LocalizerConfig& cfg = loc.config();
  const SearchConfig& sc = cfg.search;
  SearchScratch& s = ws.search;
  s.stats = SearchStats{};
  const std::size_t n_anchors = ws.fuse_order.size();
  s.stats.fallback_reason = FallbackReason::kConfig;
  if (n_anchors == 0) return false;
  // Stride 1 has nothing to prune.
  if (sc.coarse_stride < 2 || sc.bound_inflation < 1.0) return false;
  const double lambda = std::min(sc.refine_threshold, 1.0);
  if (!(lambda > 0.0)) return false;  // nothing prunable
  s.stats.fallback_reason = FallbackReason::kNone;

  if (ws.spectra.empty()) ws.spectra.resize(1);
  SpectraWorkspace& sws = ws.spectra[0];

  // --- Coarse level: exact fine-grid samples, one per block. ---
  std::vector<SpectraInput> inputs(n_anchors);
  std::vector<std::shared_ptr<const SteeringPlan>> plans(n_anchors);
  std::shared_ptr<const SteeringLevel> level;
  // The coarse span/timer cover sampling through survivor selection; they
  // are reset (recorded) before the refine pass starts its own.
  std::optional<obs::TraceSpan> coarse_span;
  coarse_span.emplace("search.coarse", "bloc");
  std::optional<obs::ScopedTimer> coarse_timer;
  coarse_timer.emplace(metrics.search_coarse_us);
  for (std::size_t i = 0; i < n_anchors; ++i) {
    inputs[i] = loc.SpectraInputFor(ws.corrected, ws.fuse_order[i]);
    plans[i] = loc.plan_cache().GetOrBuild(inputs[i], cfg.grid,
                                           sws.comb_step);
    if (i == 0) level = plans[i]->Level(sc.coarse_stride);
  }
  const std::size_t nb = level->num_blocks();
  const std::size_t total_cells = level->fine_cols * level->fine_rows;
  // Halo: peak neighborhoods (radius 2) and entropy windows (radius 3)
  // of any collected peak must be exact, so the core will be dilated by
  // enough block rings to cover the larger radius. Computed up front
  // because the gate's evaluation region needs it too.
  const std::size_t halo_cells = std::max(
      cfg.scoring.entropy_window_radius,
      cfg.scoring.peaks.neighborhood_radius);
  const std::size_t halo =
      (halo_cells + sc.coarse_stride - 1) / sc.coarse_stride;

  // The gate's block rectangles (full grid when ungated): the CORE rect
  // holds the survivor candidates; bounds are trusted on the core
  // dilated by the halo (where DilateCore may still mark blocks); coarse
  // samples are evaluated one further ring out so every trusted bound
  // sees its complete 3x3 neighborhood.
  std::size_t core_c0 = 0, core_c1 = level->bcols - 1;
  std::size_t core_r0 = 0, core_r1 = level->brows - 1;
  if (use_gate) {
    const SearchGate& gate = ws.gate;
    const dsp::GridSpec& grid = cfg.grid;
    if (!(gate.radius_m > 0.0)) {
      s.stats.fallback_reason = FallbackReason::kGateMiss;
      return false;
    }
    const double x0 = gate.center.x - gate.radius_m;
    const double x1 = gate.center.x + gate.radius_m;
    const double y0 = gate.center.y - gate.radius_m;
    const double y1 = gate.center.y + gate.radius_m;
    if (x1 < grid.x_min || x0 > grid.x_max || y1 < grid.y_min ||
        y0 > grid.y_max) {
      s.stats.fallback_reason = FallbackReason::kGateMiss;
      return false;
    }
    const auto block_of = [&](double v, double lo, std::size_t blocks) {
      const double c = std::floor((v - lo) / grid.resolution);
      const double b = std::clamp(c, 0.0, 1e18) /
                       static_cast<double>(sc.coarse_stride);
      return std::min(static_cast<std::size_t>(b), blocks - 1);
    };
    core_c0 = block_of(x0, grid.x_min, level->bcols);
    core_c1 = block_of(x1, grid.x_min, level->bcols);
    core_r0 = block_of(y0, grid.y_min, level->brows);
    core_r1 = block_of(y1, grid.y_min, level->brows);
  }
  const auto dilate_lo = [](std::size_t v, std::size_t by) {
    return v > by ? v - by : 0;
  };
  const auto dilate_hi = [](std::size_t v, std::size_t by,
                            std::size_t max) {
    return std::min(v + by, max);
  };
  // Bounds are trusted on the core + halo rect; samples cover one more.
  const std::size_t bnd_c0 = dilate_lo(core_c0, halo);
  const std::size_t bnd_c1 = dilate_hi(core_c1, halo, level->bcols - 1);
  const std::size_t bnd_r0 = dilate_lo(core_r0, halo);
  const std::size_t bnd_r1 = dilate_hi(core_r1, halo, level->brows - 1);
  const std::size_t ev_c0 = dilate_lo(bnd_c0, 1);
  const std::size_t ev_c1 = dilate_hi(bnd_c1, 1, level->bcols - 1);
  const std::size_t ev_r0 = dilate_lo(bnd_r0, 1);
  const std::size_t ev_r1 = dilate_hi(bnd_r1, 1, level->brows - 1);
  const bool gated = use_gate &&
                     !(ev_c0 == 0 && ev_r0 == 0 &&
                       ev_c1 == level->bcols - 1 &&
                       ev_r1 == level->brows - 1);
  s.stats.gated = gated;

  s.bound.resize(n_anchors * nb);
  s.anchor_max.resize(n_anchors);
  if (gated) {
    // Evaluate only the gate's sample cells and scatter them into the
    // (zeroed) coarse level; unevaluated blocks stay at zero and are
    // excluded from bounds, survivor selection and the max descent.
    s.coarse.assign(n_anchors * nb, 0.0);
    s.cand.clear();
    s.cand_cells.clear();
    for (std::size_t br = ev_r0; br <= ev_r1; ++br) {
      for (std::size_t bc = ev_c0; bc <= ev_c1; ++bc) {
        const std::size_t b = br * level->bcols + bc;
        s.cand.push_back(static_cast<std::uint32_t>(b));
        s.cand_cells.push_back(level->sample_cells[b]);
      }
    }
    s.cand_values.resize(s.cand_cells.size());
    for (std::size_t i = 0; i < n_anchors; ++i) {
      JointLikelihoodCellsInto(inputs[i], *plans[i], s.cand_cells,
                               s.cand_values.data(), sws);
      double* row = s.coarse.data() + i * nb;
      for (std::size_t t = 0; t < s.cand.size(); ++t) {
        row[s.cand[t]] = s.cand_values[t];
      }
    }
    s.stats.cells_evaluated += n_anchors * s.cand_cells.size();
  } else {
    s.coarse.resize(n_anchors * nb);
    for (std::size_t i = 0; i < n_anchors; ++i) {
      JointLikelihoodCellsInto(inputs[i], *plans[i], level->sample_cells,
                               s.coarse.data() + i * nb, sws);
    }
    s.stats.cells_evaluated += n_anchors * nb;
  }

  // --- Block upper bounds: kappa x (3x3 coarse-neighborhood max), per
  // anchor in raw magnitude units. ---
  for (std::size_t i = 0; i < n_anchors; ++i) {
    NeighborhoodMax(s.coarse.data() + i * nb, level->bcols, level->brows,
                    sc.bound_inflation, s.bound.data() + i * nb);
  }
  if (gated) {
    // Bounds are only honest where the full 3x3 coarse neighborhood was
    // evaluated — the bnd rect. Zero the rest so neither survivor
    // selection nor the max descent trusts a bound built over missing
    // samples.
    for (std::size_t i = 0; i < n_anchors; ++i) {
      double* row = s.bound.data() + i * nb;
      for (std::size_t br = 0; br < level->brows; ++br) {
        const bool row_in = br >= bnd_r0 && br <= bnd_r1;
        for (std::size_t bc = 0; bc < level->bcols; ++bc) {
          if (!row_in || bc < bnd_c0 || bc > bnd_c1) {
            row[br * level->bcols + bc] = 0.0;
          }
        }
      }
    }
  }

  // --- Survivor selection on the coarse fused surface. The per-anchor
  // divisors here are the coarse maxima Mhat_i <= M_i; the exact M_i come
  // from the refine pass below (a branch-and-bound descent per anchor —
  // the fringy per-anchor surfaces put half the grid within kappa of the
  // anchor maximum, far too much to refine wholesale), so the selection
  // thresholds are only approximate while every refined VALUE is exact. ---
  s.block_flag.assign(nb, 0);
  for (std::size_t i = 0; i < n_anchors; ++i) {
    const double* row = s.coarse.data() + i * nb;
    const double coarse_max = *std::max_element(row, row + nb);
    if (!(coarse_max > 0.0)) {
      s.stats.fallback_reason =
          gated ? FallbackReason::kGateMiss : FallbackReason::kDegenerate;
      return false;
    }
    s.anchor_max[i] = coarse_max;  // Mhat_i, replaced by M_i after refine
  }
  s.fused_coarse.assign(nb, 0.0);
  for (std::size_t b = 0; b < nb; ++b) {
    double f = 0.0;
    for (std::size_t i = 0; i < n_anchors; ++i) {
      f += s.coarse[i * nb + b] / s.anchor_max[i];
    }
    s.fused_coarse[b] = f;
  }
  // Survivor candidates and the fused argmax live in the CORE rect alone
  // (the whole grid when ungated — identical iteration order, so the
  // ungated path stays bit-for-bit the pre-gate behavior).
  std::size_t b_star = 0;
  double f_hat = 0.0;
  for (std::size_t br = core_r0; br <= core_r1; ++br) {
    for (std::size_t bc = core_c0; bc <= core_c1; ++bc) {
      const std::size_t b = br * level->bcols + bc;
      if (s.fused_coarse[b] > f_hat) {
        f_hat = s.fused_coarse[b];
        b_star = b;
      }
    }
  }
  if (!(f_hat > 0.0)) {
    s.stats.fallback_reason =
        gated ? FallbackReason::kGateMiss : FallbackReason::kDegenerate;
    return false;
  }
  // Two fused upper bounds are nearly free; refine when the tighter one
  // still reaches the threshold. The per-anchor sum bounds each term
  // separately; the fused-neighborhood bound exploits the smoothness of
  // the fused surface itself.
  const double floor = lambda * f_hat;
  for (std::size_t br = core_r0; br <= core_r1; ++br) {
    for (std::size_t bc = core_c0; bc <= core_c1; ++bc) {
      const std::size_t b = br * level->bcols + bc;
      if (s.block_flag[b] != 0) continue;
      double uf_sum = 0.0;
      for (std::size_t i = 0; i < n_anchors; ++i) {
        uf_sum += s.bound[i * nb + b] / s.anchor_max[i];
      }
      if (uf_sum < floor) continue;
      if (NeighborhoodMaxAt(s.fused_coarse.data(), level->bcols,
                            level->brows, b) *
              sc.bound_inflation <
          floor) {
        continue;
      }
      s.block_flag[b] = 1;
    }
  }
  s.block_flag[b_star] = 1;  // the best fused sample always refines
  DilateCore(s.block_flag, level->bcols, level->brows, halo);

  // --- Turn the survivor blocks into contiguous row runs. Adjacent
  // survivor blocks in a block row merge into one span per fine row, so
  // the refine kernel reads the plan's rotors in place (dense walk, no
  // gather) — the per-cell refine cost matches the exhaustive kernel. ---
  const std::size_t stride = sc.coarse_stride;
  const std::size_t fine_cols = level->fine_cols;
  s.spans.clear();
  std::size_t span_cells = 0;
  std::size_t refined_blocks = 0;
  // Emitting fine-row-major (rows outer, runs inner) keeps the span list
  // sorted by begin, so the merge below sees every adjacency.
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t br = 0; br < level->brows; ++br) {
    const std::size_t row0 = br * stride;
    const std::size_t row1 = std::min(row0 + stride, level->fine_rows);
    const std::uint8_t* flags = s.block_flag.data() + br * level->bcols;
    runs.clear();
    std::size_t bc = 0;
    while (bc < level->bcols) {
      if (flags[bc] == 0) {
        ++bc;
        continue;
      }
      std::size_t bc_end = bc;
      while (bc_end < level->bcols && flags[bc_end] != 0) ++bc_end;
      refined_blocks += bc_end - bc;
      runs.emplace_back(bc * stride,
                        std::min(bc_end * stride, fine_cols));
      bc = bc_end;
    }
    for (std::size_t row = row0; row < row1; ++row) {
      for (const auto& [col0, col1] : runs) {
        const auto begin =
            static_cast<std::uint32_t>(row * fine_cols + col0);
        const auto end = static_cast<std::uint32_t>(row * fine_cols + col1);
        // Merge with the previous span when the gap is small: evaluating
        // a few extra exact cells is cheaper than dropping the walk
        // kernel out of its wide vector blocks (fragmented short spans
        // cost ~2.4x per cell). Gap cells are exact fine-grid values like
        // any other refined cell, so correctness is untouched. Exact
        // contiguity (gap 0) chains full-width runs across rows.
        constexpr std::uint32_t kMergeGap = 8;
        const std::uint32_t prev_end =
            s.spans.empty() ? 0 : s.spans.back().begin +
                                      s.spans.back().length;
        if (!s.spans.empty() && begin >= prev_end &&
            begin - prev_end <= kMergeGap) {
          span_cells += end - prev_end;
          s.spans.back().length = end - s.spans.back().begin;
        } else {
          s.spans.push_back({begin, end - begin});
          span_cells += end - begin;
        }
      }
    }
  }
  s.stats.regions_refined = refined_blocks;
  if (static_cast<double>(span_cells) >
      sc.max_refine_fraction * static_cast<double>(total_cells)) {
    s.stats.fallback_reason = FallbackReason::kFractionGuard;
    return false;  // pruning is not paying this round
  }

  coarse_timer.reset();
  coarse_span.reset();

  // --- Refine survivors and fuse, in fuse order, with the exhaustive
  // path's exact per-cell arithmetic (value / M_i, then +=). ---
  obs::TraceSpan refine_span("search.refine", "bloc");
  obs::ScopedTimer refine_timer(metrics.search_refine_us);
  dsp::Grid2D& fused = ws.EnsureFused();
  fused.Reset(cfg.grid);  // zero outside the refined blocks
  double* fused_data = fused.data().data();
  s.values.resize(span_cells);
  for (std::size_t i = 0; i < n_anchors; ++i) {
    JointLikelihoodSpansInto(inputs[i], *plans[i], s.spans,
                             s.values.data(), sws);
    s.stats.cells_evaluated += span_cells;
    if (!CheckSpanBounds(s.spans, s.values, s.bound.data() + i * nb,
                         stride, level->bcols, fine_cols)) {
      s.stats.fallback_reason = FallbackReason::kBoundViolation;
      return false;
    }
    // The exact per-anchor maximum M_i: seed with the best refined value
    // and the best coarse sample (both are exact fine-cell values of this
    // anchor's map, hence certified lower bounds on M_i), then run the
    // branch-and-bound descent over the candidate blocks outside the
    // survivor set. False means a bound was caught lying.
    double m = std::max(*std::max_element(s.values.begin(), s.values.end()),
                        s.anchor_max[i]);
    if (!ExactAnchorMax(inputs[i], *plans[i], *level,
                        s.bound.data() + i * nb, s, m, sws)) {
      s.stats.fallback_reason = FallbackReason::kBoundViolation;
      return false;
    }
    if (!(m > 0.0)) {
      s.stats.fallback_reason = FallbackReason::kDegenerate;
      return false;
    }
    s.anchor_max[i] = m;
    std::size_t off = 0;
    for (const CellSpan& sp : s.spans) {
      const double* __restrict v = s.values.data() + off;
      double* __restrict f = fused_data + sp.begin;
      for (std::size_t t = 0; t < sp.length; ++t) f[t] += v[t] / m;
      off += sp.length;
    }
  }

  const std::size_t exhaustive_cells = total_cells * n_anchors;
  s.stats.cells_pruned =
      exhaustive_cells > s.stats.cells_evaluated
          ? exhaustive_cells - s.stats.cells_evaluated
          : 0;
  s.stats.used_coarse = true;
  metrics.search_cells_evaluated.Inc(s.stats.cells_evaluated);
  metrics.search_cells_pruned.Inc(s.stats.cells_pruned);
  metrics.search_regions_refined.Inc(s.stats.regions_refined);
  return true;
}

/// Parity mode: rebuild the round exhaustively and require the selected
/// position to be bit-identical. Throws on mismatch (CI turns this into
/// a red job).
void CheckParity(const Localizer& loc, LocalizerWorkspace& ws) {
  const LocalizerMetrics& metrics = LocalizerMetrics::Get();
  dsp::Grid2D& exhaustive = ws.search.parity_map;
  ExhaustiveMapInto(loc, ws, exhaustive, nullptr);
  const LocationResult coarse = loc.ScoreFused(
      std::make_shared<dsp::Grid2D>(*ws.fused), ws.corrected);
  const LocationResult full = loc.ScoreFused(
      std::make_shared<dsp::Grid2D>(exhaustive), ws.corrected);
  // Position bit-identity is the contract; the peak LIST may legitimately
  // be shorter when refine_threshold sits above the FindPeaks floor.
  if (coarse.position.x != full.position.x ||
      coarse.position.y != full.position.y) {
    metrics.search_parity_failures.Inc();
    throw std::runtime_error(
        "coarse-to-fine parity violation: coarse (" +
        std::to_string(coarse.position.x) + ", " +
        std::to_string(coarse.position.y) + ") vs exhaustive (" +
        std::to_string(full.position.x) + ", " +
        std::to_string(full.position.y) + ")");
  }
}

/// The hierarchical search (DESIGN.md §5e): evaluate a strided coarse level
/// of the steering pyramid (every sample an exact fine-grid value), bound
/// every stride x stride block by the kappa-inflated maximum of its 3x3
/// coarse neighborhood, and refine only the blocks whose fused bound
/// reaches refine_threshold x the best fused sample — plus the best fused
/// block and a halo wide enough to keep every surviving peak's
/// neighborhood and entropy window exact. The exact NormalizePeak
/// divisors come from a separate branch-and-bound descent per anchor
/// (ExactAnchorMax) rather than from refining every max-candidate block.
/// Refined cells carry the exhaustive path's bit-identical values; pruned
/// cells are zero. The fused argmax is always refined (bounds + canary +
/// fallback), and every observed bound violation abandons the round to
/// the exhaustive search (which uses `pool`; the coarse passes are
/// sequential).
void CoarseToFineSearch(const Localizer& loc, LocalizerWorkspace& ws,
                        const dsp::ThreadPool* pool) {
  const LocalizerMetrics& metrics = LocalizerMetrics::Get();
  bool ok = TryCoarse(loc, ws, ws.gate.active);
  FallbackReason gate_reason = FallbackReason::kNone;
  if (!ok && ws.gate.active) {
    // The gate held no usable likelihood mass: fall back along the
    // existing chain, first the full (ungated) coarse pass, then the
    // exhaustive search below. The gate reason survives in
    // stats.gate_fallback either way.
    gate_reason = ws.search.stats.fallback_reason;
    metrics.search_gate_misses.Inc();
    ok = TryCoarse(loc, ws, /*use_gate=*/false);
    if (ok) ws.search.stats.gate_fallback = gate_reason;
  }
  if (!ok) {
    // The exhaustive pass resets the stats; keep the recorded reason.
    const FallbackReason reason = ws.search.stats.fallback_reason;
    ExhaustiveSearch(loc, ws, pool);
    ws.search.stats.fell_back = true;
    ws.search.stats.fallback_reason = reason;
    ws.search.stats.gate_fallback = gate_reason;
    metrics.search_fallbacks.Inc();
    return;
  }
  if (ws.search.stats.gated) metrics.search_gated_rounds.Inc();
  // Parity against the full exhaustive map is only meaningful ungated:
  // a gated round deliberately searches the predicted region alone.
  if (loc.config().search.parity_check && !ws.search.stats.gated) {
    CheckParity(loc, ws);
  }
}

}  // namespace

Localizer::Localizer(Deployment deployment, LocalizerConfig config)
    : deployment_(std::move(deployment)),
      config_(std::move(config)),
      plan_cache_(std::make_shared<SteeringPlanCache>()) {
  if (deployment_.Master() == nullptr) {
    throw std::invalid_argument("Localizer: deployment has no master anchor");
  }
  if (!config_.grid.Valid()) {
    throw std::invalid_argument("Localizer: invalid grid spec");
  }
  // Build the sorted/direct-indexed filter tables once so FilterInto never
  // linear-scans the allow-lists per report or per band.
  allowed_anchors_sorted_ = config_.allowed_anchors;
  std::sort(allowed_anchors_sorted_.begin(), allowed_anchors_sorted_.end());
  filter_channels_ = !config_.allowed_channels.empty();
  for (const std::uint8_t ch : config_.allowed_channels) {
    channel_allowed_[ch] = true;
  }
  if (!allowed_anchors_sorted_.empty() &&
      !std::binary_search(allowed_anchors_sorted_.begin(),
                          allowed_anchors_sorted_.end(),
                          deployment_.Master()->id)) {
    throw std::invalid_argument(
        "Localizer: allowed_anchors must include the master anchor");
  }
}

bool Localizer::FilterInto(const net::MeasurementRound& round,
                           RoundView& view) const {
  view.Begin(round);
  bool has_master = false;
  const bool filter_anchors = !allowed_anchors_sorted_.empty();
  for (std::size_t i = 0; i < round.reports.size(); ++i) {
    const anchor::CsiReport& r = round.reports[i];
    // An anchor the deployment has no pose for cannot be mapped.
    if (deployment_.Find(r.anchor_id) == nullptr) continue;
    if (filter_anchors &&
        !std::binary_search(allowed_anchors_sorted_.begin(),
                            allowed_anchors_sorted_.end(), r.anchor_id)) {
      continue;
    }
    RoundView::ReportView& rv = view.Append(i);
    for (std::size_t k = 0; k < r.band_count(); ++k) {
      const anchor::BandMeasurement band = r.band(k);
      if (filter_channels_ && !channel_allowed_[band.data_channel]) continue;
      // One non-finite sample would turn every cell of the fused map NaN.
      if (!AllFinite(band.tag_csi) || !AllFinite(band.master_csi)) continue;
      rv.bands.push_back(k);
    }
    if (rv.bands.empty()) {
      view.RemoveLast();
    } else if (r.is_master) {
      has_master = true;
    }
  }
  return view.num_reports() > 0 && has_master;
}

void Localizer::CorrectInto(const RoundView& view,
                            CorrectedChannels& out) const {
  ComputeCorrectedChannelsInto(view, out);
}

void Localizer::FuseOrder(const CorrectedChannels& corrected,
                          std::vector<std::size_t>& order) const {
  order.resize(corrected.anchors.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return corrected.anchors[a].anchor_id <
                            corrected.anchors[b].anchor_id;
                   });
}

SpectraInput Localizer::SpectraInputFor(const CorrectedChannels& corrected,
                                        std::size_t anchor_index) const {
  const AnchorCorrected& ac = corrected.anchors[anchor_index];
  const AnchorPose* pose = deployment_.Find(ac.anchor_id);
  if (pose == nullptr) {
    throw std::invalid_argument("FusedMap: report from unknown anchor");
  }
  SpectraInput input;
  input.channels = &ac;
  input.geometry = pose->geometry;
  input.master_ref_antenna =
      deployment_.Master()->geometry.AntennaPosition(0);
  input.master_ref_distance =
      deployment_.MasterReferenceDistance(ac.anchor_id);
  input.band_freqs_hz = corrected.band_freqs_hz;
  input.max_antennas = config_.max_antennas;
  return input;
}

void Localizer::AnchorMapInto(const CorrectedChannels& corrected,
                              std::size_t anchor_index, dsp::Grid2D& map,
                              SpectraWorkspace& ws) const {
  const SpectraInput input = SpectraInputFor(corrected, anchor_index);
  map.Reset(config_.grid);
  const auto plan = plan_cache_->GetOrBuild(input, config_.grid, ws.comb_step);
  JointLikelihoodMapInto(input, *plan, map, ws);
  // Peak-normalize so one near anchor cannot drown the others.
  map.NormalizePeak();
}

LocationResult Localizer::ScoreFused(std::shared_ptr<const dsp::Grid2D> fused,
                                     const CorrectedChannels& corrected) const {
  const Selection sel = SelectLocation(*fused, deployment_, config_.scoring);
  if (sel.peaks.empty()) return LocationResult{};  // degenerate map: sentinel

  LocationResult result;
  result.position = sel.position;
  result.score = sel.peaks.front().score;
  result.peaks = sel.peaks;
  result.bands_used = corrected.num_bands();
  result.anchors_used = corrected.anchors.size();
  if (config_.keep_map) {
    result.fused_map = std::move(fused);
  }
  return result;
}

CorrectedChannels Localizer::CorrectedFor(
    const net::MeasurementRound& round) const {
  RoundView view;
  FilterInto(round, view);
  CorrectedChannels out;
  ComputeCorrectedChannelsInto(view, out);
  return out;
}

void Localizer::FusedMapInto(LocalizerWorkspace& ws,
                             const dsp::ThreadPool* pool) const {
  FuseOrder(ws.corrected, ws.fuse_order);
  if (config_.search.mode == SearchMode::kCoarseToFine) {
    CoarseToFineSearch(*this, ws, pool);
  } else {
    ExhaustiveSearch(*this, ws, pool);
  }
}

dsp::Grid2D Localizer::FusedMap(const CorrectedChannels& corrected) const {
  LocalizerWorkspace ws;
  ws.corrected = corrected;
  FusedMapInto(ws);
  return std::move(*ws.fused);
}

LocationResult Localizer::Locate(const net::MeasurementRound& round,
                                 LocalizerWorkspace& ws,
                                 const dsp::ThreadPool* pool) const {
  const LocalizerMetrics& metrics = LocalizerMetrics::Get();
  obs::TraceSpan round_span("localize.round", "bloc", round.round_id);
  metrics.rounds.Inc();
  {
    obs::TraceSpan span("localize.filter", "bloc");
    obs::ScopedTimer timer(metrics.filter_us);
    if (!FilterInto(round, ws.view)) {
      metrics.empty_rounds.Inc();
      return LocationResult{};
    }
  }
  {
    obs::TraceSpan span("localize.correct", "bloc");
    obs::ScopedTimer timer(metrics.correct_us);
    CorrectInto(ws.view, ws.corrected);
  }
  FusedMapInto(ws, pool);
  obs::TraceSpan span("localize.score", "bloc");
  obs::ScopedTimer timer(metrics.score_us);
  return ScoreFused(ws.fused, ws.corrected);
}

LocationResult Localizer::Locate(const net::MeasurementRound& round) const {
  LocalizerWorkspace ws;
  return Locate(round, ws);
}

}  // namespace bloc::core
