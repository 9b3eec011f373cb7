#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "bloc/engine.h"
#include "bloc/steering_plan.h"
#include "oracles/reference.h"
#include "sim/experiment.h"

namespace bloc::core {
namespace {

using dsp::cplx;

/// Randomized scene: geometry, master reference and corrected channels are
/// all drawn from `rng`; `keep_every` thins the band comb (1 = dense).
struct RandomScene {
  anchor::ArrayGeometry geometry;
  geom::Vec2 master_ref;
  double d_i0 = 0.0;
  std::vector<double> freqs;
  AnchorCorrected channels;
  dsp::GridSpec grid;

  SpectraInput Input() const {
    SpectraInput input;
    input.channels = &channels;
    input.geometry = geometry;
    input.master_ref_antenna = master_ref;
    input.master_ref_distance = d_i0;
    input.band_freqs_hz = freqs;
    return input;
  }
};

RandomScene MakeRandomScene(std::mt19937& rng, std::size_t keep_every = 1) {
  std::uniform_real_distribution<double> pos(0.0, 6.0);
  std::uniform_real_distribution<double> angle(0.0, 2.0 * dsp::kPi);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> n_ant(2, 6);

  RandomScene s;
  s.geometry.origin = {pos(rng), pos(rng)};
  s.geometry.axis_radians = angle(rng);
  s.geometry.spacing_m = 0.05 + 0.02 * unit(rng);
  s.geometry.num_antennas = static_cast<std::size_t>(n_ant(rng));
  s.master_ref = {pos(rng), pos(rng)};
  s.d_i0 = geom::Distance(s.geometry.AntennaPosition(0), s.master_ref);
  for (std::size_t k = 0; k < 37; k += keep_every) {
    s.freqs.push_back(2.404e9 + 2.0e6 * static_cast<double>(k));
  }
  s.channels.anchor_id = 7;
  for (std::size_t j = 0; j < s.geometry.num_antennas; ++j) {
    dsp::CVec alpha;
    for (std::size_t k = 0; k < s.freqs.size(); ++k) {
      alpha.push_back(cplx{unit(rng), unit(rng)});
    }
    s.channels.alpha.push_back(std::move(alpha));
  }
  s.grid = {0.0, 0.0, 6.0, 5.0, 0.25};
  return s;
}

double MaxAbsDiff(const dsp::Grid2D& a, const dsp::Grid2D& b) {
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.rows(), b.rows());
  double max = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    max = std::max(max, std::abs(a.data()[i] - b.data()[i]));
  }
  return max;
}

TEST(SteeringPlanParity, MatchesReferenceKernelOnRandomScenes) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 12; ++trial) {
    // Cycle through dense and gappy (x2 / x4-thinned) combs.
    const std::size_t keep_every = 1 + static_cast<std::size_t>(trial % 3);
    const RandomScene s = MakeRandomScene(rng, keep_every);
    const SpectraInput input = s.Input();

    dsp::Grid2D reference(s.grid);
    SpectraWorkspace ref_ws;
    oracles::ReferenceJointLikelihoodMapInto(input, reference, ref_ws);

    dsp::Grid2D planned(s.grid);
    SpectraWorkspace plan_ws;
    const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));
    JointLikelihoodMapInto(input, plan, planned, plan_ws);

    EXPECT_LT(MaxAbsDiff(reference, planned), 1e-9)
        << "trial " << trial << " keep_every " << keep_every;
  }
}

TEST(SteeringPlanParity, MaxAntennasRespected) {
  std::mt19937 rng(99);
  RandomScene s = MakeRandomScene(rng);
  SpectraInput input = s.Input();
  input.max_antennas = 2;

  dsp::Grid2D reference(s.grid);
  SpectraWorkspace ref_ws;
  oracles::ReferenceJointLikelihoodMapInto(input, reference, ref_ws);

  dsp::Grid2D planned(s.grid);
  SpectraWorkspace plan_ws;
  const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));
  EXPECT_EQ(plan.num_antennas(), 2u);
  JointLikelihoodMapInto(input, plan, planned, plan_ws);
  EXPECT_LT(MaxAbsDiff(reference, planned), 1e-9);
}

TEST(SteeringPlan, RelativeDistanceFieldIsExact) {
  std::mt19937 rng(5);
  const RandomScene s = MakeRandomScene(rng);
  const SteeringPlan plan(MakeSteeringPlanKey(s.Input(), s.grid));
  for (std::size_t j = 0; j < plan.num_antennas(); ++j) {
    const dsp::Grid2D& field = plan.RelativeDistance(j);
    for (std::size_t row = 0; row < field.rows(); row += 3) {
      for (std::size_t col = 0; col < field.cols(); col += 3) {
        const geom::Vec2 x{field.XOf(col), field.YOf(row)};
        const double expected =
            geom::Distance(x, s.geometry.AntennaPosition(j)) -
            geom::Distance(x, s.master_ref) - s.d_i0;
        EXPECT_DOUBLE_EQ(field.At(col, row), expected);
      }
    }
  }
}

TEST(SteeringPlan, KernelRejectsMismatchedPlan) {
  std::mt19937 rng(3);
  const RandomScene a = MakeRandomScene(rng);
  const RandomScene b = MakeRandomScene(rng);
  const SteeringPlan plan(MakeSteeringPlanKey(a.Input(), a.grid));
  dsp::Grid2D grid(b.grid);
  SpectraWorkspace ws;
  const SpectraInput mismatched = b.Input();
  EXPECT_THROW(JointLikelihoodMapInto(mismatched, plan, grid, ws),
               std::invalid_argument);
}

TEST(SteeringPlanCache, BuildsOncePerKey) {
  std::mt19937 rng(17);
  const RandomScene s = MakeRandomScene(rng);
  SteeringPlanCache cache;
  const auto key = MakeSteeringPlanKey(s.Input(), s.grid);
  const auto first = cache.GetOrBuild(key);
  const auto second = cache.GetOrBuild(key);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.lookups(), 2u);

  // The allocation-free lookup path resolves to the same plan.
  const auto third = cache.GetOrBuild(s.Input(), s.grid);
  EXPECT_EQ(first.get(), third.get());
  EXPECT_EQ(cache.builds(), 1u);

  // A different grid is a different key -> second build.
  dsp::GridSpec other = s.grid;
  other.resolution = 0.5;
  cache.GetOrBuild(MakeSteeringPlanKey(s.Input(), other));
  EXPECT_EQ(cache.builds(), 2u);
}

/// The acceptance-criteria amortization check: after the first round the
/// cache stops building plans — every later round (serial, engine-parallel
/// and batched) reuses the per-anchor plans.
TEST(SteeringPlanCache, PlanBuildsAmortizedAcrossRounds) {
  sim::DatasetOptions options;
  options.locations = 3;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  LocalizationEngine engine(dataset.deployment,
                            sim::PaperLocalizerConfig(dataset),
                            {.threads = 2});

  const LocationResult first = engine.Locate(dataset.rounds[0]);
  EXPECT_GT(first.anchors_used, 0u);
  const std::size_t builds_after_first = engine.plan_cache().builds();
  EXPECT_EQ(builds_after_first, first.anchors_used);

  engine.Locate(dataset.rounds[1]);
  engine.LocateBatch(dataset.rounds);
  engine.Locate(dataset.rounds[2]);
  EXPECT_EQ(engine.plan_cache().builds(), builds_after_first);
  EXPECT_GT(engine.plan_cache().lookups(), builds_after_first);
}

/// End-to-end equivalence on simulated rounds: the steering-plan kernel
/// must not move a single localization output relative to the reference
/// oracle.
TEST(SteeringPlanParity, LocalizationOutputsUnchanged) {
  sim::DatasetOptions options;
  options.locations = 4;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);

  LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
  config.keep_map = true;
  const Localizer planned(dataset.deployment, config);
  for (const net::MeasurementRound& round : dataset.rounds) {
    const LocationResult a = oracles::ReferenceLocate(planned, round);
    const LocationResult b = planned.Locate(round);
    EXPECT_EQ(a.position.x, b.position.x);
    EXPECT_EQ(a.position.y, b.position.y);
    EXPECT_EQ(a.peaks.size(), b.peaks.size());
    ASSERT_NE(a.fused_map, nullptr);
    ASSERT_NE(b.fused_map, nullptr);
    EXPECT_LT(MaxAbsDiff(*a.fused_map, *b.fused_map), 1e-9);
  }
}

/// keep_map now shares the workspace grid with the result instead of deep
/// copying; successive rounds must not overwrite maps already handed out.
TEST(KeepMap, SharedMapSurvivesLaterRounds) {
  sim::DatasetOptions options;
  options.locations = 2;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
  config.keep_map = true;
  const Localizer localizer(dataset.deployment, config);

  LocalizerWorkspace ws;
  const LocationResult first = localizer.Locate(dataset.rounds[0], ws);
  ASSERT_NE(first.fused_map, nullptr);
  const std::vector<double> snapshot = first.fused_map->data();

  const LocationResult second = localizer.Locate(dataset.rounds[1], ws);
  ASSERT_NE(second.fused_map, nullptr);
  EXPECT_NE(first.fused_map.get(), second.fused_map.get());
  EXPECT_EQ(first.fused_map->data(), snapshot);
}

/// Subset evaluation (the coarse search's primitive) must reproduce the
/// full-grid values bit for bit, in whatever order the cells arrive.
TEST(SteeringPlan, CellSubsetBitIdenticalToFullMap) {
  std::mt19937 rng(41);
  const RandomScene s = MakeRandomScene(rng);
  const SpectraInput input = s.Input();
  const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));

  SpectraWorkspace ws;
  dsp::Grid2D full(s.grid);
  JointLikelihoodMapInto(input, plan, full, ws);

  std::vector<std::uint32_t> cells;
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(plan.num_cells() - 1));
  for (int i = 0; i < 64; ++i) cells.push_back(pick(rng));
  std::shuffle(cells.begin(), cells.end(), rng);

  std::vector<double> out(cells.size());
  JointLikelihoodCellsInto(input, plan, cells, out.data(), ws);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(out[i], full.data()[cells[i]]) << "cell " << cells[i];
  }

  const std::vector<std::uint32_t> bad = {
      static_cast<std::uint32_t>(plan.num_cells())};
  double scratch = 0.0;
  EXPECT_THROW(JointLikelihoodCellsInto(input, plan, bad, &scratch, ws),
               std::invalid_argument);
}

TEST(SteeringPlanCache, EvictsLeastRecentlyUsedAtPlanLimit) {
  std::mt19937 rng(29);
  SteeringPlanCache cache({.max_plans = 2});
  const RandomScene a = MakeRandomScene(rng);
  const RandomScene b = MakeRandomScene(rng);
  const RandomScene c = MakeRandomScene(rng);

  const auto pa = cache.GetOrBuild(MakeSteeringPlanKey(a.Input(), a.grid));
  cache.GetOrBuild(MakeSteeringPlanKey(b.Input(), b.grid));
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch `a` so `b` becomes the LRU, then overflow with `c`.
  cache.GetOrBuild(MakeSteeringPlanKey(a.Input(), a.grid));
  cache.GetOrBuild(MakeSteeringPlanKey(c.Input(), c.grid));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.builds(), 3u);

  // `a` survived the eviction (same instance), `b` did not (rebuild).
  EXPECT_EQ(cache.GetOrBuild(MakeSteeringPlanKey(a.Input(), a.grid)).get(),
            pa.get());
  EXPECT_EQ(cache.builds(), 3u);
  cache.GetOrBuild(MakeSteeringPlanKey(b.Input(), b.grid));
  EXPECT_EQ(cache.builds(), 4u);
}

TEST(SteeringPlanCache, ByteBudgetBoundsResidency) {
  std::mt19937 rng(31);
  const RandomScene a = MakeRandomScene(rng);
  const RandomScene b = MakeRandomScene(rng);
  const auto ka = MakeSteeringPlanKey(a.Input(), a.grid);
  const auto kb = MakeSteeringPlanKey(b.Input(), b.grid);
  const std::size_t bytes_a = SteeringPlan(ka).MemoryBytes();

  // Budget fits one plan, not two: the second build evicts the first, but
  // the most recent plan is always retained (the pipeline needs one).
  SteeringPlanCache cache({.max_plans = 64, .max_bytes = bytes_a});
  cache.GetOrBuild(ka);
  EXPECT_EQ(cache.bytes(), bytes_a);
  cache.GetOrBuild(kb);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), std::max(bytes_a, SteeringPlan(kb).MemoryBytes()));
}

TEST(DistanceOnlyMap, CacheReusesPlans) {
  std::mt19937 rng(23);
  const RandomScene s = MakeRandomScene(rng);
  SteeringPlanCache cache;
  const dsp::Grid2D first = DistanceOnlyMap(s.Input(), s.grid, &cache);
  const dsp::Grid2D second = DistanceOnlyMap(s.Input(), s.grid, &cache);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(MaxAbsDiff(first, second), 0.0);
}

}  // namespace
}  // namespace bloc::core
