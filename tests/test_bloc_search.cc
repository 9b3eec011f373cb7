#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bloc/engine.h"
#include "bloc/localizer.h"
#include "bloc/steering_plan.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace bloc::core {
namespace {

/// A shared paper-testbed dataset (built once — measurement synthesis is the
/// expensive part of this suite).
struct TestbedFixture {
  sim::Dataset dataset;

  TestbedFixture() {
    sim::DatasetOptions options;
    options.locations = 6;
    dataset = sim::GenerateDataset(sim::PaperTestbed(1), options);
  }
};

const TestbedFixture& Fig9() {
  static const TestbedFixture fixture;
  return fixture;
}

LocalizerConfig ExhaustiveConfig(const sim::Dataset& dataset) {
  return sim::PaperLocalizerConfig(dataset);
}

LocalizerConfig CoarseConfig(const sim::Dataset& dataset) {
  LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
  config.search.mode = SearchMode::kCoarseToFine;
  return config;
}

void ExpectSamePosition(const LocationResult& a, const LocationResult& b) {
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.score, b.score);
}

TEST(SteeringLevel, GeometryHandCheck) {
  // 1 m x 0.7 m at 0.1 m: an 11 x 8 fine grid; stride 3 leaves ragged
  // edges on both axes.
  const dsp::GridSpec spec{0.0, 0.0, 1.0, 0.7, 0.1};
  ASSERT_EQ(spec.Cols(), 11u);
  ASSERT_EQ(spec.Rows(), 8u);
  const SteeringLevel level = SteeringLevel::Build(spec, 3);
  EXPECT_EQ(level.stride, 3u);
  EXPECT_EQ(level.fine_cols, 11u);
  EXPECT_EQ(level.fine_rows, 8u);
  EXPECT_EQ(level.bcols, 4u);  // ceil(11 / 3)
  EXPECT_EQ(level.brows, 3u);  // ceil(8 / 3)
  ASSERT_EQ(level.num_blocks(), 12u);
  // Each block samples its minimum-corner fine cell.
  for (std::size_t br = 0; br < level.brows; ++br) {
    for (std::size_t bc = 0; bc < level.bcols; ++bc) {
      EXPECT_EQ(level.sample_cells[br * level.bcols + bc],
                3 * br * 11 + 3 * bc);
    }
  }
}

TEST(SteeringLevel, AppendBlockCellsClipsAtEdges) {
  const dsp::GridSpec spec{0.0, 0.0, 1.0, 0.7, 0.1};  // 11 x 8 fine cells
  const SteeringLevel level = SteeringLevel::Build(spec, 3);

  // Interior block (1, 1): the full 3 x 3 cell square.
  std::vector<std::uint32_t> cells;
  level.AppendBlockCells(1, 1, cells);
  const std::vector<std::uint32_t> interior = {
      3 * 11 + 3, 3 * 11 + 4, 3 * 11 + 5,  //
      4 * 11 + 3, 4 * 11 + 4, 4 * 11 + 5,  //
      5 * 11 + 3, 5 * 11 + 4, 5 * 11 + 5};
  EXPECT_EQ(cells, interior);

  // Corner block (3, 2) covers fine cols {9, 10} x rows {6, 7} only.
  cells.clear();
  level.AppendBlockCells(3, 2, cells);
  const std::vector<std::uint32_t> corner = {6 * 11 + 9, 6 * 11 + 10,
                                             7 * 11 + 9, 7 * 11 + 10};
  EXPECT_EQ(cells, corner);

  // Every fine cell belongs to exactly one block.
  cells.clear();
  for (std::size_t br = 0; br < level.brows; ++br)
    for (std::size_t bc = 0; bc < level.bcols; ++bc)
      level.AppendBlockCells(bc, br, cells);
  EXPECT_EQ(cells.size(), spec.Cols() * spec.Rows());
  std::vector<bool> seen(cells.size(), false);
  for (std::uint32_t c : cells) {
    ASSERT_LT(c, seen.size());
    EXPECT_FALSE(seen[c]);
    seen[c] = true;
  }
}

TEST(Search, SpansBitIdenticalToFullMap) {
  const LocalizerConfig config = ExhaustiveConfig(Fig9().dataset);
  const Localizer localizer(Fig9().dataset.deployment, config);
  const CorrectedChannels corrected =
      localizer.CorrectedFor(Fig9().dataset.rounds[0]);
  const SpectraInput input = localizer.SpectraInputFor(corrected, 0);
  const auto plan =
      localizer.plan_cache().GetOrBuild(input, config.grid, 2.0e6);

  SpectraWorkspace sws;
  dsp::Grid2D full(config.grid);
  JointLikelihoodMapInto(input, *plan, full, sws);

  // Spans at awkward offsets, including one that wraps a row boundary (the
  // gap-merged survivor runs do this routinely).
  const auto cols = static_cast<std::uint32_t>(config.grid.Cols());
  const std::vector<CellSpan> spans = {
      {0, 1},
      {5, 7},
      {cols - 3, 9},  // wraps into the second row
      {3 * cols + 1, 2 * cols},
  };
  std::size_t total = 0;
  for (const CellSpan& s : spans) total += s.length;
  std::vector<double> out(total);
  JointLikelihoodSpansInto(input, *plan, spans, out.data(), sws);

  std::size_t off = 0;
  for (const CellSpan& s : spans) {
    for (std::uint32_t t = 0; t < s.length; ++t) {
      ASSERT_EQ(out[off + t], full.data()[s.begin + t])
          << "span begin=" << s.begin << " t=" << t;
    }
    off += s.length;
  }
}

TEST(Search, CoarsePositionsBitIdenticalToExhaustive) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::DatasetOptions options;
    options.locations = 4;
    const sim::Dataset dataset =
        sim::GenerateDataset(sim::PaperTestbed(seed), options);
    const Localizer exhaustive(dataset.deployment, ExhaustiveConfig(dataset));
    const Localizer coarse(dataset.deployment, CoarseConfig(dataset));

    LocalizerWorkspace ws;
    std::size_t coarse_rounds = 0;
    std::size_t pruned = 0;
    for (const auto& round : dataset.rounds) {
      const LocationResult want = exhaustive.Locate(round);
      const LocationResult got = coarse.Locate(round, ws);
      ExpectSamePosition(got, want);
      if (ws.search.stats.used_coarse) {
        ++coarse_rounds;
        pruned += ws.search.stats.cells_pruned;
      }
    }
    // The speedup is real only if the coarse path actually ran and pruned.
    EXPECT_GT(coarse_rounds, 0u) << "seed " << seed;
    EXPECT_GT(pruned, 0u) << "seed " << seed;
  }
}

TEST(Search, DescentFindsExactPerAnchorMaximum) {
  const LocalizerConfig config = CoarseConfig(Fig9().dataset);
  const Localizer localizer(Fig9().dataset.deployment, config);
  LocalizerWorkspace ws;
  localizer.Locate(Fig9().dataset.rounds[0], ws);
  ASSERT_TRUE(ws.search.stats.used_coarse);
  ASSERT_FALSE(ws.search.stats.fell_back);

  // anchor_max[i] must equal the dense per-anchor maximum even though the
  // branch-and-bound descent evaluated only a fraction of the grid.
  SpectraWorkspace sws;
  dsp::Grid2D dense(config.grid);
  ASSERT_FALSE(ws.fuse_order.empty());
  for (std::size_t i = 0; i < ws.fuse_order.size(); ++i) {
    const SpectraInput input =
        localizer.SpectraInputFor(ws.corrected, ws.fuse_order[i]);
    const auto plan =
        localizer.plan_cache().GetOrBuild(input, config.grid, 2.0e6);
    JointLikelihoodMapInto(input, *plan, dense, sws);
    EXPECT_EQ(ws.search.anchor_max[i], dense.Max()) << "anchor slot " << i;
  }
}

TEST(Search, StrideBelowTwoFallsBackWithConfigReason) {
  LocalizerConfig config = CoarseConfig(Fig9().dataset);
  config.search.coarse_stride = 1;
  const Localizer coarse(Fig9().dataset.deployment, config);
  const Localizer exhaustive(Fig9().dataset.deployment,
                             ExhaustiveConfig(Fig9().dataset));

  LocalizerWorkspace ws;
  const LocationResult got = coarse.Locate(Fig9().dataset.rounds[0], ws);
  EXPECT_FALSE(ws.search.stats.used_coarse);
  EXPECT_TRUE(ws.search.stats.fell_back);
  EXPECT_EQ(ws.search.stats.fallback_reason, FallbackReason::kConfig);
  // The fallback runs the exhaustive search: the whole result matches.
  ExpectSamePosition(got, exhaustive.Locate(Fig9().dataset.rounds[0]));
}

TEST(Search, ZeroRefineBudgetTripsFractionGuard) {
  LocalizerConfig config = CoarseConfig(Fig9().dataset);
  config.search.max_refine_fraction = 0.0;
  const Localizer coarse(Fig9().dataset.deployment, config);
  const Localizer exhaustive(Fig9().dataset.deployment,
                             ExhaustiveConfig(Fig9().dataset));

  LocalizerWorkspace ws;
  const LocationResult got = coarse.Locate(Fig9().dataset.rounds[0], ws);
  EXPECT_TRUE(ws.search.stats.fell_back);
  EXPECT_EQ(ws.search.stats.fallback_reason, FallbackReason::kFractionGuard);
  ExpectSamePosition(got, exhaustive.Locate(Fig9().dataset.rounds[0]));
}

TEST(Search, ParityCheckModePassesOnTestbedRounds) {
  LocalizerConfig config = CoarseConfig(Fig9().dataset);
  config.search.parity_check = true;
  const Localizer localizer(Fig9().dataset.deployment, config);
  LocalizerWorkspace ws;
  for (const auto& round : Fig9().dataset.rounds) {
    EXPECT_NO_THROW(localizer.Locate(round, ws));
  }
}

TEST(Search, EngineCoarseMatchesSerialExhaustive) {
  const Localizer exhaustive(Fig9().dataset.deployment,
                             ExhaustiveConfig(Fig9().dataset));
  LocalizationEngine engine(Fig9().dataset.deployment,
                            CoarseConfig(Fig9().dataset), {.threads = 4});
  for (const auto& round : Fig9().dataset.rounds) {
    ExpectSamePosition(engine.Locate(round), exhaustive.Locate(round));
  }
}

}  // namespace
}  // namespace bloc::core
