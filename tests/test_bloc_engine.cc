#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bloc/engine.h"
#include "oracles/reference.h"
#include "sim/experiment.h"

namespace bloc::core {
namespace {

/// 20 seeded measurement rounds on the paper testbed, generated once.
const sim::Dataset& Rounds() {
  static const sim::Dataset dataset = [] {
    sim::DatasetOptions options;
    options.locations = 20;
    return sim::GenerateDataset(sim::PaperTestbed(7), options);
  }();
  return dataset;
}

LocalizerConfig Config() { return sim::PaperLocalizerConfig(Rounds()); }

/// Bit-identical comparison: no tolerances anywhere.
void ExpectIdentical(const LocationResult& a, const LocationResult& b) {
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.bands_used, b.bands_used);
  EXPECT_EQ(a.anchors_used, b.anchors_used);
  ASSERT_EQ(a.peaks.size(), b.peaks.size());
  for (std::size_t i = 0; i < a.peaks.size(); ++i) {
    EXPECT_EQ(a.peaks[i].score, b.peaks[i].score);
    EXPECT_EQ(a.peaks[i].entropy, b.peaks[i].entropy);
    EXPECT_EQ(a.peaks[i].sum_distance, b.peaks[i].sum_distance);
    EXPECT_EQ(a.peaks[i].peak.x, b.peaks[i].peak.x);
    EXPECT_EQ(a.peaks[i].peak.y, b.peaks[i].peak.y);
  }
}

TEST(LocalizationEngine, ThreadCountsAreBitIdenticalToSerial) {
  const Localizer serial(Rounds().deployment, Config());
  LocalizationEngine one(Rounds().deployment, Config(), {.threads = 1});
  LocalizationEngine four(Rounds().deployment, Config(), {.threads = 4});

  const auto batch_one = one.LocateBatch(Rounds().rounds);
  const auto batch_four = four.LocateBatch(Rounds().rounds);
  ASSERT_EQ(batch_one.size(), Rounds().rounds.size());
  ASSERT_EQ(batch_four.size(), Rounds().rounds.size());
  for (std::size_t i = 0; i < Rounds().rounds.size(); ++i) {
    const LocationResult legacy = serial.Locate(Rounds().rounds[i]);
    ExpectIdentical(batch_one[i], legacy);
    ExpectIdentical(batch_four[i], legacy);
  }
}

TEST(LocalizationEngine, PerAnchorParallelLocateMatchesSerial) {
  const Localizer serial(Rounds().deployment, Config());
  LocalizationEngine four(Rounds().deployment, Config(), {.threads = 4});
  for (std::size_t i = 0; i < 4; ++i) {
    ExpectIdentical(four.Locate(Rounds().rounds[i]),
                    serial.Locate(Rounds().rounds[i]));
  }
}

TEST(LocalizationEngine, WorkspaceReuseDoesNotLeakStateAcrossRounds) {
  const Localizer localizer(Rounds().deployment, Config());
  LocalizerWorkspace ws;
  const LocationResult fresh = localizer.Locate(Rounds().rounds[0]);
  // Run other rounds through the same workspace, then round 0 again: the
  // result must not depend on what the buffers held before.
  for (std::size_t i = 0; i < 5; ++i) {
    localizer.Locate(Rounds().rounds[i], ws);
  }
  ExpectIdentical(localizer.Locate(Rounds().rounds[0], ws), fresh);
}

TEST(LocalizationEngine, EvaluateBlocIsThreadCountInvariant) {
  const auto serial = sim::EvaluateBloc(Rounds(), Config(), 1);
  const auto threaded = sim::EvaluateBloc(Rounds(), Config(), 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]);
  }
}

TEST(LocalizationEngine, EmptyBatch) {
  LocalizationEngine engine(Rounds().deployment, Config(), {.threads = 2});
  EXPECT_TRUE(engine.LocateBatch({}).empty());
}

TEST(LocalizationEngine, KeepMapSurvivesTheEnginePath) {
  LocalizerConfig config = Config();
  config.keep_map = true;
  LocalizationEngine engine(Rounds().deployment, config, {.threads = 2});
  const auto results = engine.LocateBatch(Rounds().rounds);
  for (const LocationResult& r : results) {
    ASSERT_NE(r.fused_map, nullptr);
    EXPECT_GT(r.fused_map->Max(), 0.0);
  }
}

TEST(LocalizationEngine, FanOutFusedMapMatchesSerialAndOracle) {
  LocalizerConfig config = Config();
  config.keep_map = true;
  const Localizer serial(Rounds().deployment, config);
  LocalizationEngine four(Rounds().deployment, config, {.threads = 4});
  for (std::size_t i = 0; i < 4; ++i) {
    const net::MeasurementRound& round = Rounds().rounds[i];
    const LocationResult fanned = four.Locate(round);
    const LocationResult inline_result = serial.Locate(round);
    const LocationResult reference = oracles::ReferenceLocate(serial, round);
    ExpectIdentical(fanned, inline_result);
    ASSERT_NE(fanned.fused_map, nullptr);
    ASSERT_NE(inline_result.fused_map, nullptr);
    ASSERT_NE(reference.fused_map, nullptr);
    EXPECT_EQ(fanned.fused_map->data(), inline_result.fused_map->data());
    ASSERT_EQ(fanned.fused_map->data().size(),
              reference.fused_map->data().size());
    double max_diff = 0.0;
    for (std::size_t c = 0; c < fanned.fused_map->data().size(); ++c) {
      max_diff = std::max(max_diff, std::abs(fanned.fused_map->data()[c] -
                                             reference.fused_map->data()[c]));
    }
    EXPECT_LT(max_diff, 1e-9) << "round " << i;
    EXPECT_EQ(fanned.position.x, reference.position.x);
    EXPECT_EQ(fanned.position.y, reference.position.y);
    EXPECT_EQ(fanned.peaks.size(), reference.peaks.size());
  }
}

TEST(Localizer, EmptyRoundReturnsSentinel) {
  const Localizer localizer(Rounds().deployment, Config());
  const LocationResult result = localizer.Locate(net::MeasurementRound{});
  EXPECT_EQ(result.score, 0.0);
  EXPECT_EQ(result.anchors_used, 0u);
  EXPECT_EQ(result.bands_used, 0u);
  EXPECT_TRUE(result.peaks.empty());
}

TEST(Localizer, FullyFilteredRoundReturnsSentinel) {
  LocalizerConfig config = Config();
  config.allowed_channels = {77};  // no such data channel: drops every band
  const Localizer localizer(Rounds().deployment, config);
  const LocationResult result = localizer.Locate(Rounds().rounds[0]);
  EXPECT_EQ(result.score, 0.0);
  EXPECT_EQ(result.anchors_used, 0u);
}

TEST(LocalizationEngine, SentinelThroughBatch) {
  LocalizationEngine engine(Rounds().deployment, Config(), {.threads = 2});
  std::vector<net::MeasurementRound> rounds;
  rounds.push_back(Rounds().rounds[0]);
  rounds.emplace_back();  // empty round mid-batch
  rounds.push_back(Rounds().rounds[1]);
  const auto results = engine.LocateBatch(rounds);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].anchors_used, 0u);
  EXPECT_EQ(results[1].anchors_used, 0u);
  EXPECT_EQ(results[1].score, 0.0);
  EXPECT_GT(results[2].anchors_used, 0u);
}

}  // namespace
}  // namespace bloc::core
