// System-level invariants of the BLoc pipeline on the real simulator (not
// hand-built channels): properties that must hold regardless of parameter
// calibration.
#include <gtest/gtest.h>

#include "bloc/corrected_channel.h"
#include "bloc/localizer.h"
#include "dsp/complex_ops.h"
#include "sim/experiment.h"
#include "sim/measurement.h"

namespace bloc {
namespace {

/// The corrected channels depend only on geometry, not on the random LO
/// draws: two rounds at the same position (different offsets, low noise)
/// give nearly identical alpha.
TEST(Invariants, CorrectedChannelsStableAcrossRounds) {
  sim::ScenarioConfig cfg = sim::PaperTestbed(31);
  cfg.noise.snr_at_1m_db = 70.0;
  sim::Testbed testbed(cfg);
  sim::MeasurementSimulator simulator(testbed);
  const geom::Vec2 tag{2.7, 1.9};
  const auto a = core::ComputeCorrectedChannels(simulator.RunRound(tag, 0));
  const auto b = core::ComputeCorrectedChannels(simulator.RunRound(tag, 1));
  ASSERT_EQ(a.anchors.size(), b.anchors.size());
  for (std::size_t i = 0; i < a.anchors.size(); ++i) {
    for (std::size_t j = 0; j < a.anchors[i].alpha.size(); ++j) {
      for (std::size_t k = 0; k < a.num_bands(); k += 5) {
        const dsp::cplx va = a.anchors[i].alpha[j][k];
        const dsp::cplx vb = b.anchors[i].alpha[j][k];
        EXPECT_LT(std::abs(va - vb), 0.02 * std::abs(va) + 1e-9)
            << "anchor " << i << " antenna " << j << " band " << k;
      }
    }
  }
}

/// The *uncorrected* measurements are NOT stable (sanity check that the
/// previous test is meaningful).
TEST(Invariants, RawChannelsAreNotStableAcrossRounds) {
  sim::ScenarioConfig cfg = sim::PaperTestbed(31);
  cfg.noise.snr_at_1m_db = 70.0;
  sim::Testbed testbed(cfg);
  sim::MeasurementSimulator simulator(testbed);
  const geom::Vec2 tag{2.7, 1.9};
  const auto r0 = simulator.RunRound(tag, 0);
  const auto r1 = simulator.RunRound(tag, 1);
  double max_phase_delta = 0.0;
  for (std::size_t k = 0; k < 37; k += 5) {
    const dsp::cplx a = r0.reports[1].band(k).tag_csi[0];
    const dsp::cplx b = r1.reports[1].band(k).tag_csi[0];
    max_phase_delta = std::max(
        max_phase_delta, std::abs(dsp::WrapPhase(std::arg(a) - std::arg(b))));
  }
  EXPECT_GT(max_phase_delta, 0.5);
}

/// Localization is translation-covariant in expectation: relabelling the
/// round id or rerunning with the same seed gives the identical estimate.
TEST(Invariants, LocateIsDeterministicPerRound) {
  sim::Testbed testbed(sim::PaperTestbed(33));
  sim::MeasurementSimulator simulator(testbed);
  const auto round = simulator.RunRound({4.1, 3.3}, 0);
  core::LocalizerConfig config;
  config.grid = sim::RoomGrid(sim::PaperTestbed(33));
  const core::Localizer localizer(testbed.deployment(), config);
  const auto a = localizer.Locate(round);
  const auto b = localizer.Locate(round);
  EXPECT_DOUBLE_EQ(a.position.x, b.position.x);
  EXPECT_DOUBLE_EQ(a.position.y, b.position.y);
}

/// More bands can only help (weak form): the fused map with all 37 bands
/// localizes a LOS tag at least as well as with 5 bands.
TEST(Invariants, MoreBandwidthNoWorseInLos) {
  sim::Testbed testbed(sim::LosClean(35));
  sim::MeasurementSimulator simulator(testbed);
  const geom::Vec2 tag{1.6, 3.4};
  const auto round = simulator.RunRound(tag, 0);
  core::LocalizerConfig wide;
  wide.grid = sim::RoomGrid(sim::LosClean(35));
  core::LocalizerConfig narrow = wide;
  narrow.allowed_channels = {16, 17, 18, 19, 20};
  const core::Localizer wide_loc(testbed.deployment(), wide);
  const core::Localizer narrow_loc(testbed.deployment(), narrow);
  const double err_wide =
      geom::Distance(wide_loc.Locate(round).position, tag);
  const double err_narrow =
      geom::Distance(narrow_loc.Locate(round).position, tag);
  EXPECT_LE(err_wide, err_narrow + 0.05);
}

/// Scaling every measured channel by a common complex constant (a global
/// gain) must not move the estimate: the pipeline is scale-invariant.
TEST(Invariants, GlobalGainInvariance) {
  sim::Testbed testbed(sim::PaperTestbed(37));
  sim::MeasurementSimulator simulator(testbed);
  net::MeasurementRound round = simulator.RunRound({3.3, 2.2}, 0);
  core::LocalizerConfig config;
  config.grid = sim::RoomGrid(sim::PaperTestbed(37));
  const core::Localizer localizer(testbed.deployment(), config);
  const auto before = localizer.Locate(round);

  const dsp::cplx gain = 2.5 * dsp::Rotor(1.234);
  for (auto& report : round.reports) {
    for (std::size_t k = 0; k < report.band_count(); ++k) {
      const anchor::MutableBand band = report.mutable_band(k);
      for (auto& h : band.tag_csi) h *= gain;
      for (auto& h : band.master_csi) h *= gain;
    }
  }
  const auto after = localizer.Locate(round);
  EXPECT_DOUBLE_EQ(before.position.x, after.position.x);
  EXPECT_DOUBLE_EQ(before.position.y, after.position.y);
}

}  // namespace
}  // namespace bloc
