#include <gtest/gtest.h>

#include <algorithm>

#include "dsp/complex_ops.h"
#include "net/messages.h"
#include "sim/experiment.h"
#include "sim/measurement.h"
#include "sim/vicon.h"

namespace bloc::sim {
namespace {

TEST(Scenario, PaperTestbedShape) {
  const ScenarioConfig cfg = PaperTestbed(1);
  EXPECT_DOUBLE_EQ(cfg.room_width, 6.0);
  EXPECT_DOUBLE_EQ(cfg.room_height, 5.0);
  EXPECT_EQ(cfg.anchors.size(), 4u);
  EXPECT_FALSE(cfg.obstacles.empty());
  for (const AnchorLayout& a : cfg.anchors) {
    EXPECT_EQ(a.num_antennas, 4u);
  }
}

TEST(Scenario, LosCleanHasNoClutter) {
  const ScenarioConfig cfg = LosClean(1);
  EXPECT_TRUE(cfg.obstacles.empty());
  EXPECT_FALSE(cfg.propagation.include_diffuse);
}

TEST(Scenario, WarehouseIsLarger) {
  const ScenarioConfig cfg = Warehouse(1);
  EXPECT_GT(cfg.room_width * cfg.room_height, 100.0);
  EXPECT_GE(cfg.anchors.size(), 6u);
}

TEST(Testbed, DeploymentHasOneMaster) {
  const Testbed testbed(PaperTestbed(2));
  const core::Deployment dep = testbed.deployment();
  EXPECT_EQ(dep.anchors.size(), 4u);
  std::size_t masters = 0;
  for (const auto& a : dep.anchors) masters += a.is_master ? 1 : 0;
  EXPECT_EQ(masters, 1u);
}

TEST(Testbed, SamplePositionsInsideRoomOutsideObstacles) {
  const Testbed testbed(PaperTestbed(3));
  const auto positions = testbed.SampleTagPositions(200, 0.3);
  EXPECT_EQ(positions.size(), 200u);
  for (const geom::Vec2& p : positions) {
    EXPECT_TRUE(testbed.room().Inside(p, 0.29));
    for (const geom::Obstacle& o : testbed.room().obstacles()) {
      EXPECT_FALSE(o.Contains(p));
    }
  }
}

TEST(Testbed, SamplingIsSeedDeterministic) {
  const Testbed a(PaperTestbed(4));
  const Testbed b(PaperTestbed(4));
  EXPECT_EQ(a.SampleTagPositions(10)[3], b.SampleTagPositions(10)[3]);
}

TEST(Testbed, RejectsBadConfig) {
  ScenarioConfig cfg = PaperTestbed(1);
  cfg.anchors.clear();
  EXPECT_THROW(Testbed{cfg}, std::invalid_argument);
  cfg = PaperTestbed(1);
  cfg.master_index = 10;
  EXPECT_THROW(Testbed{cfg}, std::invalid_argument);
}

TEST(Vicon, JitterIsMillimetric) {
  ViconSystem vicon(dsp::Rng(5), 0.001);
  const geom::Vec2 truth{2.0, 3.0};
  double worst = 0.0;
  for (int i = 0; i < 200; ++i) {
    worst = std::max(worst, geom::Distance(vicon.Measure(truth), truth));
  }
  EXPECT_LT(worst, 0.01);
  EXPECT_GT(worst, 0.0);
}

TEST(Measurement, RoundHasAllAnchorsAndBands) {
  Testbed testbed(PaperTestbed(6));
  MeasurementSimulator simulator(testbed);
  const net::MeasurementRound round = simulator.RunRound({2.0, 2.0}, 7);
  EXPECT_EQ(round.round_id, 7u);
  ASSERT_EQ(round.reports.size(), 4u);
  for (const anchor::CsiReport& report : round.reports) {
    EXPECT_EQ(report.round_id, 7u);
    EXPECT_EQ(report.band_count(), 37u);
    for (const anchor::BandMeasurement& band : report.bands()) {
      EXPECT_EQ(band.tag_csi.size(), 4u);
      if (report.is_master) {
        EXPECT_TRUE(band.master_csi.empty());
      } else {
        EXPECT_EQ(band.master_csi.size(), 4u);
      }
      EXPECT_GT(band.freq_hz, 2.4e9);
      EXPECT_LT(band.freq_hz, 2.49e9);
    }
  }
}

TEST(Measurement, ChannelMapRestrictsBands) {
  Testbed testbed(PaperTestbed(6));
  MeasurementSimulator simulator(testbed);
  simulator.SetChannelMap(link::ChannelMap::Subsampled(4));
  const net::MeasurementRound round = simulator.RunRound({2.0, 2.0}, 0);
  EXPECT_EQ(round.reports[0].band_count(), 10u);
}

TEST(Measurement, RawPhasesAreGarbledAcrossRounds) {
  // Without correction, the same link measured twice carries different
  // random LO phases — the impairment BLoc exists to fix.
  Testbed testbed(LosClean(6));
  MeasurementSimulator simulator(testbed);
  const auto r1 = simulator.RunRound({2.0, 2.0}, 0);
  const auto r2 = simulator.RunRound({2.0, 2.0}, 1);
  const dsp::cplx a = r1.reports[0].band(0).tag_csi[0];
  const dsp::cplx b = r2.reports[0].band(0).tag_csi[0];
  EXPECT_NEAR(std::abs(a), std::abs(b), 0.05 * std::abs(a));  // same physics
  EXPECT_GT(std::abs(dsp::WrapPhase(std::arg(a) - std::arg(b))), 1e-3);
}

TEST(Measurement, RssiFallsWithDistance) {
  Testbed testbed(LosClean(6));
  MeasurementSimulator simulator(testbed);
  // Anchor 1 sits mid-south-edge at (3, 0).
  const auto near_round = simulator.RunRound({3.0, 0.7}, 0);
  const auto far_round = simulator.RunRound({3.0, 4.5}, 1);
  double near_rssi = 0, far_rssi = 0;
  for (const auto& b : near_round.reports[0].bands()) near_rssi += b.rssi_db;
  for (const auto& b : far_round.reports[0].bands()) far_rssi += b.rssi_db;
  EXPECT_GT(near_rssi / 37.0, far_rssi / 37.0 + 6.0);
}

TEST(Measurement, AnalyticMatchesFullPhy) {
  // The two fidelity modes must produce CSI that agrees to within the
  // noise floor: same channel, same geometry, high SNR, offsets disabled.
  ScenarioConfig cfg = LosClean(8);
  cfg.impairments.random_retune_phase = false;
  cfg.noise.snr_at_1m_db = 70.0;

  ScenarioConfig phy_cfg = cfg;
  phy_cfg.mode = MeasurementMode::kFullPhy;

  Testbed analytic_bed(cfg);
  Testbed phy_bed(phy_cfg);
  MeasurementSimulator analytic(analytic_bed);
  MeasurementSimulator fullphy(phy_bed);
  const geom::Vec2 tag{2.4, 1.6};
  const auto r_a = analytic.RunRound(tag, 0);
  const auto r_p = fullphy.RunRound(tag, 0);

  for (std::size_t i = 0; i < r_a.reports.size(); ++i) {
    for (std::size_t k = 0; k < 37; k += 6) {
      for (std::size_t j = 0; j < 4; ++j) {
        const dsp::cplx ha = r_a.reports[i].band(k).tag_csi[j];
        const dsp::cplx hp = r_p.reports[i].band(k).tag_csi[j];
        EXPECT_NEAR(std::abs(ha - hp), 0.0, 0.03 * std::abs(ha) + 1e-4)
            << "anchor " << i << " band " << k << " antenna " << j;
      }
    }
  }
}

/// Full-PHY scenario with CFO enabled (exercises the incremental-rotor
/// mixing) on a reduced channel map for speed.
ScenarioConfig SmallFullPhyConfig(std::uint64_t seed) {
  ScenarioConfig cfg = LosClean(seed);
  cfg.mode = MeasurementMode::kFullPhy;
  cfg.impairments.cfo_ppm_std = 20.0;
  return cfg;
}

void ExpectRoundsBitIdentical(const net::MeasurementRound& a,
                              const net::MeasurementRound& b) {
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const anchor::CsiReport& ra = a.reports[i];
    const anchor::CsiReport& rb = b.reports[i];
    ASSERT_EQ(ra.band_count(), rb.band_count());
    for (std::size_t k = 0; k < ra.band_count(); ++k) {
      EXPECT_EQ(ra.band(k).data_channel, rb.band(k).data_channel);
      EXPECT_TRUE(std::ranges::equal(ra.band(k).tag_csi, rb.band(k).tag_csi))
          << "anchor " << i << " band " << k;
      EXPECT_TRUE(
          std::ranges::equal(ra.band(k).master_csi, rb.band(k).master_csi))
          << "anchor " << i << " band " << k;
      EXPECT_EQ(ra.band(k).rssi_db, rb.band(k).rssi_db);
    }
  }
}

/// Subsampled(3) with Wi-Fi channel 6 blacklisted: no two used channels of
/// one centre parity sit 4 MHz apart, so every half-comb chain breaks.
link::ChannelMap ChainBreakMap() {
  link::ChannelMap map = link::ChannelMap::Subsampled(3);
  map.BlacklistWifiOverlap(2.437e9);
  return map;
}

/// Every channel but Wi-Fi channel 6's: long half-comb chains with a gap.
link::ChannelMap WifiBlacklistMap() {
  link::ChannelMap map;
  map.BlacklistWifiOverlap(2.437e9);
  return map;
}

TEST(Measurement, FullPhyBitIdenticalAcrossThreadCounts) {
  // Per-measurement noise streams are keyed on (round, channel, anchor,
  // antenna, leg), so the fan-out must produce the same bits no matter how
  // many workers run it. Round 1 additionally exercises the cached
  // master-leg waveforms built during round 0.
  const geom::Vec2 tag{2.4, 1.6};
  for (const link::ChannelMap& map :
       {link::ChannelMap::Subsampled(8), ChainBreakMap()}) {
    std::vector<net::MeasurementRound> round0, round1;
    for (const std::size_t threads : {1, 2, 4}) {
      Testbed testbed(SmallFullPhyConfig(8));
      MeasurementSimulator simulator(testbed, threads);
      simulator.SetChannelMap(map);
      round0.push_back(simulator.RunRound(tag, 0));
      round1.push_back(simulator.RunRound({1.1, 3.0}, 1));
    }
    for (std::size_t t = 1; t < round0.size(); ++t) {
      ExpectRoundsBitIdentical(round0[0], round0[t]);
      ExpectRoundsBitIdentical(round1[0], round1[t]);
    }
  }
}

TEST(Measurement, FullPhyPlannedMatchesReferenceKernels) {
  // Fast path (FFT plans, incremental rotors, cached master waveforms) vs
  // the pre-optimization reference kernels. Both draw identical noise, so
  // any difference is kernel numerics — bounded well under the noise floor.
  const geom::Vec2 tag{2.4, 1.6};
  for (const link::ChannelMap& map :
       {link::ChannelMap::Subsampled(8), ChainBreakMap()}) {
    Testbed ref_bed(SmallFullPhyConfig(8));
    Testbed fast_bed(SmallFullPhyConfig(8));
    MeasurementSimulator reference(ref_bed);
    MeasurementSimulator planned(fast_bed);
    reference.UseReferenceFullPhy(true);
    reference.SetChannelMap(map);
    planned.SetChannelMap(map);
    for (std::uint64_t round = 0; round < 2; ++round) {
      const auto r_ref = reference.RunRound(tag, round);
      const auto r_fast = planned.RunRound(tag, round);
      ASSERT_EQ(r_ref.reports.size(), r_fast.reports.size());
      for (std::size_t i = 0; i < r_ref.reports.size(); ++i) {
        const auto bands_ref = r_ref.reports[i].bands();
        const auto bands_fast = r_fast.reports[i].bands();
        ASSERT_EQ(bands_ref.size(), bands_fast.size());
        for (std::size_t k = 0; k < bands_ref.size(); ++k) {
          for (std::size_t j = 0; j < bands_ref[k].tag_csi.size(); ++j) {
            EXPECT_NEAR(std::abs(bands_ref[k].tag_csi[j] -
                                 bands_fast[k].tag_csi[j]),
                        0.0, 1e-9)
                << "tag leg, anchor " << i << " band " << k << " antenna "
                << j;
          }
          for (std::size_t j = 0; j < bands_ref[k].master_csi.size(); ++j) {
            EXPECT_NEAR(std::abs(bands_ref[k].master_csi[j] -
                                 bands_fast[k].master_csi[j]),
                        0.0, 1e-9)
                << "master leg, anchor " << i << " band " << k << " antenna "
                << j;
          }
        }
      }
    }
  }
}

/// FNV-1a over the wire encoding of every report of `round`, chained on `h`.
std::uint64_t RoundDigest(const net::MeasurementRound& round,
                          std::uint64_t h) {
  for (const anchor::CsiReport& report : round.reports) {
    net::WireWriter w;
    net::EncodeCsiReport(report, w);
    for (const std::uint8_t byte : w.buffer()) {
      h ^= byte;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Measurement, FullPhyRoundsMatchGoldenDigests) {
#if BLOC_NATIVE_BUILD
  GTEST_SKIP() << "-march=native lets the compiler contract the FFT's "
                  "multiply-adds into FMAs, which changes the bits";
#endif
  // Two planned full-PHY rounds (CFO on, two workers) per channel map,
  // digested from their wire bytes. They pin the comb, FFT, counter-based
  // noise, extraction and fan-out bit for bit, with the same values under
  // BLOC_FORCE_ISA=scalar, avx2 and avx512; a deliberate change to any of
  // them re-captures the digests from this test's failure message.
  struct Case {
    const char* name;
    link::ChannelMap map;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"full map", link::ChannelMap(), 0x11b42048c8844ba5ull},
      {"Wi-Fi blacklist", WifiBlacklistMap(), 0xbccf805fa25e525aull},
      {"subsampled + blacklist", ChainBreakMap(), 0xb5239d67ca2bad26ull},
  };
  for (const Case& c : cases) {
    Testbed testbed(SmallFullPhyConfig(8));
    MeasurementSimulator simulator(testbed, 2);
    simulator.SetChannelMap(c.map);
    std::uint64_t h = 1469598103934665603ull;
    h = RoundDigest(simulator.RunRound({2.4, 1.6}, 0), h);
    h = RoundDigest(simulator.RunRound({1.1, 3.0}, 1), h);
    EXPECT_EQ(h, c.digest) << c.name << ": 0x" << std::hex << h;
  }
}

TEST(Measurement, FftPlanCacheAmortizesAcrossRounds) {
  Testbed testbed(SmallFullPhyConfig(8));
  MeasurementSimulator simulator(testbed);
  simulator.SetChannelMap(link::ChannelMap::Subsampled(8));
  const std::size_t builds_after_warmup = simulator.fft_plans().builds();
  EXPECT_GE(builds_after_warmup, 1u);
  simulator.RunRound({2.0, 2.0}, 0);
  simulator.RunRound({2.5, 2.5}, 1);
  EXPECT_EQ(simulator.fft_plans().builds(), builds_after_warmup);
}

TEST(Experiment, DatasetGenerationThroughNetStack) {
  DatasetOptions options;
  options.locations = 3;
  const Dataset ds = GenerateDataset(PaperTestbed(9), options);
  EXPECT_EQ(ds.rounds.size(), 3u);
  EXPECT_EQ(ds.truths.size(), 3u);
  EXPECT_EQ(ds.deployment.anchors.size(), 4u);
  for (const auto& round : ds.rounds) {
    EXPECT_EQ(round.reports.size(), 4u);
  }
}

TEST(Experiment, RoomGridCoversRoom) {
  const ScenarioConfig cfg = PaperTestbed(1);
  const dsp::GridSpec grid = RoomGrid(cfg, 0.1, 0.5);
  EXPECT_DOUBLE_EQ(grid.x_min, -0.5);
  EXPECT_DOUBLE_EQ(grid.x_max, 6.5);
  EXPECT_TRUE(grid.Valid());
}

TEST(Experiment, ProgressCallbackFires) {
  DatasetOptions options;
  options.locations = 2;
  std::size_t calls = 0;
  options.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    EXPECT_LE(done, total);
  };
  GenerateDataset(LosClean(10), options);
  EXPECT_EQ(calls, 2u);
}

}  // namespace
}  // namespace bloc::sim
