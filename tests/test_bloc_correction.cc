#include <gtest/gtest.h>

#include "bloc/corrected_channel.h"
#include "dsp/complex_ops.h"
#include "dsp/rng.h"

namespace bloc::core {
namespace {

using dsp::cplx;

/// Synthetic world: arbitrary true channels per (anchor, antenna, band),
/// garbled by per-band random LO phases at the tag and every anchor, as in
/// paper Eqs. 7-9.
struct SyntheticRound {
  net::MeasurementRound round;
  // True physical channels: tag->anchor [anchor][antenna][band] and
  // master->anchor [anchor][antenna][band].
  std::vector<std::vector<dsp::CVec>> h_tag;
  std::vector<std::vector<dsp::CVec>> h_master;
};

SyntheticRound MakeSynthetic(std::uint64_t seed, std::size_t anchors = 3,
                             std::size_t antennas = 4,
                             std::size_t bands = 5) {
  dsp::Rng rng(seed);
  SyntheticRound out;
  out.h_tag.assign(anchors,
                   std::vector<dsp::CVec>(antennas, dsp::CVec(bands)));
  out.h_master.assign(anchors,
                      std::vector<dsp::CVec>(antennas, dsp::CVec(bands)));
  for (auto& per_anchor : out.h_tag) {
    for (auto& per_ant : per_anchor) {
      for (auto& h : per_ant) {
        h = rng.ComplexGaussian(1.0) + cplx{1.5, 0};  // keep away from 0
      }
    }
  }
  for (auto& per_anchor : out.h_master) {
    for (auto& per_ant : per_anchor) {
      for (auto& h : per_ant) {
        h = rng.ComplexGaussian(1.0) + cplx{1.5, 0};
      }
    }
  }

  for (std::size_t k = 0; k < bands; ++k) {
    // Fresh LO phases per band (per frequency retune).
    const double phi_tag = rng.Uniform(0, dsp::kTwoPi);
    std::vector<double> phi_rx(anchors);
    for (auto& p : phi_rx) p = rng.Uniform(0, dsp::kTwoPi);

    for (std::size_t i = 0; i < anchors; ++i) {
      if (k == 0) {
        anchor::CsiReport report;
        report.anchor_id = static_cast<std::uint32_t>(i + 1);
        report.is_master = i == 0;
        report.round_id = 0;
        out.round.reports.push_back(report);
      }
      dsp::CVec tag_csi;
      dsp::CVec master_csi;
      for (std::size_t j = 0; j < antennas; ++j) {
        tag_csi.push_back(out.h_tag[i][j][k] *
                          dsp::Rotor(phi_tag - phi_rx[i]));
        if (i != 0) {
          master_csi.push_back(out.h_master[i][j][k] *
                               dsp::Rotor(phi_rx[0] - phi_rx[i]));
        }
      }
      out.round.reports[i].AddBand(
          {.data_channel = static_cast<std::uint8_t>(k),
           .freq_hz = 2.404e9 + 2e6 * static_cast<double>(k),
           .tag_csi = tag_csi,
           .master_csi = master_csi});
    }
  }
  return out;
}

TEST(CorrectedChannels, CancelsAllOffsetsForSlaves) {
  const SyntheticRound s = MakeSynthetic(1);
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  ASSERT_EQ(corrected.anchors.size(), 3u);
  for (std::size_t i = 1; i < 3; ++i) {  // slave anchors
    const AnchorCorrected& ac = corrected.anchors[i];
    EXPECT_FALSE(ac.is_master);
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 5; ++k) {
        // Eq. 10: alpha = h_ij * conj(H_i0) * conj(h_00).
        const cplx expected = s.h_tag[i][j][k] *
                              std::conj(s.h_master[i][0][k]) *
                              std::conj(s.h_tag[0][0][k]);
        EXPECT_NEAR(std::abs(ac.alpha[j][k] - expected), 0.0, 1e-9)
            << "anchor " << i << " ant " << j << " band " << k;
      }
    }
  }
}

TEST(CorrectedChannels, MasterUsesOwnReference) {
  const SyntheticRound s = MakeSynthetic(2);
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  const AnchorCorrected& master = corrected.anchors[0];
  ASSERT_TRUE(master.is_master);
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t k = 0; k < 5; ++k) {
      const cplx expected =
          s.h_tag[0][j][k] * std::conj(s.h_tag[0][0][k]);
      EXPECT_NEAR(std::abs(master.alpha[j][k] - expected), 0.0, 1e-9);
    }
  }
  // In particular alpha_00 is real positive (|h00|^2): phase zero.
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(std::arg(master.alpha[0][k]), 0.0, 1e-9);
  }
}

TEST(CorrectedChannels, BandsSortedByFrequency) {
  const SyntheticRound s = MakeSynthetic(3);
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  ASSERT_EQ(corrected.num_bands(), 5u);
  for (std::size_t k = 1; k < corrected.num_bands(); ++k) {
    EXPECT_LT(corrected.band_freqs_hz[k - 1], corrected.band_freqs_hz[k]);
  }
}

TEST(CorrectedChannels, UsesOnlyCommonBands) {
  SyntheticRound s = MakeSynthetic(4);
  // Drop band 2 from one slave: it must disappear from the output.
  anchor::CsiReport& slave = s.round.reports[1];
  anchor::CsiReport kept = slave;
  kept.ClearBands();
  for (std::size_t k = 0; k < slave.band_count(); ++k) {
    if (k != 2) kept.AddBand(slave.band(k));
  }
  slave = kept;
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  EXPECT_EQ(corrected.num_bands(), 4u);
  for (std::uint8_t c : corrected.band_channels) {
    EXPECT_NE(c, 2);
  }
}

TEST(CorrectedChannels, RequiresMaster) {
  SyntheticRound s = MakeSynthetic(5);
  s.round.reports[0].is_master = false;
  EXPECT_THROW(ComputeCorrectedChannels(s.round), std::invalid_argument);
}

TEST(CorrectedChannels, RejectsTwoMasters) {
  SyntheticRound s = MakeSynthetic(6);
  s.round.reports[1].is_master = true;
  EXPECT_THROW(ComputeCorrectedChannels(s.round), std::invalid_argument);
}

TEST(CorrectedChannels, RejectsNoCommonBands) {
  SyntheticRound s = MakeSynthetic(7);
  s.round.reports[1].ClearBands();
  const dsp::CVec ones(4, cplx{1, 0});
  s.round.reports[1].AddBand({.data_channel = 99,
                              .freq_hz = 2.48e9,
                              .tag_csi = ones,
                              .master_csi = ones});
  EXPECT_THROW(ComputeCorrectedChannels(s.round), std::invalid_argument);
}

// Property: the corrected channels are *invariant* to the LO phases — two
// different random offset draws over identical physics give identical alpha.
class OffsetInvarianceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OffsetInvarianceTest, AlphaIndependentOfOffsetDraw) {
  // Same seed => same true channels; the offsets inside MakeSynthetic are
  // drawn after the channels from the same stream, so instead we verify
  // against the closed-form expectation (already offset-free).
  const SyntheticRound s = MakeSynthetic(GetParam());
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  for (std::size_t i = 1; i < 3; ++i) {
    for (std::size_t k = 0; k < 5; ++k) {
      const cplx expected = s.h_tag[i][1][k] *
                            std::conj(s.h_master[i][0][k]) *
                            std::conj(s.h_tag[0][0][k]);
      EXPECT_NEAR(std::abs(corrected.anchors[i].alpha[1][k] - expected), 0.0,
                  1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OffsetInvarianceTest,
                         ::testing::Range<std::uint64_t>(100, 112));

}  // namespace
}  // namespace bloc::core
