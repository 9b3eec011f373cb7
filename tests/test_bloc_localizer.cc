#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bloc/localizer.h"
#include "sim/experiment.h"
#include "sim/measurement.h"

namespace bloc::core {
namespace {

/// A shared LOS-clean testbed round (built once: full pipeline runs are the
/// expensive part of this suite).
struct LosFixture {
  sim::ScenarioConfig scenario = sim::LosClean(11);
  sim::Testbed testbed{scenario};
  Deployment deployment = testbed.deployment();
  geom::Vec2 tag{2.3, 1.7};
  net::MeasurementRound round;

  LosFixture() {
    sim::MeasurementSimulator simulator(testbed);
    round = simulator.RunRound(tag, 0);
  }
};

const LosFixture& Los() {
  static const LosFixture fixture;
  return fixture;
}

LocalizerConfig BaseConfig() {
  LocalizerConfig config;
  config.grid = sim::RoomGrid(sim::LosClean(11));
  return config;
}

TEST(Localizer, LocatesLosTagAccurately) {
  const Localizer localizer(Los().deployment, BaseConfig());
  const LocationResult result = localizer.Locate(Los().round);
  EXPECT_LT(geom::Distance(result.position, Los().tag), 0.15);
  EXPECT_EQ(result.anchors_used, 4u);
  EXPECT_EQ(result.bands_used, 37u);
}

TEST(Localizer, RequiresMasterInDeployment) {
  Deployment dep = Los().deployment;
  for (auto& a : dep.anchors) a.is_master = false;
  EXPECT_THROW(Localizer(dep, BaseConfig()), std::invalid_argument);
}

TEST(Localizer, RejectsInvalidGrid) {
  LocalizerConfig config = BaseConfig();
  config.grid.resolution = -1.0;
  EXPECT_THROW(Localizer(Los().deployment, config), std::invalid_argument);
}

TEST(Localizer, AllowedAnchorsMustIncludeMaster) {
  LocalizerConfig config = BaseConfig();
  config.allowed_anchors = {2, 3};  // master is anchor 1
  EXPECT_THROW(Localizer(Los().deployment, config), std::invalid_argument);
}

TEST(Localizer, AnchorSubsetStillLocates) {
  LocalizerConfig config = BaseConfig();
  config.allowed_anchors = {1, 2, 3};
  const Localizer localizer(Los().deployment, config);
  const LocationResult result = localizer.Locate(Los().round);
  EXPECT_EQ(result.anchors_used, 3u);
  EXPECT_LT(geom::Distance(result.position, Los().tag), 0.3);
}

TEST(Localizer, ChannelSubsetFilters) {
  LocalizerConfig config = BaseConfig();
  config.allowed_channels = {0, 4, 8, 12, 16, 20, 24, 28, 32, 36};
  const Localizer localizer(Los().deployment, config);
  const LocationResult result = localizer.Locate(Los().round);
  EXPECT_EQ(result.bands_used, 10u);
  EXPECT_LT(geom::Distance(result.position, Los().tag), 0.3);
}

TEST(Localizer, AntennaSubsetFilters) {
  LocalizerConfig config = BaseConfig();
  config.max_antennas = 3;
  const Localizer localizer(Los().deployment, config);
  const LocationResult result = localizer.Locate(Los().round);
  EXPECT_LT(geom::Distance(result.position, Los().tag), 0.3);
}

TEST(Localizer, KeepMapExposesFusedLikelihood) {
  LocalizerConfig config = BaseConfig();
  config.keep_map = true;
  const Localizer localizer(Los().deployment, config);
  const LocationResult result = localizer.Locate(Los().round);
  ASSERT_NE(result.fused_map, nullptr);
  // The estimated position must be (near) the map's maximum in LOS.
  const auto cell = result.fused_map->ArgMax();
  EXPECT_NEAR(result.fused_map->XOf(cell.col), result.position.x, 0.5);
  // Without keep_map the map is absent.
  const Localizer no_map(Los().deployment, BaseConfig());
  EXPECT_EQ(no_map.Locate(Los().round).fused_map, nullptr);
}

TEST(Localizer, CorrectedForExposesFilteredBands) {
  LocalizerConfig config = BaseConfig();
  config.allowed_channels = {1, 2, 3};
  const Localizer localizer(Los().deployment, config);
  const CorrectedChannels corrected = localizer.CorrectedFor(Los().round);
  EXPECT_EQ(corrected.num_bands(), 3u);
}

/// Bit-identical comparison of two fixes.
void ExpectSameFix(const LocationResult& a, const LocationResult& b) {
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.bands_used, b.bands_used);
  EXPECT_EQ(a.anchors_used, b.anchors_used);
  EXPECT_EQ(a.peaks.size(), b.peaks.size());
}

/// `report` without its band `skip`.
anchor::CsiReport WithoutBand(const anchor::CsiReport& report,
                              std::size_t skip) {
  anchor::CsiReport out;
  out.anchor_id = report.anchor_id;
  out.is_master = report.is_master;
  out.round_id = report.round_id;
  for (std::size_t k = 0; k < report.band_count(); ++k) {
    if (k != skip) out.AddBand(report.band(k));
  }
  return out;
}

TEST(Localizer, UnknownAnchorReportIsSkipped) {
  const Localizer localizer(Los().deployment, BaseConfig());
  const LocationResult clean = localizer.Locate(Los().round);

  // An extra report from an anchor the deployment has no pose for.
  net::MeasurementRound extra = Los().round;
  extra.reports.push_back(extra.reports[1]);
  extra.reports.back().anchor_id = 77;
  ExpectSameFix(localizer.Locate(extra), clean);

  // A known anchor's report relabelled: the round runs on the other three.
  net::MeasurementRound relabelled = Los().round;
  relabelled.reports[1].anchor_id = 77;
  net::MeasurementRound three = Los().round;
  three.reports.erase(three.reports.begin() + 1);
  const LocationResult got = localizer.Locate(relabelled);
  EXPECT_EQ(got.anchors_used, 3u);
  ExpectSameFix(got, localizer.Locate(three));
}

TEST(Localizer, FusedMapRejectsUnknownAnchor) {
  // FusedMap takes channels that never went through FilterInto.
  const Localizer localizer(Los().deployment, BaseConfig());
  net::MeasurementRound round = Los().round;
  round.reports[1].anchor_id = 77;
  EXPECT_THROW(localizer.FusedMap(ComputeCorrectedChannels(round)),
               std::invalid_argument);
}

TEST(Localizer, NonFiniteCsiDropsTheBand) {
  const Localizer localizer(Los().deployment, BaseConfig());
  constexpr std::size_t kBand = 5;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < Los().round.reports.size(); ++r) {
    const anchor::CsiReport& report = Los().round.reports[r];
    net::MeasurementRound expected_round = Los().round;
    expected_round.reports[r] = WithoutBand(report, kBand);
    const LocationResult expected = localizer.Locate(expected_round);
    ASSERT_EQ(expected.bands_used, 36u);

    // A NaN tag sample, on the master's report and on every slave's.
    net::MeasurementRound tag_nan = Los().round;
    tag_nan.reports[r].mutable_band(kBand).tag_csi[1] = {nan, 0.0};
    const LocationResult got = localizer.Locate(tag_nan);
    EXPECT_TRUE(std::isfinite(got.score)) << "report " << r;
    ExpectSameFix(got, expected);

    // An infinite sample of the overheard master response (slaves only).
    if (report.is_master) continue;
    net::MeasurementRound master_inf = Los().round;
    master_inf.reports[r].mutable_band(kBand).master_csi[0] = {0.0, inf};
    const LocationResult got_master = localizer.Locate(master_inf);
    EXPECT_TRUE(std::isfinite(got_master.score)) << "report " << r;
    ExpectSameFix(got_master, expected);
  }
}

TEST(Localizer, PeaksArePopulated) {
  const Localizer localizer(Los().deployment, BaseConfig());
  const LocationResult result = localizer.Locate(Los().round);
  ASSERT_FALSE(result.peaks.empty());
  EXPECT_DOUBLE_EQ(result.peaks.front().score, result.score);
}

TEST(Deployment, MasterReferenceDistances) {
  const Deployment& dep = Los().deployment;
  const AnchorPose* master = dep.Master();
  ASSERT_NE(master, nullptr);
  EXPECT_DOUBLE_EQ(dep.MasterReferenceDistance(master->id), 0.0);
  for (const AnchorPose& a : dep.anchors) {
    if (a.id == master->id) continue;
    EXPECT_NEAR(dep.MasterReferenceDistance(a.id),
                geom::Distance(a.geometry.AntennaPosition(0),
                               master->geometry.AntennaPosition(0)),
                1e-12);
  }
  EXPECT_THROW(dep.MasterReferenceDistance(99), std::invalid_argument);
}

TEST(Deployment, AnchorIdsMasterFirst) {
  const auto ids = Los().deployment.AnchorIds();
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], Los().deployment.Master()->id);
}

}  // namespace
}  // namespace bloc::core
