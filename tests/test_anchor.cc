#include <gtest/gtest.h>

#include "anchor/anchor.h"
#include "anchor/array.h"

namespace bloc::anchor {
namespace {

TEST(Array, HalfWavelengthSpacing) {
  EXPECT_NEAR(HalfWavelengthSpacing(), 0.0614, 0.0005);
}

TEST(Array, AntennaPositionsAlongAxis) {
  ArrayGeometry g;
  g.origin = {1.0, 2.0};
  g.axis_radians = 0.0;  // along +x
  g.spacing_m = 0.06;
  g.num_antennas = 4;
  EXPECT_EQ(g.AntennaPosition(0), (geom::Vec2{1.0, 2.0}));
  EXPECT_NEAR(g.AntennaPosition(3).x, 1.18, 1e-12);
  EXPECT_NEAR(g.AntennaPosition(3).y, 2.0, 1e-12);
  EXPECT_EQ(g.AllAntennaPositions().size(), 4u);
}

TEST(Array, BoresightPerpendicularToAxis) {
  ArrayGeometry g;
  g.axis_radians = 0.0;
  const geom::Vec2 b = g.Boresight();
  EXPECT_NEAR(b.x, 0.0, 1e-12);
  EXPECT_NEAR(b.y, 1.0, 1e-12);
}

TEST(Array, CentroidIsArrayMidpoint) {
  ArrayGeometry g;
  g.origin = {0.0, 0.0};
  g.axis_radians = 0.0;
  g.spacing_m = 0.1;
  g.num_antennas = 4;
  const geom::Vec2 c = g.Centroid();
  EXPECT_NEAR(c.x, 0.15, 1e-12);
  EXPECT_NEAR(c.y, 0.0, 1e-12);
}

TEST(Array, MakeFacingArrayGeometry) {
  // Array centred at (3, 0) facing north: boresight must equal the facing
  // direction and the centroid the requested centre.
  const ArrayGeometry g = MakeFacingArray({3.0, 0.0}, {0.0, 1.0}, 4, 0.06);
  EXPECT_NEAR(g.Boresight().x, 0.0, 1e-9);
  EXPECT_NEAR(g.Boresight().y, 1.0, 1e-9);
  const geom::Vec2 c = g.Centroid();
  EXPECT_NEAR(c.x, 3.0, 1e-9);
  EXPECT_NEAR(c.y, 0.0, 1e-9);
  // All antennas lie on the y=0 line.
  for (const geom::Vec2& p : g.AllAntennaPositions()) {
    EXPECT_NEAR(p.y, 0.0, 1e-9);
  }
}

TEST(Array, MakeFacingArrayArbitraryDirection) {
  const geom::Vec2 facing = geom::Vec2{1.0, 1.0}.Normalized();
  const ArrayGeometry g = MakeFacingArray({2.0, 2.0}, facing, 3, 0.0614);
  EXPECT_NEAR(g.Boresight().Dot(facing), 1.0, 1e-9);
  // Antenna axis is perpendicular to facing.
  const geom::Vec2 axis =
      (g.AntennaPosition(1) - g.AntennaPosition(0)).Normalized();
  EXPECT_NEAR(axis.Dot(facing), 0.0, 1e-9);
}

TEST(CsiReport, FindBand) {
  CsiReport report;
  report.AddBand(12, 2.43e9, 4, 4);
  ASSERT_TRUE(report.FindBand(12).has_value());
  EXPECT_EQ(report.FindBand(12)->tag_csi.size(), 4u);
  EXPECT_FALSE(report.FindBand(13).has_value());
}

TEST(AnchorNode, RolesAndIdentity) {
  const ArrayGeometry g = MakeFacingArray({0, 0}, {0, 1});
  const chan::ImpairmentConfig impairments;
  AnchorNode master(1, AnchorRole::kMaster, g, impairments, dsp::Rng(1));
  AnchorNode slave(2, AnchorRole::kSlave, g, impairments, dsp::Rng(1));
  EXPECT_TRUE(master.is_master());
  EXPECT_FALSE(slave.is_master());
  EXPECT_EQ(master.id(), 1u);
  EXPECT_TRUE(master.report().is_master);
  EXPECT_FALSE(slave.report().is_master);
}

TEST(AnchorNode, RoundLifecycle) {
  const ArrayGeometry g = MakeFacingArray({0, 0}, {0, 1});
  AnchorNode node(3, AnchorRole::kSlave, g, {}, dsp::Rng(2));
  node.BeginRound(42);
  BandMeasurement band;
  band.data_channel = 7;
  node.mutable_report().AddBand(band);
  EXPECT_EQ(node.report().round_id, 42u);
  EXPECT_EQ(node.report().band_count(), 1u);
  node.BeginRound(43);
  EXPECT_EQ(node.report().round_id, 43u);
  EXPECT_TRUE(node.report().bands().empty());
}

TEST(AnchorNode, DistinctOscillatorsPerAnchor) {
  const ArrayGeometry g = MakeFacingArray({0, 0}, {0, 1});
  AnchorNode a(1, AnchorRole::kMaster, g, {}, dsp::Rng(5));
  AnchorNode b(2, AnchorRole::kSlave, g, {}, dsp::Rng(5));
  // Same root seed but distinct ids fork distinct LO streams.
  EXPECT_NE(a.oscillator().phase(), b.oscillator().phase());
}

}  // namespace
}  // namespace bloc::anchor
