#include "geo/sector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "geo/angle.hpp"
#include "util/rng.hpp"

namespace {

using svg::geo::Sector;
using svg::geo::Sight;
using svg::geo::Vec2;

Sector north_sector(double half_angle = 30.0, double radius = 100.0) {
  Sector s;
  s.apex = {0, 0};
  s.azimuth_deg = 0.0;
  s.half_angle_deg = half_angle;
  s.radius_m = radius;
  return s;
}

TEST(SectorCoversTest, ApexIsCovered) {
  EXPECT_TRUE(north_sector().covers({0, 0}));
}

TEST(SectorCoversTest, PointsAlongAxis) {
  const Sector s = north_sector();
  EXPECT_TRUE(s.covers({0, 50}));
  EXPECT_TRUE(s.covers({0, 100}));   // boundary inclusive
  EXPECT_FALSE(s.covers({0, 100.1}));
  EXPECT_FALSE(s.covers({0, -1}));   // behind
}

TEST(SectorCoversTest, AngularBoundary) {
  const Sector s = north_sector(30.0, 100.0);
  // 29.9° off-axis at range 50: inside.
  const double a1 = svg::geo::deg_to_rad(29.9);
  EXPECT_TRUE(s.covers({50 * std::sin(a1), 50 * std::cos(a1)}));
  // 30.1° off-axis: outside.
  const double a2 = svg::geo::deg_to_rad(30.1);
  EXPECT_FALSE(s.covers({50 * std::sin(a2), 50 * std::cos(a2)}));
}

TEST(SectorCoversTest, WorksAcrossNorthWrap) {
  Sector s = north_sector(30.0, 100.0);
  s.azimuth_deg = 350.0;
  // 10° east of north is within [320°, 20°].
  const double a = svg::geo::deg_to_rad(10.0);
  EXPECT_TRUE(s.covers({50 * std::sin(a), 50 * std::cos(a)}));
  // 50° east of north is not.
  const double b = svg::geo::deg_to_rad(50.0);
  EXPECT_FALSE(s.covers({50 * std::sin(b), 50 * std::cos(b)}));
}

// The edges of sight(), the one orientation test: a target on the camera,
// a cone of 180° or more, and no radius cut.
TEST(SightPredicateTest, EdgeRows) {
  using svg::geo::cone_cos;
  using svg::geo::sight;
  const double r2 = 100.0 * 100.0;
  // Heading north; target 50 m south, i.e. straight behind the camera.
  EXPECT_FALSE(sight(0.0, -50.0, 0.0, 1.0, r2, cone_cos(35.0)).seen);
  EXPECT_TRUE(sight(0.0, -50.0, 0.0, 1.0, r2, cone_cos(180.0)).seen);
  EXPECT_TRUE(sight(0.0, -50.0, 0.0, 1.0, r2, cone_cos(190.0)).seen);
  // A plain cos(190°) > −1 would reject it.
  EXPECT_FALSE(sight(0.0, -50.0, 0.0, 1.0, r2,
                     std::cos(svg::geo::deg_to_rad(190.0)))
                   .seen);
  // On the camera: seen whatever the heading, at distance 0.
  const Sight on = sight(0.0, 0.0, 0.0, -1.0, r2, cone_cos(10.0));
  EXPECT_TRUE(on.seen);
  EXPECT_EQ(on.distance_m, 0.0);
  // Exactly at R along the axis: inclusive.
  EXPECT_TRUE(sight(0.0, 100.0, 0.0, 1.0, r2, cone_cos(30.0)).seen);
  // No radius cut: any distance.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(sight(0.0, 1e6, 0.0, 1.0, inf, cone_cos(30.0)).seen);
  EXPECT_FALSE(sight(0.0, 1e6, 0.0, 1.0, r2, cone_cos(30.0)).seen);
}

// sight() against the independent atan2 form of the same predicate:
// within R, and the bearing to the target within `limit` of θ
// (angular_difference_deg(azimuth_of_direction(d), θ) ≤ limit). Inputs
// closer than 1e-9° to the cone's edge, or 1e-9 R to its arc, are
// skipped: there the two forms may round differently.
TEST(SightPredicateTest, MatchesAtan2FormOnRandomInputs) {
  using namespace svg::geo;
  svg::util::Xoshiro256 rng(2024);
  int checked = 0;
  int seen = 0;
  for (int i = 0; i < 200'000; ++i) {
    const double theta = rng.uniform(0.0, 360.0);
    // One cone in five reaches 180° or more: every heading passes.
    const double limit = rng.chance(0.2) ? rng.uniform(180.0, 200.0)
                                         : rng.uniform(1.0, 179.0);
    const double radius = rng.uniform(10.0, 200.0);
    const double dist = rng.uniform(0.0, 1.5 * radius);
    const double bearing = deg_to_rad(rng.uniform(0.0, 360.0));
    const double east = dist * std::sin(bearing);
    const double north = dist * std::cos(bearing);

    const double d = std::hypot(east, north);
    const double off =
        angular_difference_deg(azimuth_of_direction(east, north), theta);
    if (std::fabs(off - limit) <= 1e-9 ||
        std::fabs(d - radius) <= 1e-9 * radius) {
      continue;
    }
    const bool want = d <= radius && (d == 0.0 || off <= limit);

    double dir_east = 0.0;
    double dir_north = 0.0;
    direction_of_azimuth(theta, dir_east, dir_north);
    const Sight got = sight(east, north, dir_east, dir_north,
                            radius * radius, cone_cos(limit));
    ASSERT_EQ(got.seen, want) << "theta " << theta << " limit " << limit
                              << " radius " << radius << " east " << east
                              << " north " << north;
    ASSERT_NEAR(got.distance_m, d, 1e-12 * radius);
    ++checked;
    seen += want ? 1 : 0;
  }
  EXPECT_GT(checked, 199'000);
  EXPECT_GT(seen, 20'000);
  EXPECT_LT(seen, checked - 20'000);
}

TEST(SectorAreaTest, MatchesFormula) {
  const Sector s = north_sector(30.0, 100.0);
  EXPECT_NEAR(s.area(), (60.0 / 360.0) * std::numbers::pi * 1e4, 1e-9);
}

TEST(SectorAxisTest, PointsAlongAzimuth) {
  Sector s = north_sector();
  s.azimuth_deg = 90.0;
  const Vec2 a = s.axis();
  EXPECT_NEAR(a.x, 1.0, 1e-12);
  EXPECT_NEAR(a.y, 0.0, 1e-12);
}

TEST(SectorBoundingBoxTest, ContainsPolygonSamples) {
  for (double az : {0.0, 45.0, 135.0, 250.0, 355.0}) {
    Sector s = north_sector(35.0, 80.0);
    s.azimuth_deg = az;
    const auto bb = s.bounding_box();
    for (const Vec2& p : s.polygon(64)) {
      EXPECT_TRUE(bb.contains_point({p.x, p.y}))
          << "az=" << az << " p=(" << p.x << "," << p.y << ")";
    }
  }
}

TEST(SectorBoundingBoxTest, NorthFacingIncludesArcTop) {
  const Sector s = north_sector(30.0, 100.0);
  const auto bb = s.bounding_box();
  // The arc's topmost point is (0, R), which exceeds the chord endpoints.
  EXPECT_NEAR(bb.max[1], 100.0, 1e-9);
  EXPECT_NEAR(bb.min[1], 0.0, 1e-9);
  EXPECT_NEAR(bb.max[0], 50.0, 1e-9);   // R sin 30°
  EXPECT_NEAR(bb.min[0], -50.0, 1e-9);
}

TEST(SectorPolygonTest, VerticesOnArcOrApex) {
  const Sector s = north_sector(30.0, 100.0);
  const auto poly = s.polygon(16);
  EXPECT_EQ(poly.size(), 17u);
  EXPECT_EQ(poly.front(), (Vec2{0, 0}));
  for (std::size_t i = 1; i < poly.size(); ++i) {
    EXPECT_NEAR(poly[i].norm(), 100.0, 1e-9);
  }
}

TEST(SectorOverlapTest, SelfOverlapEqualsArea) {
  const Sector s = north_sector(30.0, 100.0);
  const double overlap = sector_overlap_area(s, s, 512);
  EXPECT_NEAR(overlap, s.area(), 0.02 * s.area());
}

TEST(SectorOverlapTest, DisjointSectorsZero) {
  const Sector a = north_sector();
  Sector b = north_sector();
  b.apex = {500, 0};
  EXPECT_EQ(sector_overlap_area(a, b), 0.0);
}

TEST(SectorOverlapTest, OppositeDirectionsZero) {
  const Sector a = north_sector();
  Sector b = north_sector();
  b.azimuth_deg = 180.0;
  EXPECT_NEAR(sector_overlap_area(a, b, 256), 0.0, 1.0);
}

TEST(SectorOverlapTest, HalfRotationOverlapRoughlyHalf) {
  const Sector a = north_sector(30.0, 100.0);
  Sector b = a;
  b.azimuth_deg = 30.0;  // half the 60° span shared
  const double overlap = sector_overlap_area(a, b, 512);
  EXPECT_NEAR(overlap / a.area(), 0.5, 0.03);
}

TEST(SectorOverlapTest, MonotoneInRotation) {
  const Sector a = north_sector(30.0, 100.0);
  double prev = sector_overlap_area(a, a, 256);
  for (double az = 10.0; az <= 70.0; az += 10.0) {
    Sector b = a;
    b.azimuth_deg = az;
    const double o = sector_overlap_area(a, b, 256);
    EXPECT_LE(o, prev + 0.02 * a.area()) << az;
    prev = o;
  }
}

}  // namespace
