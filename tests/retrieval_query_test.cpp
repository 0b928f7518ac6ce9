#include "retrieval/query.hpp"

#include <gtest/gtest.h>

#include "geo/geodesy.hpp"

namespace {

using namespace svg::retrieval;
using svg::geo::LatLng;

Query make_query() {
  Query q;
  q.t_start = 1000;
  q.t_end = 5000;
  q.center = {40.0, 116.0};
  q.radius_m = 50.0;
  return q;
}

TEST(MakeSearchRangeTest, TimeWindowPassesThrough) {
  const auto r = make_search_range(make_query());
  EXPECT_EQ(r.t_start, 1000);
  EXPECT_EQ(r.t_end, 5000);
}

TEST(MakeSearchRangeTest, BoxIsCentredAndSizedByRadius) {
  const Query q = make_query();
  const auto r = make_search_range(q);
  EXPECT_NEAR(0.5 * (r.lng_min + r.lng_max), q.center.lng, 1e-12);
  EXPECT_NEAR(0.5 * (r.lat_min + r.lat_max), q.center.lat, 1e-12);
  // Half-width converts back to ~50 m in both axes.
  const double half_lat_m =
      0.5 * (r.lat_max - r.lat_min) * svg::geo::metres_per_degree_lat();
  const double half_lng_m = 0.5 * (r.lng_max - r.lng_min) *
                            svg::geo::metres_per_degree_lng(q.center.lat);
  EXPECT_NEAR(half_lat_m, 50.0, 0.01);
  EXPECT_NEAR(half_lng_m, 50.0, 0.01);
}

TEST(MakeSearchRangeTest, LongitudeWiderAtHighLatitude) {
  Query q = make_query();
  q.center = {60.0, 10.0};
  const auto r = make_search_range(q);
  // Same metres need ~2x the longitude degrees at 60° N.
  EXPECT_GT(r.lng_max - r.lng_min, 1.9 * (r.lat_max - r.lat_min));
}

TEST(LosslessExpansionTest, CoversCameraRadius) {
  const Query q = make_query();  // r̂ = 50
  const svg::core::CameraIntrinsics cam{30.0, 100.0};
  // The search box reaches any camera that can see the circle.
  const auto r = search_range(q, cam);
  const double half_m =
      0.5 * (r.lat_max - r.lat_min) * svg::geo::metres_per_degree_lat();
  EXPECT_NEAR(half_m, q.radius_m + cam.radius_m, 0.05);
}

// The search box's half-width is r̂ + R on both axes — including a point
// query (r̂ = 0), whose box must still reach every camera within R.
TEST(SearchRangeTest, HalfWidthIsQueryRadiusPlusRadiusOfView) {
  const svg::core::CameraIntrinsics cam{30.0, 100.0};
  for (const double radius : {0.0, 50.0}) {
    Query q = make_query();
    q.radius_m = radius;
    const auto r = search_range(q, cam);
    const double half_lat_m =
        0.5 * (r.lat_max - r.lat_min) * svg::geo::metres_per_degree_lat();
    const double half_lng_m = 0.5 * (r.lng_max - r.lng_min) *
                              svg::geo::metres_per_degree_lng(q.center.lat);
    EXPECT_NEAR(half_lat_m, radius + cam.radius_m, 1e-6) << radius;
    EXPECT_NEAR(half_lng_m, radius + cam.radius_m, 1e-6) << radius;
    EXPECT_NEAR(0.5 * (r.lat_min + r.lat_max), q.center.lat, 1e-12);
    EXPECT_NEAR(0.5 * (r.lng_min + r.lng_max), q.center.lng, 1e-12);
  }
}

}  // namespace
