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

RetrievalConfig unfiltered() {
  RetrievalConfig c;
  c.orientation_filter = false;
  return c;
}

/// The box's half-width in metres on each axis, at the centre's latitude.
struct HalfWidth {
  double lat_m = 0.0;
  double lng_m = 0.0;
};

HalfWidth half_width(const svg::index::GeoTimeRange& r, const Query& q) {
  return {0.5 * (r.lat_max - r.lat_min) * svg::geo::metres_per_degree_lat(),
          0.5 * (r.lng_max - r.lng_min) *
              svg::geo::metres_per_degree_lng(q.center.lat)};
}

/// R plus the fixed rounding margin the box adds with the filter on.
double filtered_half_m(const RetrievalConfig& c) {
  return c.camera.radius_m * (1.0 + 1e-9) + 1e-6;
}

TEST(MakeSearchRangeTest, TimeWindowPassesThrough) {
  for (const RetrievalConfig& c : {RetrievalConfig{}, unfiltered()}) {
    const auto r = c.search_range(make_query());
    EXPECT_EQ(r.t_start, 1000);
    EXPECT_EQ(r.t_end, 5000);
  }
}

TEST(MakeSearchRangeTest, BoxIsCentredAndSizedByRadius) {
  const Query q = make_query();
  const RetrievalConfig c;
  const auto r = c.search_range(q);
  EXPECT_NEAR(0.5 * (r.lng_min + r.lng_max), q.center.lng, 1e-12);
  EXPECT_NEAR(0.5 * (r.lat_min + r.lat_max), q.center.lat, 1e-12);
  // Half-width converts back to ~R = 100 m in both axes.
  const HalfWidth h = half_width(r, q);
  EXPECT_NEAR(h.lat_m, c.camera.radius_m, 0.01);
  EXPECT_NEAR(h.lng_m, c.camera.radius_m, 0.01);
}

TEST(MakeSearchRangeTest, LongitudeWiderAtHighLatitude) {
  Query q = make_query();
  q.center = {60.0, 10.0};
  const auto r = RetrievalConfig{}.search_range(q);
  // Same metres need ~2x the longitude degrees at 60° N.
  EXPECT_GT(r.lng_max - r.lng_min, 1.9 * (r.lat_max - r.lat_min));
}

// With the filter on, the box reaches exactly as far as the cone test:
// R plus the rounding margin, so every camera that can see p̂ is inside
// and r̂ = 50 does not widen it. With the filter off the box is the
// result, r̂ + R.
TEST(LosslessExpansionTest, CoversCameraRadius) {
  const Query q = make_query();  // r̂ = 50
  RetrievalConfig c;
  c.camera = {30.0, 100.0};
  const HalfWidth on = half_width(c.search_range(q), q);
  EXPECT_NEAR(on.lat_m, filtered_half_m(c), 1e-7);
  EXPECT_GT(on.lat_m, c.camera.radius_m);
  c.orientation_filter = false;
  const HalfWidth off = half_width(c.search_range(q), q);
  EXPECT_NEAR(off.lat_m, q.radius_m + c.camera.radius_m, 1e-6);
}

// The search box's half-width is R + margin on both axes at every r̂ —
// a point query's (r̂ = 0) included — with the filter on, and r̂ + R with
// it off.
TEST(SearchRangeTest, HalfWidthIsQueryRadiusPlusRadiusOfView) {
  RetrievalConfig on;
  on.camera = {30.0, 100.0};
  RetrievalConfig off = on;
  off.orientation_filter = false;
  for (const double radius : {0.0, 50.0, 5000.0}) {
    Query q = make_query();
    q.radius_m = radius;
    const HalfWidth h = half_width(on.search_range(q), q);
    EXPECT_NEAR(h.lat_m, filtered_half_m(on), 1e-7) << radius;
    EXPECT_NEAR(h.lng_m, filtered_half_m(on), 1e-7) << radius;
    EXPECT_GT(h.lat_m, on.camera.radius_m) << radius;
    EXPECT_GT(h.lng_m, on.camera.radius_m) << radius;
    const auto r = off.search_range(q);
    const HalfWidth w = half_width(r, q);
    EXPECT_NEAR(w.lat_m, radius + off.camera.radius_m, 1e-6) << radius;
    EXPECT_NEAR(w.lng_m, radius + off.camera.radius_m, 1e-6) << radius;
    EXPECT_NEAR(0.5 * (r.lat_min + r.lat_max), q.center.lat, 1e-12);
    EXPECT_NEAR(0.5 * (r.lng_min + r.lng_max), q.center.lng, 1e-12);
  }
  // A negative r̂ counts as 0.
  Query q = make_query();
  q.radius_m = -20.0;
  EXPECT_NEAR(half_width(off.search_range(q), q).lat_m,
              off.camera.radius_m, 1e-6);
}

}  // namespace
