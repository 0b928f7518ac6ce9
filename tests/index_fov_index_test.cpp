#include "index/fov_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::index;
using svg::core::RepresentativeFov;
using svg::geo::LatLng;

RepresentativeFov make_rep(std::uint64_t vid, double lat, double lng,
                           double theta, svg::core::TimestampMs t0,
                           svg::core::TimestampMs t1) {
  RepresentativeFov r;
  r.video_id = vid;
  r.fov.p = {lat, lng};
  r.fov.theta_deg = theta;
  r.t_start = t0;
  r.t_end = t1;
  return r;
}

GeoTimeRange range(double lng0, double lng1, double lat0, double lat1,
                   svg::core::TimestampMs t0, svg::core::TimestampMs t1) {
  return GeoTimeRange{lng0, lng1, lat0, lat1, t0, t1};
}

std::vector<std::uint64_t> ids(const std::vector<RepresentativeFov>& v) {
  std::vector<std::uint64_t> out;
  for (const auto& r : v) out.push_back(r.video_id);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FovIndexTest, InsertAndSpatialQuery) {
  FovIndex idx;
  idx.insert(make_rep(1, 40.0, 116.0, 0, 0, 1000));
  idx.insert(make_rep(2, 40.5, 116.5, 0, 0, 1000));
  const auto hits =
      idx.query_collect(range(115.9, 116.1, 39.9, 40.1, 0, 2000));
  EXPECT_EQ(ids(hits), (std::vector<std::uint64_t>{1}));
}

TEST(FovIndexTest, TemporalFiltering) {
  FovIndex idx;
  idx.insert(make_rep(1, 40.0, 116.0, 0, 0, 1000));
  idx.insert(make_rep(2, 40.0, 116.0, 0, 5000, 6000));
  // Window covering only the second segment.
  EXPECT_EQ(ids(idx.query_collect(range(115.9, 116.1, 39.9, 40.1, 4000,
                                        7000))),
            (std::vector<std::uint64_t>{2}));
  // Window overlapping both.
  EXPECT_EQ(ids(idx.query_collect(range(115.9, 116.1, 39.9, 40.1, 500,
                                        5500))),
            (std::vector<std::uint64_t>{1, 2}));
  // Window between them.
  EXPECT_TRUE(
      idx.query_collect(range(115.9, 116.1, 39.9, 40.1, 2000, 4000))
          .empty());
}

TEST(FovIndexTest, IntervalTouchingWindowBoundaryMatches) {
  FovIndex idx;
  idx.insert(make_rep(1, 40.0, 116.0, 0, 1000, 2000));
  EXPECT_EQ(
      idx.query_collect(range(115.9, 116.1, 39.9, 40.1, 2000, 3000)).size(),
      1u);
  EXPECT_EQ(
      idx.query_collect(range(115.9, 116.1, 39.9, 40.1, 0, 1000)).size(),
      1u);
}

TEST(FovIndexTest, MatchesLinearIndexOnRandomWorkload) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(42);
  const auto reps = svg::sim::random_representative_fovs(
      3000, city, 0, 86'400'000, rng);
  FovIndex tree;
  LinearIndex linear;
  for (const auto& r : reps) {
    tree.insert(r);
    linear.insert(r);
  }
  tree.check_invariants();
  for (int q = 0; q < 100; ++q) {
    const LatLng c = city.random_point(rng);
    const double half = rng.uniform(0.0005, 0.01);
    const auto t0 = static_cast<svg::core::TimestampMs>(
        rng.bounded(86'400'000));
    const auto t1 = t0 + static_cast<svg::core::TimestampMs>(
                             rng.bounded(3'600'000));
    const auto gr =
        range(c.lng - half, c.lng + half, c.lat - half, c.lat + half, t0,
              t1);
    ASSERT_EQ(ids(tree.query_collect(gr)), ids(linear.query_collect(gr)))
        << "query " << q;
  }
}

TEST(FovIndexTest, BulkLoadMatchesDynamic) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(43);
  const auto reps = svg::sim::random_representative_fovs(
      2000, city, 0, 86'400'000, rng);
  FovIndex dynamic;
  for (const auto& r : reps) dynamic.insert(r);
  const FovIndex bulk = FovIndex::bulk_load(reps);
  EXPECT_EQ(bulk.size(), 2000u);
  bulk.check_invariants();

  // The end-to-end benchmark's oracle: bulk-load a base, then insert the
  // rest. Inserted FoVs take the slots after the bulk-loaded ones.
  FovIndex mixed = FovIndex::bulk_load({reps.begin(), reps.begin() + 1200});
  for (std::size_t i = 1200; i < reps.size(); ++i) mixed.insert(reps[i]);
  EXPECT_EQ(mixed.size(), 2000u);
  mixed.check_invariants();
  const auto snap = mixed.snapshot();
  ASSERT_EQ(snap.size(), reps.size());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    ASSERT_EQ(snap[i].video_id, reps[i].video_id) << "slot " << i;
  }

  for (int q = 0; q < 50; ++q) {
    const LatLng c = city.random_point(rng);
    const auto gr = range(c.lng - 0.005, c.lng + 0.005, c.lat - 0.005,
                          c.lat + 0.005, 0, 86'400'000);
    const auto expect = ids(dynamic.query_collect(gr));
    ASSERT_EQ(ids(bulk.query_collect(gr)), expect);
    ASSERT_EQ(ids(mixed.query_collect(gr)), expect);
  }
}

// The same bulk-load-then-insert mix at every seam: nothing packed, a
// partial root leaf, a root leaf one short of, at and one past a split
// (the default node capacity is 16), most, all but one, everything. The
// slots follow insertion order across the seam, and every query answers
// like the linear scan.
class FovIndexMixedLoad : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FovIndexMixedLoad, BulkLoadThenInsertMatchesLinearScan) {
  const std::size_t split = GetParam();
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(45);
  const auto reps = svg::sim::random_representative_fovs(
      2000, city, 0, 86'400'000, rng);
  ASSERT_LE(split, reps.size());
  FovIndex idx = FovIndex::bulk_load({reps.begin(), reps.begin() + split});
  EXPECT_EQ(idx.size(), split);
  for (std::size_t i = split; i < reps.size(); ++i) idx.insert(reps[i]);
  LinearIndex linear;
  for (const auto& r : reps) linear.insert(r);
  EXPECT_EQ(idx.size(), reps.size());
  EXPECT_EQ(linear.size(), reps.size());
  idx.check_invariants();

  const auto snap = idx.snapshot();
  ASSERT_EQ(snap.size(), reps.size());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    ASSERT_EQ(snap[i].video_id, reps[i].video_id) << "slot " << i;
    ASSERT_EQ(snap[i].t_start, reps[i].t_start) << "slot " << i;
  }

  for (int q = 0; q < 40; ++q) {
    const LatLng c = city.random_point(rng);
    const double half = rng.uniform(0.0005, 0.01);
    const auto t0 = static_cast<svg::core::TimestampMs>(
        rng.bounded(86'400'000));
    const auto t1 = t0 + static_cast<svg::core::TimestampMs>(
                             rng.bounded(3'600'000));
    const auto gr =
        range(c.lng - half, c.lng + half, c.lat - half, c.lat + half, t0,
              t1);
    ASSERT_EQ(ids(idx.query_collect(gr)), ids(linear.query_collect(gr)))
        << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, FovIndexMixedLoad,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{15}, std::size_t{16},
                                           std::size_t{17}, std::size_t{1200},
                                           std::size_t{1999},
                                           std::size_t{2000}));

TEST(FovIndexTest, StatsExposeTreeShape) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(44);
  FovIndex idx;
  for (const auto& r :
       svg::sim::random_representative_fovs(1000, city, 0, 1000000, rng)) {
    idx.insert(r);
  }
  const auto s = idx.stats();
  EXPECT_EQ(s.size, 1000u);
  EXPECT_GE(s.height, 2u);
}

}  // namespace
