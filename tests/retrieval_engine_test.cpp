#include "retrieval/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "geo/geodesy.hpp"
#include "index/tiered_fov_index.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::retrieval;
using svg::core::RepresentativeFov;
using svg::geo::LatLng;
using svg::geo::offset_m;
using svg::index::FovIndex;
using svg::index::LinearIndex;
using svg::index::TieredFovIndex;

const LatLng kCenter{39.9042, 116.4074};

RepresentativeFov rep_at(std::uint64_t vid, double east, double north,
                         double theta, svg::core::TimestampMs t0 = 0,
                         svg::core::TimestampMs t1 = 10'000) {
  RepresentativeFov r;
  r.video_id = vid;
  r.fov.p = offset_m(kCenter, east, north);
  r.fov.theta_deg = theta;
  r.t_start = t0;
  r.t_end = t1;
  return r;
}

Query query_at(double radius = 30.0) {
  Query q;
  q.t_start = 0;
  q.t_end = 10'000;
  q.center = kCenter;
  q.radius_m = radius;
  return q;
}

RetrievalConfig config() {
  RetrievalConfig c;
  c.camera = {30.0, 100.0};
  c.orientation_slack_deg = 0.0;
  c.top_n = 10;
  return c;
}

TEST(RetrievalEngineTest, CameraFacingQueryIsReturned) {
  FovIndex idx;
  // 50 m south of centre, facing north → sees the centre.
  idx.insert(rep_at(1, 0, -50, 0.0));
  RetrievalEngine<FovIndex> engine(idx, config());
  const auto results = engine.search(query_at());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].rep.video_id, 1u);
  EXPECT_NEAR(results[0].distance_m, 50.0, 0.1);
}

TEST(RetrievalEngineTest, CameraFacingAwayIsFiltered) {
  FovIndex idx;
  idx.insert(rep_at(1, 0, -50, 180.0));  // south of centre, facing south
  RetrievalEngine<FovIndex> engine(idx, config());
  SearchTrace trace;
  const auto results = engine.search(query_at(), &trace);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(trace.candidates, 1u);   // found by range search
  EXPECT_EQ(trace.after_filter, 0u); // killed by orientation filter
}

TEST(RetrievalEngineTest, MerkelGrandstandScenario) {
  // The paper's example: a camera in the first row filming the grandstand
  // (away from the pitch) must not match a query about the pitch.
  FovIndex idx;
  idx.insert(rep_at(1, 0, -20, 0.0));    // filming toward the pitch centre
  idx.insert(rep_at(2, 0, -20, 180.0));  // front row, filming the stands
  RetrievalEngine<FovIndex> engine(idx, config());
  const auto results = engine.search(query_at());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].rep.video_id, 1u);
}

TEST(RetrievalEngineTest, BeyondRadiusOfViewFiltered) {
  FovIndex idx;
  idx.insert(rep_at(1, 0, -150, 0.0));  // 150 m away, R = 100
  RetrievalEngine<FovIndex> engine(idx, config());
  EXPECT_TRUE(engine.search(query_at()).empty());
}

TEST(RetrievalEngineTest, TimeWindowFiltersSegments) {
  FovIndex idx;
  idx.insert(rep_at(1, 0, -50, 0.0, 0, 1000));
  idx.insert(rep_at(2, 0, -50, 0.0, 20'000, 30'000));
  RetrievalEngine<FovIndex> engine(idx, config());
  Query q = query_at();
  q.t_start = 0;
  q.t_end = 5000;
  const auto results = engine.search(q);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].rep.video_id, 1u);
}

TEST(RetrievalEngineTest, RankedByDistanceAscending) {
  FovIndex idx;
  idx.insert(rep_at(1, 0, -80, 0.0));
  idx.insert(rep_at(2, 0, -20, 0.0));
  idx.insert(rep_at(3, 0, -50, 0.0));
  RetrievalEngine<FovIndex> engine(idx, config());
  const auto results = engine.search(query_at());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].rep.video_id, 2u);
  EXPECT_EQ(results[1].rep.video_id, 3u);
  EXPECT_EQ(results[2].rep.video_id, 1u);
  EXPECT_LE(results[0].distance_m, results[1].distance_m);
  EXPECT_LE(results[1].distance_m, results[2].distance_m);
  // Relevance decreases with distance.
  EXPECT_GT(results[0].relevance, results[2].relevance);
}

TEST(RetrievalEngineTest, TopNTruncates) {
  FovIndex idx;
  for (std::uint64_t i = 0; i < 50; ++i) {
    idx.insert(rep_at(i, 0, -10.0 - static_cast<double>(i), 0.0));
  }
  RetrievalConfig cfg = config();
  cfg.top_n = 5;
  RetrievalEngine<FovIndex> engine(idx, cfg);
  SearchTrace trace;
  const auto results = engine.search(query_at(), &trace);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(trace.after_filter, 50u);
  EXPECT_EQ(trace.returned, 5u);
  // The five closest.
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(results[i].rep.video_id, i);
  }
}

TEST(RetrievalEngineTest, TopNZeroReturnsNothingButCountsTheFunnel) {
  // Two cameras see the centre and one 40 m south faces away: with
  // top_n = 0 nothing is returned, yet the funnel still counts all three
  // candidates and both survivors — on the paper's R-tree and on the
  // server's tiered index, before and after the memtable seals.
  const std::vector<RepresentativeFov> reps{
      rep_at(1, 0, -20, 0.0), rep_at(2, 0, -50, 0.0),
      rep_at(3, 0, -40, 180.0)};
  FovIndex plain;
  TieredFovIndex tiered;
  for (const auto& r : reps) {
    plain.insert(r);
    tiered.insert(r);
  }
  RetrievalConfig cfg = config();
  cfg.top_n = 0;
  const auto check = [&](const auto& idx, const char* name) {
    SCOPED_TRACE(name);
    RetrievalEngine<std::decay_t<decltype(idx)>> engine(idx, cfg);
    SearchTrace trace;
    EXPECT_TRUE(engine.search(query_at(), &trace).empty());
    EXPECT_EQ(trace.candidates, 3u);
    EXPECT_EQ(trace.after_filter, 2u);
    EXPECT_EQ(trace.returned, 0u);
  };
  check(plain, "FovIndex");
  check(tiered, "TieredFovIndex, memtable");
  ASSERT_TRUE(tiered.seal_now());
  check(tiered, "TieredFovIndex, sealed run");
}

TEST(RetrievalEngineTest, OrientationSlackAdmitsBorderline) {
  FovIndex idx;
  // Camera 50 m south, facing 35° — the centre sits 35° off-axis, just
  // outside a 30° half-angle.
  idx.insert(rep_at(1, 0, -50, 35.0));
  RetrievalConfig strict = config();
  RetrievalEngine<FovIndex> engine_strict(idx, strict);
  EXPECT_TRUE(engine_strict.search(query_at()).empty());

  RetrievalConfig slack = config();
  slack.orientation_slack_deg = 10.0;
  RetrievalEngine<FovIndex> engine_slack(idx, slack);
  EXPECT_EQ(engine_slack.search(query_at()).size(), 1u);
}

TEST(RetrievalEngineTest, FilterDisabledKeepsEverythingInRange) {
  FovIndex idx;
  idx.insert(rep_at(1, 0, -50, 180.0));  // facing away
  RetrievalConfig cfg = config();
  cfg.orientation_filter = false;
  RetrievalEngine<FovIndex> engine(idx, cfg);
  EXPECT_EQ(engine.search(query_at()).size(), 1u);
}

TEST(RetrievalEngineTest, RTreeAndLinearBackendsAgree) {
  svg::sim::CityModel city;
  city.center = kCenter;
  svg::util::Xoshiro256 rng(77);
  const auto reps = svg::sim::random_representative_fovs(
      2000, city, 0, 3'600'000, rng);
  FovIndex tree;
  LinearIndex linear;
  for (const auto& r : reps) {
    tree.insert(r);
    linear.insert(r);
  }
  RetrievalConfig cfg = config();
  cfg.top_n = 20;
  RetrievalEngine<FovIndex> tree_engine(tree, cfg);
  RetrievalEngine<LinearIndex> linear_engine(linear, cfg);
  for (int i = 0; i < 25; ++i) {
    Query q;
    q.center = city.random_point(rng);
    q.radius_m = 50.0;
    q.t_start = static_cast<svg::core::TimestampMs>(rng.bounded(3'000'000));
    q.t_end = q.t_start + 600'000;
    const auto a = tree_engine.search(q);
    const auto b = linear_engine.search(q);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].rep.video_id, b[j].rep.video_id) << i << ":" << j;
      ASSERT_DOUBLE_EQ(a[j].distance_m, b[j].distance_m);
    }
  }
}

TEST(RetrievalEngineTest, EmptyIndexReturnsNothing) {
  FovIndex idx;
  RetrievalEngine<FovIndex> engine(idx, config());
  SearchTrace trace;
  EXPECT_TRUE(engine.search(query_at(), &trace).empty());
  EXPECT_EQ(trace.candidates, 0u);
}

}  // namespace
