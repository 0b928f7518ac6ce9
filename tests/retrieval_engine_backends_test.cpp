// The retrieval engine is generic over the index: every kept index
// exposing query(GeoTimeRange, visitor) must produce identical ranked
// results. This pins the contract the bench comparisons rely on, and
// checks the server's tiered index against the paper's R-tree as oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "geo/geodesy.hpp"
#include "index/fov_index.hpp"
#include "index/tiered_fov_index.hpp"
#include "net/wire.hpp"
#include "retrieval/engine.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;

class EngineBackendsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    city_.extent_m = 2000.0;
    util::Xoshiro256 rng(123);
    reps_ = sim::random_representative_fovs(4000, city_, 0, 7'200'000, rng);
    for (const auto& r : reps_) {
      rtree_.insert(r);
      linear_.insert(r);
    }

    cfg_.camera = {30.0, 100.0};
    cfg_.orientation_slack_deg = 5.0;
    cfg_.top_n = 15;
  }

  retrieval::Query random_query(util::Xoshiro256& rng) const {
    retrieval::Query q;
    q.center = city_.random_point(rng);
    q.radius_m = rng.uniform(20.0, 120.0);
    q.t_start = static_cast<core::TimestampMs>(rng.bounded(6'000'000));
    q.t_end = q.t_start + 1'800'000;
    return q;
  }

  static std::vector<std::pair<std::uint64_t, std::uint32_t>> keys(
      const std::vector<retrieval::RankedResult>& rs) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    for (const auto& r : rs) {
      out.emplace_back(r.rep.video_id, r.rep.segment_id);
    }
    return out;
  }

  sim::CityModel city_;
  std::vector<core::RepresentativeFov> reps_;
  index::FovIndex rtree_;
  index::LinearIndex linear_;
  retrieval::RetrievalConfig cfg_;
};

TEST_F(EngineBackendsTest, AllBackendsReturnIdenticalRankings) {
  retrieval::RetrievalEngine<index::FovIndex> e_rtree(rtree_, cfg_);
  retrieval::RetrievalEngine<index::LinearIndex> e_linear(linear_, cfg_);

  util::Xoshiro256 rng(9);
  for (int i = 0; i < 40; ++i) {
    const auto q = random_query(rng);
    const auto a = keys(e_rtree.search(q));
    ASSERT_EQ(a, keys(e_linear.search(q))) << "linear, query " << i;
  }
}

TEST_F(EngineBackendsTest, TracesAgreeOnCandidateCounts) {
  retrieval::RetrievalEngine<index::FovIndex> e_rtree(rtree_, cfg_);
  retrieval::RetrievalEngine<index::LinearIndex> e_linear(linear_, cfg_);
  util::Xoshiro256 rng(10);
  for (int i = 0; i < 20; ++i) {
    const auto q = random_query(rng);
    retrieval::SearchTrace ta, tb;
    (void)e_rtree.search(q, &ta);
    (void)e_linear.search(q, &tb);
    ASSERT_EQ(ta.candidates, tb.candidates) << i;
    ASSERT_EQ(ta.after_filter, tb.after_filter) << i;
  }
}

bool returns(const std::vector<retrieval::RankedResult>& rs,
             std::uint64_t video_id) {
  for (const auto& r : rs) {
    if (r.rep.video_id == video_id) return true;
  }
  return false;
}

/// Bit-for-bit equality of two ranked lists: ids, interval, fov, distance
/// and relevance.
void expect_same_ranking(const std::vector<retrieval::RankedResult>& got,
                         const std::vector<retrieval::RankedResult>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t j = 0; j < want.size(); ++j) {
    const auto& a = got[j];
    const auto& b = want[j];
    const std::string at = where + ", rank " + std::to_string(j);
    ASSERT_EQ(a.rep.video_id, b.rep.video_id) << at;
    ASSERT_EQ(a.rep.segment_id, b.rep.segment_id) << at;
    ASSERT_EQ(a.rep.t_start, b.rep.t_start) << at;
    ASSERT_EQ(a.rep.t_end, b.rep.t_end) << at;
    ASSERT_EQ(a.rep.fov, b.rep.fov) << at;
    ASSERT_EQ(a.distance_m, b.distance_m) << at;
    ASSERT_EQ(a.relevance, b.relevance) << at;
  }
}

// The tiered index visits candidates memtable first, then run by run in
// STR order, and runs the orientation test on its columns; the engine's
// deterministic (distance, video, segment) ranking must erase the order
// difference, and the shared geo::sight must give the same bits on both
// layouts. Checked bit for bit — funnel counts, ids, interval, fov,
// distance and relevance — against the FovIndex oracle in three shapes:
// every row still in the memtable, rows spread over many sealed runs, and
// one fully compacted run. Besides random queries, one spot (alone in its
// time window) holds a camera for each edge of the test, queried under
// the default cone, under α + slack ≥ 180° and with the filter off.
TEST_F(EngineBackendsTest, TieredIndexMatchesFovIndexOracle) {
  const geo::LatLng spot = city_.center;
  const double R = cfg_.camera.radius_m;
  constexpr core::TimestampMs kEdgeT0 = 9'000'000;
  const auto camera = [&](std::uint64_t video_id, double east, double north,
                          double theta) {
    core::RepresentativeFov r;
    r.video_id = video_id;
    r.fov.p = geo::offset_m(spot, east, north);
    r.fov.theta_deg = theta;
    r.t_start = kEdgeT0;
    r.t_end = kEdgeT0 + 10'000;
    return r;
  };
  constexpr std::uint64_t kOnSpot = 900'001;  // d = 0, any heading
  constexpr std::uint64_t kAtR = 900'002;     // d = R, facing the spot
  constexpr std::uint64_t kAwayS = 900'003;   // facing exactly away
  constexpr std::uint64_t kAwayW = 900'004;
  std::vector<core::RepresentativeFov> corpus = reps_;
  corpus.push_back(camera(kOnSpot, 0.0, 0.0, 77.0));
  corpus.push_back(camera(kAtR, 0.0, -R, 0.0));
  corpus.push_back(camera(kAwayS, 0.0, -40.0, 180.0));
  corpus.push_back(camera(kAwayW, -40.0, 0.0, 270.0));
  index::FovIndex oracle_index;
  for (const auto& r : corpus) oracle_index.insert(r);

  std::vector<retrieval::Query> queries;
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 40; ++i) queries.push_back(random_query(rng));
  for (const double radius : {0.0, 10.0}) {
    retrieval::Query q;
    q.center = spot;
    q.radius_m = radius;
    q.t_start = kEdgeT0;
    q.t_end = kEdgeT0 + 10'000;
    queries.push_back(q);
  }
  const std::size_t first_spot_query = 40;

  retrieval::RetrievalConfig wide = cfg_;
  wide.orientation_slack_deg = 160.0;  // α + slack = 190°: every heading
  retrieval::RetrievalConfig unfiltered = cfg_;
  unfiltered.orientation_filter = false;
  const std::pair<std::string, retrieval::RetrievalConfig> configs[] = {
      {"default cone", cfg_}, {"slack 160", wide}, {"filter off", unfiltered}};

  const auto expect_oracle_rankings = [&](const index::TieredFovIndex& tiered,
                                          const std::string& shape) {
    for (const auto& [name, cfg] : configs) {
      retrieval::RetrievalEngine<index::FovIndex> oracle(oracle_index, cfg);
      retrieval::RetrievalEngine<index::TieredFovIndex> engine(tiered, cfg);
      std::size_t hits = 0;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::string at_query =
            shape + ", " + name + ", query " + std::to_string(i);
        retrieval::SearchTrace want_trace;
        retrieval::SearchTrace got_trace;
        const auto want = oracle.search(queries[i], &want_trace);
        const auto got = engine.search(queries[i], &got_trace);
        ASSERT_EQ(got_trace.candidates, want_trace.candidates) << at_query;
        ASSERT_EQ(got_trace.after_filter, want_trace.after_filter)
            << at_query;
        ASSERT_NO_FATAL_FAILURE(expect_same_ranking(got, want, at_query));
        hits += want.size();

        if (i < first_spot_query) continue;
        // The spot's edge cameras are the only candidates there.
        ASSERT_EQ(got_trace.candidates, 4u) << at_query;
        EXPECT_TRUE(returns(got, kOnSpot)) << at_query;
        for (const auto& r : got) {
          if (r.rep.video_id == kAtR) {
            EXPECT_NEAR(r.distance_m, R, 1e-6) << at_query;
          }
        }
        // A cone of 180° or more admits a camera facing straight away,
        // which cos(190°) > −1 alone would reject.
        const bool cone_admits_away =
            !cfg.orientation_filter ||
            cfg.camera.half_angle_deg + cfg.orientation_slack_deg >= 180.0;
        EXPECT_EQ(returns(got, kAwayS), cone_admits_away) << at_query;
        EXPECT_EQ(returns(got, kAwayW), cone_admits_away) << at_query;
        if (!cfg.orientation_filter) {
          EXPECT_EQ(got_trace.after_filter, 4u) << at_query;
        }
      }
      EXPECT_GT(hits, 0u) << shape << ", " << name
                          << ": every query came back empty";
    }
  };

  index::TieredFovIndex memtable_only({.memtable_capacity = 2 * corpus.size()});
  memtable_only.insert_batch(corpus);
  ASSERT_TRUE(memtable_only.run_stats().runs.empty());
  expect_oracle_rankings(memtable_only, "memtable only");

  index::TieredFovIndex tiered({.memtable_capacity = 256});
  tiered.insert_batch(corpus);
  ASSERT_GE(tiered.run_stats().runs.size(), 8u);
  expect_oracle_rankings(tiered, "sealed runs");

  ASSERT_TRUE(tiered.seal_now());
  while (tiered.compact_now(/*full=*/true) > 0) {
  }
  const auto compacted = tiered.run_stats();
  ASSERT_EQ(compacted.runs.size(), 1u);
  ASSERT_EQ(compacted.memtable_rows, 0u);
  expect_oracle_rankings(tiered, "compacted");
}

// A point query (r̂ = 0) asks which cameras see one spot. Its search box
// is R wide, so a camera standing 30 m off the spot and facing it is
// found — also after the wire rounds a 0.4 m radius down to 0.
TEST_F(EngineBackendsTest, PointQueryFindsCameraFacingThePoint) {
  const geo::LatLng spot = city_.center;
  core::RepresentativeFov cam;
  cam.video_id = 900'100;
  cam.fov.p = geo::offset_m(spot, 0.0, -30.0);
  cam.fov.theta_deg = 0.0;  // north, toward the spot
  cam.t_start = 9'000'000;
  cam.t_end = 9'010'000;
  index::FovIndex rtree;
  rtree.insert(cam);
  index::TieredFovIndex tiered;
  tiered.insert(cam);

  net::QueryMessage msg;
  msg.center = spot;
  msg.t_start = cam.t_start;
  msg.t_end = cam.t_end;
  msg.radius_m = 0.4;
  const auto wire = net::decode_query(net::encode_query(msg));
  ASSERT_TRUE(wire.has_value());
  ASSERT_EQ(wire->radius_m, 0.0);

  retrieval::Query exact;
  exact.center = spot;
  exact.radius_m = 0.0;
  exact.t_start = cam.t_start;
  exact.t_end = cam.t_end;
  retrieval::Query decoded = exact;
  decoded.center = wire->center;
  decoded.radius_m = wire->radius_m;

  retrieval::RetrievalEngine<index::FovIndex> e_rtree(rtree, cfg_);
  retrieval::RetrievalEngine<index::TieredFovIndex> e_tiered(tiered, cfg_);
  for (const auto& q : {exact, decoded}) {
    for (const auto& hits : {e_rtree.search(q), e_tiered.search(q)}) {
      ASSERT_EQ(hits.size(), 1u);
      EXPECT_EQ(hits[0].rep.video_id, cam.video_id);
      EXPECT_NEAR(hits[0].distance_m, 30.0, 0.05);
    }
  }
}

/// The box of half-width r̂ + R (r̂ < 0 counts as 0) — the widest any
/// search has scanned — built here, outside the code under test.
index::GeoTimeRange wide_box(const retrieval::Query& q, double radius_m) {
  const double half_m = std::max(0.0, q.radius_m) + radius_m;
  const double dlat = half_m / geo::metres_per_degree_lat();
  const double dlng = half_m / geo::metres_per_degree_lng(q.center.lat);
  return {q.center.lng - dlng, q.center.lng + dlng, q.center.lat - dlat,
          q.center.lat + dlat, q.t_start, q.t_end};
}

/// What a search must return when nothing is cut: walk the r̂ + R box with
/// the config's own SightTest, keep every camera it admits, and rank them
/// by the engine's key (RankedBefore) with the engine's relevance.
template <typename Index>
std::vector<retrieval::RankedResult> wide_box_reference(
    const Index& idx, const retrieval::RetrievalConfig& cfg,
    const retrieval::Query& q) {
  const geo::SightTest sight = cfg.sight_test(q.center);
  const double scale = std::max(1.0, q.radius_m);
  std::vector<retrieval::RankedResult> out;
  const auto keep = [&](const core::RepresentativeFov& rep, double d) {
    out.push_back({rep, d, 1.0 / (1.0 + d / scale)});
  };
  const index::GeoTimeRange box = wide_box(q, cfg.camera.radius_m);
  if constexpr (std::is_same_v<Index, index::TieredFovIndex>) {
    (void)idx.query(box, sight, keep);
  } else {
    idx.query(box, [&](const core::RepresentativeFov& rep) {
      const geo::Sight seen = sight.of(rep.fov.p, rep.fov.theta_deg);
      if (seen.seen) keep(rep, seen.distance_m);
    });
  }
  std::sort(out.begin(), out.end(), retrieval::RankedBefore{});
  return out;
}

// With the orientation filter on, the engine searches only R (plus a
// rounding margin) around p̂, however large r̂ is. No camera farther than R
// sees p̂, so with top_n >= the corpus its answer must equal, bit for bit,
// the wide-box reference's — on the FovIndex and on the tiered index in
// all three shapes, under the default cone, slack 160° and the filter off
// (whose box stays r̂ + R). Edge rows put cameras at R due east, west,
// north and south of spots at latitudes 39.9° and 60°, and just past R.
TEST_F(EngineBackendsTest, SmallBoxMatchesWideBoxReference) {
  const double R = cfg_.camera.radius_m;
  constexpr core::TimestampMs kEdgeT0 = 9'000'000;
  const geo::LatLng spots[] = {{39.9, 116.4}, {60.0, 10.75}};
  std::vector<core::RepresentativeFov> corpus = reps_;
  std::vector<std::uint64_t> at_r;    // ids of the cameras at R
  std::vector<std::uint64_t> past_r;  // ids of the cameras just past R
  std::uint64_t next_id = 910'000;
  for (const geo::LatLng& spot : spots) {
    // (east, north) unit offset and the heading that faces the spot.
    const struct {
      double east, north, facing;
    } sides[] = {{1, 0, 270}, {-1, 0, 90}, {0, 1, 180}, {0, -1, 0}};
    for (const auto& side : sides) {
      for (const double d : {R, R + 0.5, 0.5 * R}) {
        for (const double turn : {0.0, 180.0}) {
          core::RepresentativeFov r;
          r.video_id = next_id++;
          r.fov.p = geo::offset_m(spot, side.east * d, side.north * d);
          r.fov.theta_deg = std::fmod(side.facing + turn, 360.0);
          r.t_start = kEdgeT0;
          r.t_end = kEdgeT0 + 10'000;
          corpus.push_back(r);
          if (d == R) at_r.push_back(r.video_id);
          if (d > R) past_r.push_back(r.video_id);
        }
      }
    }
  }
  index::FovIndex rtree;
  for (const auto& r : corpus) rtree.insert(r);

  std::vector<retrieval::Query> queries;
  util::Xoshiro256 rng(12);
  for (int i = 0; i < 40; ++i) queries.push_back(random_query(rng));
  const std::size_t first_spot_query = queries.size();
  for (const geo::LatLng& spot : spots) {
    retrieval::Query q;
    q.center = spot;
    q.t_start = kEdgeT0;
    q.t_end = kEdgeT0 + 10'000;
    queries.push_back(q);
  }
  constexpr double kRadii[] = {0.0, 50.0, 5000.0};

  retrieval::RetrievalConfig cone = cfg_;
  cone.top_n = corpus.size();
  retrieval::RetrievalConfig wide = cone;
  wide.orientation_slack_deg = 160.0;
  retrieval::RetrievalConfig unfiltered = cone;
  unfiltered.orientation_filter = false;
  const std::pair<std::string, retrieval::RetrievalConfig> configs[] = {
      {"default cone", cone}, {"slack 160", wide}, {"filter off", unfiltered}};

  const auto expect_reference = [&](const auto& idx,
                                    const std::string& shape) {
    using Index = std::decay_t<decltype(idx)>;
    for (const auto& [name, cfg] : configs) {
      retrieval::RetrievalEngine<Index> engine(idx, cfg, nullptr);
      std::size_t spot_hits = 0;
      std::size_t at_r_hits = 0;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        std::size_t candidates_at_0 = 0;
        for (const double radius : kRadii) {
          retrieval::Query q = queries[i];
          q.radius_m = radius;
          const std::string at = shape + ", " + name + ", query " +
                                 std::to_string(i) + ", r̂ " +
                                 std::to_string(radius);
          retrieval::SearchTrace trace;
          const auto got = engine.search(q, &trace);
          const auto want = wide_box_reference(idx, cfg, q);
          ASSERT_NO_FATAL_FAILURE(expect_same_ranking(got, want, at));
          // r̂ scales relevance; it never changes what the filter-on box
          // scans.
          if (radius == 0.0) candidates_at_0 = trace.candidates;
          if (cfg.orientation_filter) {
            EXPECT_EQ(trace.candidates, candidates_at_0) << at;
            for (const std::uint64_t id : past_r) {
              EXPECT_FALSE(returns(got, id)) << at << ", camera " << id;
            }
          }
          if (i < first_spot_query) continue;
          spot_hits += got.size();
          for (const std::uint64_t id : at_r) at_r_hits += returns(got, id);
        }
      }
      EXPECT_GT(spot_hits, 0u) << shape << ", " << name
                               << ": the edge rows came back empty";
      EXPECT_GT(at_r_hits, 0u) << shape << ", " << name
                               << ": no camera at R came back";
    }
  };

  expect_reference(rtree, "FovIndex");
  index::TieredFovIndex memtable_only({.memtable_capacity = 2 * corpus.size()});
  memtable_only.insert_batch(corpus);
  ASSERT_TRUE(memtable_only.run_stats().runs.empty());
  expect_reference(memtable_only, "memtable only");

  index::TieredFovIndex tiered({.memtable_capacity = 256});
  tiered.insert_batch(corpus);
  ASSERT_GE(tiered.run_stats().runs.size(), 8u);
  expect_reference(tiered, "sealed runs");

  ASSERT_TRUE(tiered.seal_now());
  while (tiered.compact_now(/*full=*/true) > 0) {
  }
  ASSERT_EQ(tiered.run_stats().runs.size(), 1u);
  expect_reference(tiered, "compacted");
}

// A box of half-width exactly R can miss a camera the cone admits at
// d = R: the box is in degrees, the test in metres on p̂'s LocalFrame, and
// near lat 0° the conversion puts this camera one ulp outside. The box's
// rounding margin keeps it in at every r̂, a point query's included.
TEST_F(EngineBackendsTest, PointQueryFindsCameraTheConeAdmitsAtR) {
  const retrieval::RetrievalConfig cfg;
  const geo::LatLng spot{0.0011810257353630504, 19.406396909638602};
  core::RepresentativeFov cam;
  cam.video_id = 900'200;
  cam.fov.p = {0.00028271087377201718, 19.406396909638602};
  cam.fov.theta_deg = 0.0;  // north, toward the spot
  cam.t_start = 9'000'000;
  cam.t_end = 9'010'000;
  const geo::Sight seen =
      cfg.sight_test(spot).of(cam.fov.p, cam.fov.theta_deg);
  ASSERT_TRUE(seen.seen);
  ASSERT_NEAR(seen.distance_m, cfg.camera.radius_m, 1e-9);

  index::FovIndex rtree;
  rtree.insert(cam);
  index::TieredFovIndex tiered;
  tiered.insert(cam);
  retrieval::RetrievalEngine<index::FovIndex> e_rtree(rtree, cfg);
  retrieval::RetrievalEngine<index::TieredFovIndex> e_tiered(tiered, cfg);
  for (const double radius : {0.0, 10.0}) {
    retrieval::Query q;
    q.center = spot;
    q.radius_m = radius;
    q.t_start = cam.t_start;
    q.t_end = cam.t_end;
    for (const auto& hits : {e_rtree.search(q), e_tiered.search(q)}) {
      ASSERT_EQ(hits.size(), 1u) << "r̂ " << radius;
      EXPECT_EQ(hits[0].rep.video_id, cam.video_id);
      EXPECT_EQ(hits[0].distance_m, seen.distance_m);
    }
  }
}

}  // namespace
