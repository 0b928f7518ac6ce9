// The retrieval engine is generic over the index backend: every backend
// exposing query(GeoTimeRange, visitor) must produce identical ranked
// results. This pins the contract the bench comparisons rely on, and
// checks the server's tiered index against the paper's R-tree as oracle.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "index/fov_index.hpp"
#include "index/grid_index.hpp"
#include "index/kdtree_index.hpp"
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
      grid_.insert(r);
    }
    kd_ = std::make_unique<index::KdTreeIndex>(reps_);

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
  index::GridIndex grid_{sim::CityModel{.extent_m = 2000.0}.bounds_deg(),
                         48};
  std::unique_ptr<index::KdTreeIndex> kd_;
  retrieval::RetrievalConfig cfg_;
};

TEST_F(EngineBackendsTest, AllBackendsReturnIdenticalRankings) {
  retrieval::RetrievalEngine<index::FovIndex> e_rtree(rtree_, cfg_);
  retrieval::RetrievalEngine<index::LinearIndex> e_linear(linear_, cfg_);
  retrieval::RetrievalEngine<index::GridIndex> e_grid(grid_, cfg_);
  retrieval::RetrievalEngine<index::KdTreeIndex> e_kd(*kd_, cfg_);

  util::Xoshiro256 rng(9);
  for (int i = 0; i < 40; ++i) {
    const auto q = random_query(rng);
    const auto a = keys(e_rtree.search(q));
    ASSERT_EQ(a, keys(e_linear.search(q))) << "linear, query " << i;
    ASSERT_EQ(a, keys(e_grid.search(q))) << "grid, query " << i;
    ASSERT_EQ(a, keys(e_kd.search(q))) << "kd, query " << i;
  }
}

TEST_F(EngineBackendsTest, TracesAgreeOnCandidateCounts) {
  retrieval::RetrievalEngine<index::FovIndex> e_rtree(rtree_, cfg_);
  retrieval::RetrievalEngine<index::GridIndex> e_grid(grid_, cfg_);
  util::Xoshiro256 rng(10);
  for (int i = 0; i < 20; ++i) {
    const auto q = random_query(rng);
    retrieval::SearchTrace ta, tb;
    (void)e_rtree.search(q, &ta);
    (void)e_grid.search(q, &tb);
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
        ASSERT_EQ(got.size(), want.size()) << at_query;
        for (std::size_t j = 0; j < want.size(); ++j) {
          const auto& a = got[j];
          const auto& b = want[j];
          const std::string at = at_query + ", rank " + std::to_string(j);
          ASSERT_EQ(a.rep.video_id, b.rep.video_id) << at;
          ASSERT_EQ(a.rep.segment_id, b.rep.segment_id) << at;
          ASSERT_EQ(a.rep.t_start, b.rep.t_start) << at;
          ASSERT_EQ(a.rep.t_end, b.rep.t_end) << at;
          ASSERT_EQ(a.rep.fov, b.rep.fov) << at;
          ASSERT_EQ(a.distance_m, b.distance_m) << at;
          ASSERT_EQ(a.relevance, b.relevance) << at;
        }
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

}  // namespace
