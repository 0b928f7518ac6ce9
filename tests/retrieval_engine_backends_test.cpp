// The retrieval engine is generic over the index backend: every backend
// exposing query(GeoTimeRange, visitor) must produce identical ranked
// results. This pins the contract the bench comparisons rely on, and
// checks the server's tiered index against the paper's R-tree as oracle.

#include <gtest/gtest.h>

#include <string>

#include "index/fov_index.hpp"
#include "index/grid_index.hpp"
#include "index/kdtree_index.hpp"
#include "index/tiered_fov_index.hpp"
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

// The tiered index visits candidates memtable first, then run by run in
// STR order; the engine's deterministic (distance, video, segment) ranking
// must erase that difference. Checked bit for bit — ids, interval, fov,
// distance and relevance — against the FovIndex oracle in three shapes:
// every row still in the memtable, rows spread over many sealed runs, and
// one fully compacted run.
TEST_F(EngineBackendsTest, TieredIndexMatchesFovIndexOracle) {
  retrieval::RetrievalEngine<index::FovIndex> oracle(rtree_, cfg_);
  const auto expect_oracle_rankings = [&](const index::TieredFovIndex& tiered,
                                          const std::string& shape) {
    retrieval::RetrievalEngine<index::TieredFovIndex> engine(tiered, cfg_);
    util::Xoshiro256 rng(11);
    std::size_t hits = 0;
    for (int i = 0; i < 40; ++i) {
      const auto q = random_query(rng);
      const auto want = oracle.search(q);
      const auto got = engine.search(q);
      ASSERT_EQ(got.size(), want.size()) << shape << ", query " << i;
      for (std::size_t j = 0; j < want.size(); ++j) {
        const auto& a = got[j];
        const auto& b = want[j];
        const std::string at = shape + ", query " + std::to_string(i) +
                               ", rank " + std::to_string(j);
        ASSERT_EQ(a.rep.video_id, b.rep.video_id) << at;
        ASSERT_EQ(a.rep.segment_id, b.rep.segment_id) << at;
        ASSERT_EQ(a.rep.t_start, b.rep.t_start) << at;
        ASSERT_EQ(a.rep.t_end, b.rep.t_end) << at;
        ASSERT_EQ(a.rep.fov, b.rep.fov) << at;
        ASSERT_EQ(a.distance_m, b.distance_m) << at;
        ASSERT_EQ(a.relevance, b.relevance) << at;
      }
      hits += want.size();
    }
    EXPECT_GT(hits, 0u) << shape << ": every query came back empty";
  };

  index::TieredFovIndex memtable_only({.memtable_capacity = 2 * reps_.size()});
  memtable_only.insert_batch(reps_);
  ASSERT_TRUE(memtable_only.run_stats().runs.empty());
  expect_oracle_rankings(memtable_only, "memtable only");

  index::TieredFovIndex tiered({.memtable_capacity = 256});
  tiered.insert_batch(reps_);
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

}  // namespace
