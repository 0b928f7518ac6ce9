// Scatter-gather correctness: the cluster's merged top-N must be
// byte-identical (through the client results codec) to a single-node
// server holding the same corpus, a query missing the deployment fans out
// to zero nodes, and the shared k-way merge helper behaves exactly as the
// single-list ranking.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "geo/geodesy.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "obs/families.hpp"
#include "retrieval/top_n.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::cluster;

std::vector<net::UploadMessage> make_uploads(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sim::CityModel city;
  const std::size_t n_uploads = 4 + rng.bounded(4);
  std::vector<net::UploadMessage> uploads;
  for (std::size_t u = 0; u < n_uploads; ++u) {
    net::UploadMessage msg;
    msg.video_id = u + 1;
    msg.segments = sim::random_representative_fovs(
        8 + rng.bounded(8), city, 1'400'000'000'000, 3'600'000, rng);
    for (std::size_t i = 0; i < msg.segments.size(); ++i) {
      msg.segments[i].video_id = msg.video_id;
      msg.segments[i].segment_id = static_cast<std::uint32_t>(i);
    }
    uploads.push_back(std::move(msg));
  }
  return uploads;
}

/// The upload wire codec stores positions as 1e-7 degree fixed point, so
/// cluster nodes index quantized FoVs. The single-node oracle must see
/// the same quantization or its ranking doubles differ in the last few
/// millimetres — roundtrip its uploads through the codec.
net::UploadMessage wire_roundtrip(const net::UploadMessage& m) {
  const auto back = net::decode_upload(net::encode_upload(m));
  EXPECT_TRUE(back.has_value());
  return *back;
}

/// The exact conversion handle_query applies before encoding, so two
/// RankedResult lists compare through the client codec's bytes.
std::vector<std::uint8_t> results_bytes(
    const std::vector<retrieval::RankedResult>& hits) {
  net::ResultsMessage out;
  for (const auto& h : hits) {
    net::ResultEntry e;
    e.video_id = h.rep.video_id;
    e.segment_id = h.rep.segment_id;
    e.t_start = h.rep.t_start;
    e.t_end = h.rep.t_end;
    e.distance_m = static_cast<float>(h.distance_m);
    out.entries.push_back(e);
  }
  return net::encode_results(out);
}

retrieval::Query random_query(util::Xoshiro256& rng) {
  const geo::Box2 b = sim::CityModel{}.bounds_deg();
  retrieval::Query q;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 3'600'000;
  q.center = {b.min[1] + rng.uniform() * (b.max[1] - b.min[1]),
              b.min[0] + rng.uniform() * (b.max[0] - b.min[0])};
  q.radius_m = 30.0 + rng.uniform() * 90.0;
  return q;
}

TEST(ClusterQueryTest, ClusterMatchesSingleNodeByteIdenticalAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto uploads = make_uploads(seed);

    net::CloudServer single;
    for (const auto& m : uploads) ASSERT_TRUE(single.ingest(wire_roundtrip(m)));

    ClusterConfig cfg;  // in-memory: query path only
    cfg.nodes = 4;
    cfg.partition.bounds = sim::CityModel{}.bounds_deg();
    Cluster cluster(cfg);
    net::UploadQueue queue({}, seed * 13 + 1);
    for (const auto& m : uploads) queue.enqueue(m);
    ASSERT_TRUE(queue.drain(cluster.router().upload_channel()));

    util::Xoshiro256 rng(seed ^ 0xABCDEF);
    for (int i = 0; i < 25; ++i) {
      const retrieval::Query q = random_query(rng);
      bool complete = false;
      const auto got = cluster.router().search(q, 10, &complete);
      ASSERT_TRUE(complete);
      const auto want = single.search_n(q, 10);
      ASSERT_EQ(results_bytes(got), results_bytes(want))
          << "seed " << seed << " query " << i;
      // Beyond the quantizing codec: ranking doubles must be bit-equal,
      // or cross-node ties would break differently than single-node ones.
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].distance_m, want[r].distance_m);
        ASSERT_EQ(got[r].relevance, want[r].relevance);
      }
    }
  }
}

TEST(ClusterQueryTest, QueryOutsideDeploymentContactsNoNode) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.partition.bounds = sim::CityModel{}.bounds_deg();
  Cluster cluster(cfg);
  const auto uploads = make_uploads(3);
  net::UploadQueue queue({}, 9);
  for (const auto& m : uploads) queue.enqueue(m);
  ASSERT_TRUE(queue.drain(cluster.router().upload_channel()));

  auto& m = obs::cluster_metrics();
  const std::uint64_t fanned_before = m.fanout_nodes.value();
  const std::uint64_t queries_before = m.queries.value();

  retrieval::Query q;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 3'600'000;
  q.center = {0.0, 0.0};  // Gulf of Guinea, far from the deployment
  q.radius_m = 100.0;
  bool complete = false;
  EXPECT_TRUE(cluster.router().search(q, 10, &complete).empty());
  EXPECT_TRUE(complete);  // vacuously: no node needed answering
  EXPECT_EQ(m.queries.value(), queries_before + 1);
  EXPECT_EQ(m.fanout_nodes.value(), fanned_before);  // zero fan-out
}

// A point query (r̂ = 0) must reach a camera that sees the spot from the
// neighbouring partition: the router prunes with the engines' search box,
// which reaches R (plus a rounding margin) around the spot at every r̂.
TEST(ClusterQueryTest, PointQueryReachesCameraInNeighbouringPartition) {
  ClusterConfig cfg;  // in-memory: query path only
  cfg.nodes = 4;
  cfg.partition.bounds = sim::CityModel{}.bounds_deg();
  Cluster cluster(cfg);
  const GeoPartitioner& parts = cluster.router().partitioner();
  const geo::Box2 b = parts.config().bounds;
  const std::size_t side = parts.config().cells_per_side;
  const double cell_w = (b.max[0] - b.min[0]) / static_cast<double>(side);
  const double cell_h = (b.max[1] - b.min[1]) / static_cast<double>(side);

  // The spot stands 10 m north of a cell edge; the camera 30 m south of
  // it, facing north, across the edge in another partition.
  std::optional<geo::LatLng> spot;
  geo::LatLng camera;
  for (std::size_t row = 1; row < side && !spot; ++row) {
    for (std::size_t col = 0; col < side && !spot; ++col) {
      const geo::LatLng edge{b.min[1] + static_cast<double>(row) * cell_h,
                             b.min[0] + (static_cast<double>(col) + 0.5) *
                                            cell_w};
      const geo::LatLng s = geo::offset_m(edge, 0.0, 10.0);
      const geo::LatLng c = geo::offset_m(s, 0.0, -30.0);
      if (parts.partition_of(s.lng, s.lat) !=
          parts.partition_of(c.lng, c.lat)) {
        spot = s;
        camera = c;
      }
    }
  }
  ASSERT_TRUE(spot.has_value());

  net::UploadMessage msg;
  msg.video_id = 77;
  core::RepresentativeFov rep;
  rep.video_id = msg.video_id;
  rep.fov.p = camera;
  rep.fov.theta_deg = 0.0;
  rep.t_start = 1'400'000'000'000;
  rep.t_end = rep.t_start + 10'000;
  msg.segments.push_back(rep);
  net::UploadQueue queue({}, 5);
  queue.enqueue(msg);
  ASSERT_TRUE(queue.drain(cluster.router().upload_channel()));

  retrieval::Query q;
  q.center = *spot;
  q.radius_m = 0.0;
  q.t_start = rep.t_start;
  q.t_end = rep.t_end;
  bool complete = false;
  const auto hits = cluster.router().search(q, 10, &complete);
  EXPECT_TRUE(complete);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].rep.video_id, msg.video_id);
}

// The router prunes with the engines' box, which reaches R around p̂
// whatever r̂ is: a query centred in a cell wider than 2R contacts only
// that cell's node even at r̂ = 2 km, and still finds a camera 90 m away
// that faces the centre.
TEST(ClusterQueryTest, WideQueryContactsOnlyTheNodeWithinReach) {
  ClusterConfig cfg;  // in-memory: query path only
  cfg.nodes = 4;
  cfg.partition.bounds = sim::CityModel{}.bounds_deg();
  Cluster cluster(cfg);
  const GeoPartitioner& parts = cluster.router().partitioner();
  const geo::Box2 b = parts.config().bounds;
  const std::size_t side = parts.config().cells_per_side;
  const double cell_w = (b.max[0] - b.min[0]) / static_cast<double>(side);
  const double cell_h = (b.max[1] - b.min[1]) / static_cast<double>(side);
  const geo::LatLng spot{b.min[1] + 7.5 * cell_h, b.min[0] + 7.5 * cell_w};
  const geo::LatLng cell_corner{b.min[1] + 7.0 * cell_h,
                                b.min[0] + 7.0 * cell_w};
  const geo::Vec2 half_cell = geo::displacement_m(cell_corner, spot);
  ASSERT_GT(std::min(half_cell.x, half_cell.y),
            cfg.retrieval.camera.radius_m + 1.0);

  net::UploadMessage msg;
  msg.video_id = 78;
  core::RepresentativeFov rep;
  rep.video_id = msg.video_id;
  rep.fov.p = geo::offset_m(spot, 0.0, -90.0);
  rep.fov.theta_deg = 0.0;  // north, toward the spot
  rep.t_start = 1'400'000'000'000;
  rep.t_end = rep.t_start + 10'000;
  msg.segments.push_back(rep);
  net::UploadQueue queue({}, 5);
  queue.enqueue(msg);
  ASSERT_TRUE(queue.drain(cluster.router().upload_channel()));

  auto& m = obs::cluster_metrics();
  const std::uint64_t fanned_before = m.fanout_nodes.value();
  retrieval::Query q;
  q.center = spot;
  q.radius_m = 2000.0;
  q.t_start = rep.t_start;
  q.t_end = rep.t_end;
  bool complete = false;
  const auto hits = cluster.router().search(q, 10, &complete);
  EXPECT_TRUE(complete);
  EXPECT_EQ(m.fanout_nodes.value(), fanned_before + 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].rep.video_id, msg.video_id);
  EXPECT_NEAR(hits[0].distance_m, 90.0, 0.05);
}

TEST(ClusterQueryTest, MergeKeepsGlobalOrderAcrossLists) {
  auto mk = [](double d, std::uint64_t vid, std::uint32_t sid) {
    retrieval::RankedResult r;
    r.distance_m = d;
    r.rep.video_id = vid;
    r.rep.segment_id = sid;
    return r;
  };
  std::vector<std::vector<retrieval::RankedResult>> lists = {
      {mk(1.0, 1, 0), mk(4.0, 1, 1), mk(9.0, 1, 2)},
      {mk(2.0, 2, 0), mk(3.0, 2, 1)},
      {},
      {mk(0.5, 3, 0)},
  };
  const auto merged = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 4,
      retrieval::RankedBefore{});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].rep.video_id, 3u);
  EXPECT_EQ(merged[1].rep.video_id, 1u);
  EXPECT_EQ(merged[2].rep.video_id, 2u);
  EXPECT_DOUBLE_EQ(merged[3].distance_m, 3.0);
}

TEST(ClusterQueryTest, MergeDeduplicatesFollowerCopies) {
  auto mk = [](double d, std::uint64_t vid, std::uint32_t sid) {
    retrieval::RankedResult r;
    r.distance_m = d;
    r.rep.video_id = vid;
    r.rep.segment_id = sid;
    return r;
  };
  // List 1 is a follower holding replicated copies of list 0's rows.
  std::vector<std::vector<retrieval::RankedResult>> lists = {
      {mk(1.0, 1, 0), mk(2.0, 1, 1)},
      {mk(1.0, 1, 0), mk(2.0, 1, 1), mk(3.0, 2, 0)},
  };
  const auto same = [](const retrieval::RankedResult& a,
                       const retrieval::RankedResult& b) {
    return a.rep.video_id == b.rep.video_id &&
           a.rep.segment_id == b.rep.segment_id;
  };
  const auto merged = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 10,
      retrieval::RankedBefore{}, same);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].rep.video_id, 1u);
  EXPECT_EQ(merged[1].rep.segment_id, 1u);
  EXPECT_EQ(merged[2].rep.video_id, 2u);
}

TEST(ClusterQueryTest, MergeTiesResolveToLowerListIndex) {
  auto mk = [](double d, std::uint64_t vid) {
    retrieval::RankedResult r;
    r.distance_m = d;
    r.rep.video_id = vid;
    return r;
  };
  // Exact tie under RankedBefore (same distance, video, segment) but
  // different relevance payloads: the lower list must win, always.
  auto a = mk(5.0, 7);
  a.relevance = 0.25;
  auto b = mk(5.0, 7);
  b.relevance = 0.75;
  std::vector<std::vector<retrieval::RankedResult>> lists = {{a}, {b}};
  const auto merged = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 2,
      retrieval::RankedBefore{});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].relevance, 0.25);
  EXPECT_DOUBLE_EQ(merged[1].relevance, 0.75);
}

TEST(ClusterQueryTest, MergeRespectsTheKCut) {
  auto mk = [](double d) {
    retrieval::RankedResult r;
    r.distance_m = d;
    return r;
  };
  std::vector<std::vector<retrieval::RankedResult>> lists = {
      {mk(1), mk(3), mk(5)}, {mk(2), mk(4), mk(6)}};
  const auto merged = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 3,
      retrieval::RankedBefore{});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged[2].distance_m, 3.0);
  const auto all = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 100,
      retrieval::RankedBefore{});
  EXPECT_EQ(all.size(), 6u);
}

}  // namespace
