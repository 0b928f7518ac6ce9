// End-to-end two-phase flow: record → descriptor upload → query → ranked
// results → clip fetch from the provider's device — the complete user
// story of the paper, including byte accounting at each phase.

#include <gtest/gtest.h>

#include <map>

#include "media/video_store.hpp"
#include "net/client.hpp"
#include "net/clip_fetch.hpp"
#include "net/server.hpp"
#include "sim/crowd.hpp"

namespace {

using namespace svg;
using geo::LatLng;

const LatLng kCenter{39.9042, 116.4074};
const core::CameraIntrinsics kCam{30.0, 100.0};

TEST(TwoPhaseIntegrationTest, QueryThenFetchDeliversTheRightClip) {
  const core::SimilarityModel model(kCam);

  // Provider: static bystander filming the spot for 60 s.
  sim::RotationTrajectory traj(geo::offset_m(kCenter, 0, -40), 0.0, 0.0,
                               60.0);
  sim::SensorSampler sampler(sim::SensorNoiseConfig::ideal(),
                             {30.0, 1'000'000});
  util::Xoshiro256 rng(1);
  const auto records = sampler.sample(traj, rng);

  // Phase 1: descriptors up.
  retrieval::RetrievalConfig rcfg;
  rcfg.camera = kCam;
  rcfg.orientation_slack_deg = 5.0;
  rcfg.top_n = 5;
  net::CloudServer server({}, rcfg);
  net::MobileClient client(77, model, {0.5});
  net::Link link;
  const auto upload =
      client.upload(net::capture_session(client, records), link);
  ASSERT_TRUE(server.handle_upload(upload));
  const auto phase1_bytes = link.stats().bytes_up;

  // The provider's device keeps the actual video.
  media::VideoStore store;
  store.add(media::RecordedVideo(77, records.front().t, records.back().t));
  net::FetchCoordinator coordinator;
  coordinator.register_provider(77, &store, &link);

  // Phase 2: query, then fetch the matched clip.
  retrieval::Query q;
  q.center = kCenter;
  q.radius_m = 30.0;
  q.t_start = 1'020'000;
  q.t_end = 1'030'000;
  const auto results = server.search(q);
  ASSERT_FALSE(results.empty());

  // Fetch clamped to the query window: the static camera's whole 60 s
  // recording is ONE segment, but the inquirer only needs the 10 s that
  // matched.
  const auto clips =
      coordinator.fetch_all(results, {}, 1, q.t_start, q.t_end).clips;
  ASSERT_EQ(clips.size(), 1u);
  const auto& clip = clips[0];
  EXPECT_EQ(clip.video_id, 77u);
  // The clip covers segment ∩ window (GOP-aligned outward).
  EXPECT_LE(clip.t_start, q.t_start);
  EXPECT_GE(clip.t_end, q.t_end);
  // Payload bytes are the provider's actual stored content.
  EXPECT_FALSE(clip.payload.empty());
  const auto direct = store.extract_clip(
      77, std::max(results[0].rep.t_start, q.t_start),
      std::min(results[0].rep.t_end, q.t_end));
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(clip.payload, direct->payload);

  // Byte accounting: phase 1 is tiny; phase 2 carries the clip; nothing
  // else ever moved.
  const auto& fs = coordinator.stats();
  EXPECT_LT(phase1_bytes, 200u);
  EXPECT_EQ(fs.clips_fetched, 1u);
  EXPECT_GT(fs.clip_bytes, 0u);
  EXPECT_LT(fs.clip_bytes, store.stored_bytes());
}

TEST(TwoPhaseIntegrationTest, CrowdScaleFetchBudget) {
  const core::SimilarityModel model(kCam);
  sim::CityModel city;
  city.center = kCenter;
  city.extent_m = 800.0;
  sim::CrowdConfig cfg;
  cfg.providers = 15;
  cfg.min_duration_s = 20.0;
  cfg.max_duration_s = 40.0;
  cfg.fps = 10.0;
  cfg.window_length_ms = 600'000;
  util::Xoshiro256 rng(2);
  const auto sessions = sim::generate_crowd(city, cfg, rng);

  retrieval::RetrievalConfig rcfg;
  rcfg.camera = kCam;
  rcfg.orientation_slack_deg = 10.0;
  rcfg.top_n = 20;
  net::CloudServer server({}, rcfg);
  std::map<std::uint64_t, media::VideoStore> stores;
  std::map<std::uint64_t, net::Link> links;
  net::FetchCoordinator coordinator;
  for (const auto& s : sessions) {
    net::MobileClient client(s.video_id, model, {0.5});
    server.ingest(net::capture_session(client, s.records));
    stores[s.video_id].add(media::RecordedVideo(
        s.video_id, s.records.front().t, s.records.back().t));
    coordinator.register_provider(s.video_id, &stores[s.video_id],
                                  &links[s.video_id]);
  }

  // Query wherever a camera actually looked; fetch top 3 clips.
  const auto& s0 = sessions.front();
  const auto& frame = s0.ground_truth[s0.ground_truth.size() / 2];
  retrieval::Query q;
  q.center = geo::offset_m(
      frame.fov.p, 30.0 * std::sin(geo::deg_to_rad(frame.fov.theta_deg)),
      30.0 * std::cos(geo::deg_to_rad(frame.fov.theta_deg)));
  q.radius_m = 30.0;
  q.t_start = frame.t - 5'000;
  q.t_end = frame.t + 5'000;
  const auto results = server.search(q);
  ASSERT_FALSE(results.empty());
  const auto clips = coordinator.fetch_all(results, {}, 3).clips;
  EXPECT_EQ(clips.size(),
            std::min<std::size_t>(3, results.size()) -
                coordinator.stats().clips_missing);
  // Every fetched clip is a strict subset of its provider's storage.
  std::uint64_t total_store = 0;
  for (const auto& [vid, st] : stores) total_store += st.stored_bytes();
  EXPECT_LT(coordinator.stats().clip_bytes, total_store / 4);
}

}  // namespace
