// Algorithm 1 (video segmentation) and Eq. 11 (segment abstraction).

#include "core/segmentation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geo/angle.hpp"
#include "geo/geodesy.hpp"

namespace {

using namespace svg::core;
using svg::geo::LatLng;
using svg::geo::offset_m;

const LatLng kOrigin{39.9042, 116.4074};

SimilarityModel model(double alpha = 30.0, double radius = 100.0) {
  return SimilarityModel({alpha, radius});
}

FovRecord rec(TimestampMs t, double east, double north, double theta) {
  return {t, {offset_m(kOrigin, east, north), theta}};
}

/// A stationary recording: n frames, identical pose.
std::vector<FovRecord> static_stream(int n) {
  std::vector<FovRecord> v;
  for (int i = 0; i < n; ++i) v.push_back(rec(i * 33, 0, 0, 90.0));
  return v;
}

TEST(VideoSegmenterTest, StaticSceneIsOneSegment) {
  const auto m = model();
  const auto frames = static_stream(100);
  const auto segs = segment_video(frames, m, {0.5});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].size(), 100u);
  EXPECT_EQ(segs[0].start_time(), 0);
  EXPECT_EQ(segs[0].end_time(), 99 * 33);
}

TEST(VideoSegmenterTest, SharpTurnSplitsExactlyOnce) {
  const auto m = model(30.0);
  std::vector<FovRecord> frames;
  for (int i = 0; i < 50; ++i) frames.push_back(rec(i * 33, 0, 0, 0.0));
  // 90° turn: similarity to anchor drops to 0 < any threshold.
  for (int i = 50; i < 100; ++i) frames.push_back(rec(i * 33, 0, 0, 90.0));
  const auto segs = segment_video(frames, m, {0.5});
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].size(), 50u);
  EXPECT_EQ(segs[1].size(), 50u);
  EXPECT_EQ(segs[1].start_time(), 50 * 33);
}

TEST(VideoSegmenterTest, SlowPanSplitsAtThresholdCrossing) {
  // Rotating 1°/frame with α = 30°: Sim_R = (60 − δθ)/60 < 0.5 once
  // δθ > 30°, so the anchor-relative split lands after 31 frames.
  const auto m = model(30.0);
  std::vector<FovRecord> frames;
  for (int i = 0; i < 62; ++i) {
    frames.push_back(rec(i * 33, 0, 0, static_cast<double>(i)));
  }
  const auto segs = segment_video(frames, m, {0.5});
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].size(), 31u);  // δθ = 31 triggers at frame index 31
}

TEST(VideoSegmenterTest, SegmentsPartitionTheStream) {
  const auto m = model();
  std::vector<FovRecord> frames;
  // A wandering walk with several direction changes.
  for (int i = 0; i < 300; ++i) {
    const double theta = (i / 60) * 45.0;
    frames.push_back(rec(i * 33, i * 0.5, i * 0.3, theta));
  }
  const auto segs = segment_video(frames, m, {0.4});
  std::size_t total = 0;
  TimestampMs prev_end = -1;
  for (const auto& s : segs) {
    ASSERT_FALSE(s.empty());
    total += s.size();
    ASSERT_GT(s.start_time(), prev_end);
    ASSERT_LE(s.start_time(), s.end_time());
    prev_end = s.end_time();
  }
  EXPECT_EQ(total, frames.size());
}

TEST(VideoSegmenterTest, HigherThresholdNeverMakesFewerSegments) {
  // Section VII: bigger threshold ⇒ denser segmentation.
  const auto m = model();
  std::vector<FovRecord> frames;
  for (int i = 0; i < 400; ++i) {
    frames.push_back(rec(i * 33, i * 0.7, 0.0, 0.2 * i));
  }
  std::size_t prev = 0;
  for (double thresh : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto segs = segment_video(frames, m, {thresh});
    ASSERT_GE(segs.size(), prev) << thresh;
    prev = segs.size();
  }
}

TEST(VideoSegmenterTest, StreamingMatchesBatch) {
  const auto m = model();
  std::vector<FovRecord> frames;
  for (int i = 0; i < 200; ++i) {
    frames.push_back(rec(i * 33, i * 1.0, i * -0.4, 3.0 * i));
  }
  const auto batch = segment_video(frames, m, {0.5});

  VideoSegmenter seg(m, {0.5});
  std::vector<VideoSegment> streamed;
  for (const auto& f : frames) {
    if (auto done = seg.push(f)) streamed.push_back(std::move(*done));
  }
  if (auto done = seg.finish()) streamed.push_back(std::move(*done));

  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].size(), batch[i].size());
    EXPECT_EQ(streamed[i].start_time(), batch[i].start_time());
    EXPECT_EQ(streamed[i].end_time(), batch[i].end_time());
  }
}

TEST(VideoSegmenterTest, FinishOnEmptyReturnsNothing) {
  const auto m = model();
  VideoSegmenter seg(m, {0.5});
  EXPECT_FALSE(seg.finish().has_value());
}

TEST(VideoSegmenterTest, ReusableAfterFinish) {
  const auto m = model();
  VideoSegmenter seg(m, {0.5});
  seg.push(rec(0, 0, 0, 0));
  ASSERT_TRUE(seg.finish().has_value());
  seg.push(rec(100, 0, 0, 0));
  const auto s = seg.finish();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->start_time(), 100);
}

TEST(VideoSegmenterTest, CountersTrackActivity) {
  const auto m = model();
  VideoSegmenter seg(m, {0.5});
  for (int i = 0; i < 10; ++i) seg.push(rec(i, 0, 0, 0));
  EXPECT_EQ(seg.frames_seen(), 10u);
  EXPECT_EQ(seg.segments_completed(), 0u);
  seg.push(rec(10, 0, 0, 120.0));  // split
  EXPECT_EQ(seg.segments_completed(), 1u);
}

// --- abstraction (Eq. 11) ---------------------------------------------------

TEST(AbstractSegmentTest, AveragesPositionAndInterval) {
  VideoSegment s;
  s.frames = {rec(100, 0, 0, 10), rec(200, 10, 20, 20), rec(300, 20, 40, 30)};
  const auto rep = abstract_segment(s, 7, 3);
  EXPECT_EQ(rep.video_id, 7u);
  EXPECT_EQ(rep.segment_id, 3u);
  EXPECT_EQ(rep.t_start, 100);
  EXPECT_EQ(rep.t_end, 300);
  EXPECT_EQ(rep.duration_ms(), 200);
  // Mean position = offset (10, 20) from origin.
  const auto d = svg::geo::displacement_m(kOrigin, rep.fov.p);
  EXPECT_NEAR(d.x, 10.0, 0.05);
  EXPECT_NEAR(d.y, 20.0, 0.05);
  EXPECT_NEAR(rep.fov.theta_deg, 20.0, 1e-6);
}

TEST(AbstractSegmentTest, EmptySegmentThrows) {
  EXPECT_THROW((void)abstract_segment(VideoSegment{}, 0, 0),
               std::invalid_argument);
}

TEST(AbstractSegmentTest, CircularPolicySurvivesWrap) {
  VideoSegment s;
  s.frames = {rec(0, 0, 0, 359.0), rec(33, 0, 0, 1.0)};
  const auto circular = abstract_segment(s, 0, 0, MeanPolicy::kCircular);
  EXPECT_NEAR(
      svg::geo::angular_difference_deg(circular.fov.theta_deg, 0.0), 0.0,
      1e-6);
  // The paper's arithmetic policy lands on due south — the documented bug.
  const auto paper = abstract_segment(s, 0, 0, MeanPolicy::kArithmeticPaper);
  EXPECT_NEAR(paper.fov.theta_deg, 180.0, 1e-6);
}

// --- fused streaming pipeline ----------------------------------------------

TEST(StreamingPipelineTest, MatchesSegmentThenAbstract) {
  const auto m = model();
  std::vector<FovRecord> frames;
  for (int i = 0; i < 250; ++i) {
    frames.push_back(rec(i * 33, 0.8 * i, 0.1 * i, 2.0 * i));
  }
  // Reference: batch segment + abstract.
  const auto segs = segment_video(frames, m, {0.5});
  std::vector<RepresentativeFov> expected;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    expected.push_back(
        abstract_segment(segs[i], 99, static_cast<std::uint32_t>(i)));
  }

  StreamingAbstractionPipeline pipe(m, {0.5}, 99);
  std::vector<RepresentativeFov> got;
  for (const auto& f : frames) {
    if (auto r = pipe.push(f)) got.push_back(*r);
  }
  if (auto r = pipe.finish()) got.push_back(*r);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].video_id, 99u);
    EXPECT_EQ(got[i].segment_id, expected[i].segment_id);
    EXPECT_EQ(got[i].t_start, expected[i].t_start);
    EXPECT_EQ(got[i].t_end, expected[i].t_end);
    EXPECT_NEAR(got[i].fov.p.lat, expected[i].fov.p.lat, 1e-12);
    EXPECT_NEAR(got[i].fov.p.lng, expected[i].fov.p.lng, 1e-12);
    EXPECT_NEAR(got[i].fov.theta_deg, expected[i].fov.theta_deg, 1e-9);
  }
}

TEST(StreamingPipelineTest, EmitsNothingBeforeFirstSplit) {
  const auto m = model();
  StreamingAbstractionPipeline pipe(m, {0.5}, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(pipe.push(rec(i, 0, 0, 0)).has_value());
  }
  EXPECT_TRUE(pipe.finish().has_value());
}

TEST(StreamingPipelineTest, SegmentIdsAreSequential) {
  const auto m = model();
  StreamingAbstractionPipeline pipe(m, {0.5}, 1);
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 10; ++i) {
    // Jump heading by 120° every frame → every frame a new segment.
    if (auto r = pipe.push(rec(i, 0, 0, (i % 3) * 120.0))) {
      ids.push_back(r->segment_id);
    }
  }
  if (auto r = pipe.finish()) ids.push_back(r->segment_id);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i);
  }
}

TEST(ComplexityTest, SegmentationIsLinearInFrames) {
  // O(1) per frame: 10x frames should take ~10x similarity evaluations —
  // verified structurally: frames_seen == pushes, no hidden growth.
  const auto m = model();
  VideoSegmenter seg(m, {0.5});
  for (int i = 0; i < 10'000; ++i) {
    seg.push(rec(i, 0.1 * i, 0, 0.05 * i));
  }
  EXPECT_EQ(seg.frames_seen(), 10'000u);
}

}  // namespace
