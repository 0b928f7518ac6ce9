// Sensor-dropout handling: invalid GPS/compass readings (NaN, out-of-range)
// are repaired to the last valid fix or dropped, never averaged into a
// segment. Covers the segmenting pipeline and the MobileClient counters.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/segmentation.hpp"
#include "net/client.hpp"

namespace {

using namespace svg::core;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

FovRecord frame(TimestampMs t, double lat, double lng, double theta) {
  FovRecord rec;
  rec.t = t;
  rec.fov.p.lat = lat;
  rec.fov.p.lng = lng;
  rec.fov.theta_deg = theta;
  return rec;
}

TEST(SensorValidationTest, ValidFovRecordChecksRangesAndFiniteness) {
  EXPECT_TRUE(valid_fov_record(frame(0, 39.9, 116.4, 45.0)));
  EXPECT_TRUE(valid_fov_record(frame(0, -90.0, -180.0, 0.0)));
  EXPECT_TRUE(valid_fov_record(frame(0, 90.0, 180.0, 359.0)));
  EXPECT_FALSE(valid_fov_record(frame(0, kNan, 116.4, 45.0)));
  EXPECT_FALSE(valid_fov_record(frame(0, 39.9, kNan, 45.0)));
  EXPECT_FALSE(valid_fov_record(frame(0, 39.9, 116.4, kNan)));
  EXPECT_FALSE(valid_fov_record(frame(0, kInf, 116.4, 45.0)));
  EXPECT_FALSE(valid_fov_record(frame(0, 91.0, 116.4, 45.0)));
  EXPECT_FALSE(valid_fov_record(frame(0, -91.0, 116.4, 45.0)));
  EXPECT_FALSE(valid_fov_record(frame(0, 39.9, 181.0, 45.0)));
  EXPECT_FALSE(valid_fov_record(frame(0, 39.9, -181.0, 45.0)));
}

TEST(SensorValidationTest, PipelineDropsLeadingInvalidFrames) {
  const SimilarityModel model({});
  StreamingAbstractionPipeline pipe(model, {}, 1);
  EXPECT_FALSE(pipe.push(frame(0, kNan, 116.4, 0.0)).has_value());
  EXPECT_FALSE(pipe.push(frame(33, 39.9, kNan, 0.0)).has_value());
  EXPECT_EQ(pipe.frames_dropped(), 2u);
  EXPECT_EQ(pipe.frames_held(), 0u);
  EXPECT_FALSE(pipe.finish().has_value());  // nothing valid ever arrived
}

TEST(SensorValidationTest, PipelineHoldsLastFixThroughDropout) {
  const SimilarityModel model({});
  StreamingAbstractionPipeline pipe(model, {}, 1);
  (void)pipe.push(frame(0, 39.9, 116.4, 10.0));
  // A GPS dropout burst mid-segment: repaired to the last fix, so the
  // running averages never see NaN.
  (void)pipe.push(frame(33, kNan, kNan, kNan));
  (void)pipe.push(frame(66, kNan, 116.4, 10.0));
  (void)pipe.push(frame(100, 39.9, 116.4, 10.0));
  EXPECT_EQ(pipe.frames_held(), 2u);
  EXPECT_EQ(pipe.frames_dropped(), 0u);
  const auto rep = pipe.finish();
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(std::isfinite(rep->fov.p.lat));
  EXPECT_TRUE(std::isfinite(rep->fov.p.lng));
  EXPECT_TRUE(std::isfinite(rep->fov.theta_deg));
  EXPECT_NEAR(rep->fov.p.lat, 39.9, 1e-9);
  EXPECT_NEAR(rep->fov.p.lng, 116.4, 1e-9);
  // Held frames keep their own timestamps: the segment still spans 100 ms.
  EXPECT_EQ(rep->t_start, 0);
  EXPECT_EQ(rep->t_end, 100);
}

TEST(SensorValidationTest, SegmenterRepairsInvalidFramesIdentically) {
  const SimilarityModel model({});
  StreamingAbstractionPipeline pipe(model, {}, 1);
  EXPECT_FALSE(pipe.push(frame(0, 95.0, 116.4, 0.0)).has_value());  // dropped
  (void)pipe.push(frame(33, 39.9, 116.4, 0.0));
  (void)pipe.push(frame(66, kNan, 0.0, 0.0));  // held
  EXPECT_EQ(pipe.frames_dropped(), 1u);
  EXPECT_EQ(pipe.frames_held(), 1u);
  const auto done = pipe.finish();
  ASSERT_TRUE(done.has_value());
  // Two frames: the valid fix and the frame repaired to it, so the mean
  // is that fix and the interval runs from the fix to the held frame.
  EXPECT_EQ(done->t_start, 33);
  EXPECT_EQ(done->t_end, 66);
  EXPECT_EQ(done->fov, frame(33, 39.9, 116.4, 0.0).fov);
  EXPECT_TRUE(valid_fov_record({done->t_start, done->fov}));
}

TEST(SensorValidationTest, HeldFrameDoesNotForceASplit) {
  // The repaired frame equals the last fix, so similarity to the anchor is
  // whatever the previous frame's was — a dropout must not split a segment
  // that was coherent.
  const SimilarityModel model({});
  StreamingAbstractionPipeline pipe(model, {}, 1);
  ASSERT_FALSE(pipe.push(frame(0, 39.9, 116.4, 10.0)).has_value());
  ASSERT_FALSE(pipe.push(frame(33, kNan, kNan, kNan)).has_value());
  ASSERT_FALSE(pipe.push(frame(66, kNan, kNan, kNan)).has_value());
  EXPECT_EQ(pipe.segments_emitted(), 0u);
  ASSERT_TRUE(pipe.finish().has_value());
  EXPECT_EQ(pipe.segments_emitted(), 1u);
}

TEST(SensorValidationTest, ClientStatsMirrorPipelineCounters) {
  const SimilarityModel model({});
  svg::net::MobileClient client(1, model, {});
  client.on_frame(frame(0, kNan, 116.4, 0.0));      // dropped (no fix yet)
  client.on_frame(frame(33, 39.9, 116.4, 0.0));     // valid
  client.on_frame(frame(66, 39.9, kInf, 0.0));      // held
  client.on_frame(frame(100, 39.9, 116.4, 0.0));    // valid
  const auto& s = client.stats();
  EXPECT_EQ(s.frames_processed, 4u);
  EXPECT_EQ(s.frames_dropped, 1u);
  EXPECT_EQ(s.frames_held, 1u);
  const auto msg = client.finish_recording();
  ASSERT_EQ(msg.segments.size(), 1u);
  EXPECT_TRUE(std::isfinite(msg.segments[0].fov.p.lat));
}

}  // namespace
