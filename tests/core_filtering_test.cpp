#include "core/filtering.hpp"

#include <gtest/gtest.h>

#include "core/segmentation.hpp"
#include "geo/angle.hpp"
#include "geo/geodesy.hpp"
#include "sim/sensors.hpp"
#include "util/stats.hpp"

namespace {

using namespace svg::core;
using svg::geo::LatLng;
using svg::geo::offset_m;

const LatLng kOrigin{39.9042, 116.4074};

FovRecord rec(TimestampMs t, double east, double north, double theta) {
  return {t, {offset_m(kOrigin, east, north), theta}};
}

TEST(SensorSmootherTest, FirstSampleIsPassedThrough) {
  SensorSmoother s;
  const auto r = rec(0, 5, 5, 42);
  const auto out = s.push(r);
  EXPECT_EQ(out.t, r.t);
  EXPECT_EQ(out.fov.p, r.fov.p);
  EXPECT_EQ(out.fov.theta_deg, r.fov.theta_deg);
}

TEST(SensorSmootherTest, OffConfigIsIdentity) {
  SensorSmoother s(FilterConfig::off());
  (void)s.push(rec(0, 0, 0, 0));
  const auto out = s.push(rec(33, 3, -4, 123));
  EXPECT_NEAR(svg::geo::distance_m(out.fov.p, rec(0, 3, -4, 0).fov.p), 0.0,
              1e-9);
  EXPECT_DOUBLE_EQ(out.fov.theta_deg, 123.0);
}

TEST(SensorSmootherTest, PositionMovesFractionally) {
  FilterConfig cfg;
  cfg.position_alpha = 0.25;
  cfg.max_speed_mps = 0.0;
  SensorSmoother s(cfg);
  (void)s.push(rec(0, 0, 0, 0));
  const auto out = s.push(rec(33, 8, 0, 0));
  const auto d = svg::geo::displacement_m(kOrigin, out.fov.p);
  EXPECT_NEAR(d.x, 2.0, 0.01);  // 25% of the way
}

TEST(SensorSmootherTest, HeadingSmoothsAcrossWrap) {
  FilterConfig cfg;
  cfg.heading_alpha = 0.5;
  SensorSmoother s(cfg);
  (void)s.push(rec(0, 0, 0, 350.0));
  const auto out = s.push(rec(33, 0, 0, 10.0));
  // Halfway from 350° to 10° along the short arc = 0°, never 180°.
  EXPECT_NEAR(svg::geo::angular_difference_deg(out.fov.theta_deg, 0.0), 0.0,
              1e-9);
}

TEST(SensorSmootherTest, SpeedGateRejectsTeleports) {
  FilterConfig cfg;
  cfg.position_alpha = 1.0;
  cfg.max_speed_mps = 50.0;
  SensorSmoother s(cfg);
  (void)s.push(rec(0, 0, 0, 0));
  // 1000 m in 33 ms is a glitch; estimate holds.
  const auto out = s.push(rec(33, 1000, 0, 0));
  EXPECT_NEAR(svg::geo::distance_m(out.fov.p, kOrigin), 0.0, 0.01);
  EXPECT_EQ(s.rejected_fixes(), 1u);
  // A plausible fix afterwards is accepted.
  const auto ok = s.push(rec(1033, 10, 0, 0));
  EXPECT_NEAR(svg::geo::distance_m(ok.fov.p, rec(0, 10, 0, 0).fov.p), 0.0,
              0.05);
}

TEST(SensorSmootherTest, ResetForgetsState) {
  SensorSmoother s;
  (void)s.push(rec(0, 0, 0, 0));
  s.reset();
  const auto out = s.push(rec(1000, 100, 100, 90));
  // Treated as a fresh first sample.
  EXPECT_NEAR(svg::geo::distance_m(out.fov.p, rec(0, 100, 100, 0).fov.p),
              0.0, 1e-9);
}

TEST(SmoothRecordsTest, ReducesNoiseAgainstGroundTruth) {
  // A noisy straight walk: smoothing must cut position and heading RMS
  // error versus the true trajectory.
  svg::sim::StraightTrajectory traj(kOrigin, 45.0, 1.4, 60.0);
  svg::sim::SensorNoiseConfig noise;
  noise.gps_sigma_m = 6.0;
  noise.compass_sigma_deg = 8.0;
  svg::sim::SensorSampler sampler(noise, {10.0, 0});
  svg::util::Xoshiro256 rng(3);
  const auto raw = sampler.sample(traj, rng);
  const auto smoothed = smooth_records(raw);

  svg::util::RunningStats raw_pos_err, smooth_pos_err;
  svg::util::RunningStats raw_heading_err, smooth_heading_err;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto truth = traj.at(static_cast<double>(i) / 10.0);
    raw_pos_err.add(svg::geo::distance_m(raw[i].fov.p, truth.position));
    smooth_pos_err.add(
        svg::geo::distance_m(smoothed[i].fov.p, truth.position));
    raw_heading_err.add(svg::geo::angular_difference_deg(
        raw[i].fov.theta_deg, truth.heading_deg));
    smooth_heading_err.add(svg::geo::angular_difference_deg(
        smoothed[i].fov.theta_deg, truth.heading_deg));
  }
  EXPECT_LT(smooth_pos_err.mean(), raw_pos_err.mean());
  EXPECT_LT(smooth_heading_err.mean(), raw_heading_err.mean());
}

TEST(SmoothRecordsTest, FewerSpuriousSegmentsAfterSmoothing) {
  // The end the filter serves: noisy input over-segments; smoothing gets
  // the count back toward the noise-free figure.
  svg::sim::StraightTrajectory traj(kOrigin, 0.0, 1.4, 120.0);
  svg::sim::SensorNoiseConfig noise;
  noise.gps_sigma_m = 8.0;
  noise.compass_sigma_deg = 10.0;
  svg::sim::SensorSampler sampler(noise, {10.0, 0});
  svg::util::Xoshiro256 rng(4);
  const auto raw = sampler.sample(traj, rng);
  const auto smoothed = smooth_records(raw);

  const SimilarityModel model({30.0, 100.0});
  const auto segs_raw = segment_video(raw, model, {0.5});
  const auto segs_smoothed = segment_video(smoothed, model, {0.5});
  EXPECT_LE(segs_smoothed.size(), segs_raw.size());
}

TEST(SmoothRecordsTest, TimestampsPreserved) {
  std::vector<FovRecord> raw;
  for (int i = 0; i < 10; ++i) raw.push_back(rec(i * 100, i, 0, 0));
  const auto out = smooth_records(raw);
  ASSERT_EQ(out.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(out[i].t, raw[i].t);
  }
}

}  // namespace
