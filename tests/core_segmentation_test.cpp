// Algorithm 1 (video segmentation) and Eq. 11 (segment abstraction), both
// run by the one streaming pipeline.

#include "core/segmentation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "geo/angle.hpp"
#include "geo/geodesy.hpp"
#include "sim/crowd.hpp"

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

/// The pipeline's output for a stream of valid frames: each segment's
/// representative, and its frame count read from where push() returned —
/// the frame whose push() returns a representative opens the next segment.
struct Segmented {
  std::vector<RepresentativeFov> reps;
  std::vector<std::size_t> sizes;
};

Segmented segment(const SimilarityModel& m, std::span<const FovRecord> frames,
                  double threshold,
                  MeanPolicy policy = MeanPolicy::kCircular) {
  StreamingAbstractionPipeline pipe(m, {threshold}, 99, policy);
  Segmented out;
  std::size_t opened = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (auto rep = pipe.push(frames[i])) {
      out.reps.push_back(*rep);
      out.sizes.push_back(i - opened);
      opened = i;
    }
  }
  if (auto rep = pipe.finish()) {
    out.reps.push_back(*rep);
    out.sizes.push_back(frames.size() - opened);
  }
  return out;
}

TEST(SegmenterTest, StaticSceneIsOneSegment) {
  const auto m = model();
  const auto frames = static_stream(100);
  const auto segs = segment(m, frames, 0.5);
  ASSERT_EQ(segs.reps.size(), 1u);
  EXPECT_EQ(segs.sizes[0], 100u);
  EXPECT_EQ(segs.reps[0].t_start, 0);
  EXPECT_EQ(segs.reps[0].t_end, 99 * 33);
}

TEST(SegmenterTest, SharpTurnSplitsExactlyOnce) {
  const auto m = model(30.0);
  std::vector<FovRecord> frames;
  for (int i = 0; i < 50; ++i) frames.push_back(rec(i * 33, 0, 0, 0.0));
  // 90° turn: similarity to anchor drops to 0 < any threshold.
  for (int i = 50; i < 100; ++i) frames.push_back(rec(i * 33, 0, 0, 90.0));
  const auto segs = segment(m, frames, 0.5);
  ASSERT_EQ(segs.reps.size(), 2u);
  EXPECT_EQ(segs.sizes[0], 50u);
  EXPECT_EQ(segs.sizes[1], 50u);
  EXPECT_EQ(segs.reps[1].t_start, 50 * 33);
}

TEST(SegmenterTest, SlowPanSplitsAtThresholdCrossing) {
  // Rotating 1°/frame with α = 30°: Sim_R = (60 − δθ)/60 < 0.5 once
  // δθ > 30°, so the anchor-relative split lands after 31 frames.
  const auto m = model(30.0);
  std::vector<FovRecord> frames;
  for (int i = 0; i < 62; ++i) {
    frames.push_back(rec(i * 33, 0, 0, static_cast<double>(i)));
  }
  const auto segs = segment(m, frames, 0.5);
  ASSERT_EQ(segs.reps.size(), 2u);
  EXPECT_EQ(segs.sizes[0], 31u);  // δθ = 31 triggers at frame index 31
}

TEST(SegmenterTest, SegmentsPartitionTheStream) {
  const auto m = model();
  std::vector<FovRecord> frames;
  // A wandering walk with several direction changes.
  for (int i = 0; i < 300; ++i) {
    const double theta = (i / 60) * 45.0;
    frames.push_back(rec(i * 33, i * 0.5, i * 0.3, theta));
  }
  const auto segs = segment(m, frames, 0.4);
  std::size_t total = 0;
  TimestampMs prev_end = -1;
  for (std::size_t k = 0; k < segs.reps.size(); ++k) {
    ASSERT_GT(segs.sizes[k], 0u);
    total += segs.sizes[k];
    ASSERT_GT(segs.reps[k].t_start, prev_end);
    ASSERT_LE(segs.reps[k].t_start, segs.reps[k].t_end);
    prev_end = segs.reps[k].t_end;
  }
  EXPECT_EQ(total, frames.size());
}

TEST(SegmenterTest, HigherThresholdNeverMakesFewerSegments) {
  // Section VII: bigger threshold ⇒ denser segmentation.
  const auto m = model();
  std::vector<FovRecord> frames;
  for (int i = 0; i < 400; ++i) {
    frames.push_back(rec(i * 33, i * 0.7, 0.0, 0.2 * i));
  }
  std::size_t prev = 0;
  for (double thresh : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto segs = segment(m, frames, thresh);
    ASSERT_GE(segs.reps.size(), prev) << thresh;
    prev = segs.reps.size();
  }
}

TEST(SegmenterTest, FinishOnEmptyReturnsNothing) {
  const auto m = model();
  StreamingAbstractionPipeline pipe(m, {0.5}, 1);
  EXPECT_FALSE(pipe.finish().has_value());
}

TEST(SegmenterTest, ReusableAfterFinish) {
  const auto m = model();
  StreamingAbstractionPipeline pipe(m, {0.5}, 1);
  (void)pipe.push(rec(0, 0, 0, 0));
  ASSERT_TRUE(pipe.finish().has_value());
  (void)pipe.push(rec(100, 0, 0, 0));
  const auto s = pipe.finish();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->t_start, 100);
}

TEST(SegmenterTest, CountersTrackActivity) {
  const auto m = model();
  StreamingAbstractionPipeline pipe(m, {0.5}, 1);
  for (int i = 0; i < 10; ++i) (void)pipe.push(rec(i, 0, 0, 0));
  EXPECT_EQ(pipe.frames_seen(), 10u);
  EXPECT_EQ(pipe.segments_emitted(), 0u);
  (void)pipe.push(rec(10, 0, 0, 120.0));  // split
  EXPECT_EQ(pipe.segments_emitted(), 1u);
}

// --- abstraction (Eq. 11) ---------------------------------------------------

TEST(AbstractSegmentTest, AveragesPositionAndInterval) {
  // Threshold 0 never splits, so the pipeline is Eq. 11 over every frame.
  const auto m = model();
  StreamingAbstractionPipeline pipe(m, {0.0}, 7);
  for (const auto& f :
       {rec(100, 0, 0, 10), rec(200, 10, 20, 20), rec(300, 20, 40, 30)}) {
    ASSERT_FALSE(pipe.push(f).has_value());
  }
  const auto rep = pipe.finish();
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->video_id, 7u);
  EXPECT_EQ(rep->segment_id, 0u);
  EXPECT_EQ(rep->t_start, 100);
  EXPECT_EQ(rep->t_end, 300);
  EXPECT_EQ(rep->duration_ms(), 200);
  // Mean position = offset (10, 20) from origin.
  const auto d = svg::geo::displacement_m(kOrigin, rep->fov.p);
  EXPECT_NEAR(d.x, 10.0, 0.05);
  EXPECT_NEAR(d.y, 20.0, 0.05);
  EXPECT_NEAR(rep->fov.theta_deg, 20.0, 1e-6);
}

TEST(AbstractSegmentTest, CircularPolicySurvivesWrap) {
  const auto m = model();
  const std::vector<FovRecord> frames = {rec(0, 0, 0, 359.0),
                                         rec(33, 0, 0, 1.0)};
  const auto circular = segment(m, frames, 0.5, MeanPolicy::kCircular);
  ASSERT_EQ(circular.reps.size(), 1u);
  EXPECT_NEAR(svg::geo::angular_difference_deg(
                  circular.reps[0].fov.theta_deg, 0.0),
              0.0, 1e-6);
  // The paper's arithmetic policy lands on due south — the documented bug.
  const auto paper = segment(m, frames, 0.5, MeanPolicy::kArithmeticPaper);
  ASSERT_EQ(paper.reps.size(), 1u);
  EXPECT_NEAR(paper.reps[0].fov.theta_deg, 180.0, 1e-6);
}

// --- the pipeline against a reference ----------------------------------------

/// Reference Algorithm 1 + Eq. 11, written the long way: repair invalid
/// frames to the last fix, store every frame of a segment, compare each
/// frame to the segment's first through similarity(f1, f2), then average
/// the stored frames.
std::vector<RepresentativeFov> segment_then_abstract(
    const SimilarityModel& m, std::span<const FovRecord> frames,
    double threshold, std::uint64_t video_id, MeanPolicy policy) {
  std::vector<std::vector<FovRecord>> segments;
  std::optional<FoV> last_fix;
  for (const FovRecord& raw : frames) {
    FovRecord f = raw;
    if (valid_fov_record(raw)) {
      last_fix = raw.fov;
    } else if (last_fix) {
      f.fov = *last_fix;
    } else {
      continue;
    }
    if (segments.empty() ||
        m.similarity(segments.back().front().fov, f.fov) < threshold) {
      segments.emplace_back();
    }
    segments.back().push_back(f);
  }
  std::vector<RepresentativeFov> out;
  for (const auto& seg : segments) {
    RepresentativeFov rep;
    rep.video_id = video_id;
    rep.segment_id = static_cast<std::uint32_t>(out.size());
    rep.t_start = seg.front().t;
    rep.t_end = seg.back().t;
    double lat = 0.0, lng = 0.0, theta = 0.0;
    std::vector<double> thetas;
    for (const auto& f : seg) {
      lat += f.fov.p.lat;
      lng += f.fov.p.lng;
      theta += f.fov.theta_deg;
      thetas.push_back(f.fov.theta_deg);
    }
    const auto n = static_cast<double>(seg.size());
    rep.fov.p.lat = lat / n;
    rep.fov.p.lng = lng / n;
    rep.fov.theta_deg = policy == MeanPolicy::kArithmeticPaper
                            ? svg::geo::wrap_deg(theta / n)
                            : svg::geo::circular_mean_deg(thetas);
    out.push_back(rep);
  }
  return out;
}

void expect_pipeline_matches_reference(const SimilarityModel& m,
                                       std::span<const FovRecord> frames,
                                       double threshold, MeanPolicy policy) {
  const auto expected = segment_then_abstract(m, frames, threshold, 99, policy);
  StreamingAbstractionPipeline pipe(m, {threshold}, 99, policy);
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
    EXPECT_EQ(got[i].fov.p.lat, expected[i].fov.p.lat);
    EXPECT_EQ(got[i].fov.p.lng, expected[i].fov.p.lng);
    EXPECT_EQ(got[i].fov.theta_deg, expected[i].fov.theta_deg);
  }
}

TEST(StreamingPipelineTest, MatchesSegmentThenAbstract) {
  const auto m = model();
  std::vector<FovRecord> frames;
  for (int i = 0; i < 250; ++i) {
    frames.push_back(rec(i * 33, 0.8 * i, 0.1 * i, 2.0 * i));
  }
  for (const MeanPolicy policy :
       {MeanPolicy::kCircular, MeanPolicy::kArithmeticPaper}) {
    expect_pipeline_matches_reference(m, frames, 0.5, policy);
  }

  // Seeded crowd sessions (the default movement mix), with a sensor dropout
  // every 97th frame so hold-last-fix is on the compared path too.
  svg::sim::CrowdConfig cfg;
  cfg.providers = 12;
  cfg.max_duration_s = 60.0;
  svg::util::Xoshiro256 rng(16);
  const auto sessions =
      svg::sim::generate_crowd(svg::sim::CityModel{}, cfg, rng);
  ASSERT_FALSE(sessions.empty());
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (auto session : sessions) {
    for (std::size_t i = 0; i < session.records.size(); i += 97) {
      session.records[i].fov.p.lat = kNan;
    }
    for (const double threshold : {0.3, 0.5, 0.8}) {
      for (const MeanPolicy policy :
           {MeanPolicy::kCircular, MeanPolicy::kArithmeticPaper}) {
        expect_pipeline_matches_reference(m, session.records, threshold,
                                          policy);
      }
    }
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
  StreamingAbstractionPipeline pipe(m, {0.5}, 1);
  for (int i = 0; i < 10'000; ++i) {
    (void)pipe.push(rec(i, 0.1 * i, 0, 0.05 * i));
  }
  EXPECT_EQ(pipe.frames_seen(), 10'000u);
}

}  // namespace
