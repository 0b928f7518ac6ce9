#include "core/segmentation.hpp"

#include <cmath>

#include "geo/angle.hpp"
#include "obs/families.hpp"

namespace svg::core {

bool valid_fov_record(const FovRecord& rec) noexcept {
  return std::isfinite(rec.fov.p.lat) && std::isfinite(rec.fov.p.lng) &&
         std::isfinite(rec.fov.theta_deg) && rec.fov.p.lat >= -90.0 &&
         rec.fov.p.lat <= 90.0 && rec.fov.p.lng >= -180.0 &&
         rec.fov.p.lng <= 180.0;
}

StreamingAbstractionPipeline::StreamingAbstractionPipeline(
    const SimilarityModel& model, SegmenterConfig cfg, std::uint64_t video_id,
    MeanPolicy policy) noexcept
    : model_(&model), cfg_(cfg), video_id_(video_id), policy_(policy) {}

void StreamingAbstractionPipeline::reset_accumulator(
    const FovRecord& rec, const geo::Vec2& heading) {
  open_ = true;
  anchor_ = rec.fov;
  anchor_heading_ = heading;
  t_start_ = rec.t;
  t_end_ = rec.t;
  count_ = 1;
  sum_lat_ = rec.fov.p.lat;
  sum_lng_ = rec.fov.p.lng;
  sum_theta_ = rec.fov.theta_deg;
  sum_heading_ = heading;
}

RepresentativeFov StreamingAbstractionPipeline::emit() {
  RepresentativeFov rep;
  rep.video_id = video_id_;
  rep.segment_id = next_segment_id_++;
  rep.t_start = t_start_;
  rep.t_end = t_end_;
  const auto n = static_cast<double>(count_);
  rep.fov.p.lat = sum_lat_ / n;
  rep.fov.p.lng = sum_lng_ / n;
  rep.fov.theta_deg =
      policy_ == MeanPolicy::kArithmeticPaper
          ? geo::wrap_deg(sum_theta_ / n)
          : geo::resultant_azimuth_deg(sum_heading_.x, sum_heading_.y, n);
  return rep;
}

std::optional<RepresentativeFov> StreamingAbstractionPipeline::push(
    const FovRecord& raw) {
  auto& m = obs::segmentation_metrics();
  m.frames.inc();
  ++frames_seen_;
  // Sensor dropout: repair an invalid reading to the last valid fix
  // (keeping the frame's timestamp, so segment durations stay truthful),
  // or drop it when no fix exists yet.
  FovRecord rec = raw;
  if (valid_fov_record(raw)) {
    last_fix_ = raw.fov;
  } else if (last_fix_) {
    rec.fov = *last_fix_;
    ++frames_held_;
    m.frames_held.inc();
  } else {
    ++frames_dropped_;
    m.frames_dropped.inc();
    return std::nullopt;
  }
  geo::Vec2 heading;
  geo::direction_of_azimuth(rec.fov.theta_deg, heading.x, heading.y);
  if (!open_) {
    reset_accumulator(rec, heading);
    return std::nullopt;
  }
  if (model_->similarity(anchor_, anchor_heading_, rec.fov, heading) <
      cfg_.threshold) {
    const std::size_t closed_frames = count_;
    RepresentativeFov rep = emit();
    reset_accumulator(rec, heading);
    m.splits.inc();
    m.segments.inc();
    m.segment_frames.observe(closed_frames);
    return rep;
  }
  t_end_ = rec.t;
  ++count_;
  sum_lat_ += rec.fov.p.lat;
  sum_lng_ += rec.fov.p.lng;
  sum_theta_ += rec.fov.theta_deg;
  sum_heading_ += heading;
  return std::nullopt;
}

std::optional<RepresentativeFov> StreamingAbstractionPipeline::finish() {
  if (!open_) return std::nullopt;
  open_ = false;
  auto& m = obs::segmentation_metrics();
  m.segments.inc();
  m.segment_frames.observe(count_);
  return emit();
}

}  // namespace svg::core
