#pragma once
// Real-time video segmentation (Section IV, Algorithm 1) fused with segment
// abstraction (Eq. 11) — the one implementation a phone runs while it
// records.
//
// Algorithm 1 keeps only the anchor FoV f_s of the current segment; every
// incoming frame is compared against it and a new segment starts the moment
// Sim(f_s, f_i) < thresh. That makes the per-frame cost O(1) and the whole
// pass O(n), which is what lets the client segment while recording. The
// pipeline stores no frames: running sums give Eq. 11's means, and each
// frame's unit heading, computed once, serves both the similarity test
// against the anchor and the circular sums.
//
// Two abstraction policies are provided for the orientation average:
// * ArithmeticPaper — Eq. 11 verbatim (mean of raw θ values). Faithful, but
//   wrong across the 0°/360° wrap: a segment oscillating around north
//   averages to ~180° (due south).
// * Circular — unit-vector circular mean; wrap-safe. The default.
// The positional average is the arithmetic mean of lat/lng in both, as in
// the paper (fine at segment scale).

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/fov.hpp"
#include "core/similarity.hpp"
#include "geo/vec2.hpp"

namespace svg::core {

struct SegmenterConfig {
  /// Algorithm 1's `thresh`: a segment splits when similarity to its anchor
  /// drops below this. Section VII sets it empirically; our ablation bench
  /// sweeps it.
  double threshold = 0.5;
};

enum class MeanPolicy {
  kArithmeticPaper,  ///< Eq. 11 exactly as printed
  kCircular,         ///< wrap-safe circular mean of θ (default)
};

/// Sensor sanity check for one captured frame: finite values, latitude in
/// [-90, 90], longitude in [-180, 180], finite compass angle. Phones emit
/// NaN/garbage fixes during GPS dropout or compass calibration; letting
/// one through poisons every running average in the segment it lands in.
[[nodiscard]] bool valid_fov_record(const FovRecord& rec) noexcept;

/// Algorithm 1 + Eq. 11 with O(1) memory. Push frames as they are
/// captured; each segment's representative FoV pops out of the push() of
/// the frame that opens the next segment, and the last one out of
/// finish(). Segment boundaries are therefore exactly the frames whose
/// push() returns a value.
class StreamingAbstractionPipeline {
 public:
  StreamingAbstractionPipeline(const SimilarityModel& model,
                               SegmenterConfig cfg, std::uint64_t video_id,
                               MeanPolicy policy = MeanPolicy::kCircular)
      noexcept;

  /// Feed one frame; returns the representative FoV of the segment this
  /// frame closed, if any (this frame then anchors the next segment).
  /// Invalid sensor readings are repaired to the last valid fix
  /// (hold-last-fix, keeping the frame's own timestamp) or dropped when no
  /// fix exists yet — see valid_fov_record.
  std::optional<RepresentativeFov> push(const FovRecord& rec);

  /// End of recording; emits the final segment's representative. The
  /// pipeline is reusable afterwards; segment ids keep counting.
  std::optional<RepresentativeFov> finish();

  [[nodiscard]] std::size_t frames_seen() const noexcept {
    return frames_seen_;
  }
  [[nodiscard]] std::uint32_t segments_emitted() const noexcept {
    return next_segment_id_;
  }
  [[nodiscard]] std::size_t frames_held() const noexcept {
    return frames_held_;
  }
  [[nodiscard]] std::size_t frames_dropped() const noexcept {
    return frames_dropped_;
  }

 private:
  [[nodiscard]] RepresentativeFov emit();
  void reset_accumulator(const FovRecord& rec, const geo::Vec2& heading);

  const SimilarityModel* model_;
  SegmenterConfig cfg_;
  std::uint64_t video_id_;
  MeanPolicy policy_;

  // Running accumulator for the open segment.
  bool open_ = false;
  FoV anchor_;
  geo::Vec2 anchor_heading_;  ///< direction_of_azimuth(anchor_.theta_deg)
  TimestampMs t_start_ = 0;
  TimestampMs t_end_ = 0;
  std::size_t count_ = 0;
  double sum_lat_ = 0.0;
  double sum_lng_ = 0.0;
  double sum_theta_ = 0.0;  ///< arithmetic-policy accumulator
  geo::Vec2 sum_heading_;   ///< circular-policy accumulator (Σ east, Σ north)

  std::optional<FoV> last_fix_;  ///< newest valid FoV, for hold-last-fix
  std::size_t frames_seen_ = 0;
  std::size_t frames_held_ = 0;
  std::size_t frames_dropped_ = 0;
  std::uint32_t next_segment_id_ = 0;
};

}  // namespace svg::core
