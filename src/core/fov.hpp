#pragma once
// The content-free video descriptor. Section II-B defines an FoV as
// f = (p, θ): GPS position plus compass azimuth, with camera constants
// α (half viewing angle) and R (radius of view). A recording session yields
// one timestamped FoV per frame; segmentation collapses runs of similar FoVs
// into a representative FoV plus a time interval — the only thing a client
// ever uploads.

#include <cstdint>

#include "geo/geodesy.hpp"
#include "geo/sector.hpp"

namespace svg::core {

/// Milliseconds since the Unix epoch; sub-second precision is what phone
/// sensor stacks deliver and is ample per the paper's clock-sync discussion.
using TimestampMs = std::int64_t;

/// Fixed per-camera optics: every device model has its own viewing angle
/// 2α; R is the empirical radius of view (Section VII: ~20 m residential,
/// ~100 m highway).
struct CameraIntrinsics {
  double half_angle_deg = 30.0;  ///< α
  double radius_m = 100.0;       ///< R

  [[nodiscard]] constexpr double full_angle_deg() const noexcept {
    return 2.0 * half_angle_deg;
  }
  /// Lateral width of the viewable sector: 2·R·sin α — the translation
  /// distance at which a perpendicular move loses all shared view.
  [[nodiscard]] double lateral_extent_m() const noexcept;
};

/// The descriptor itself — Eq. 1: f = (p, θ).
struct FoV {
  geo::LatLng p;           ///< camera position
  double theta_deg = 0.0;  ///< azimuth of the optical axis, [0, 360)

  constexpr bool operator==(const FoV&) const = default;
};

/// One per video frame: the FoV stamped with capture time.
struct FovRecord {
  TimestampMs t = 0;
  FoV fov;
};

/// What a client uploads per segment (Section IV-B): the averaged FoV plus
/// the segment's time interval. `video_id`/`segment_id` let the server hand
/// back a reference the querier can use to fetch the actual clip.
struct RepresentativeFov {
  std::uint64_t video_id = 0;
  std::uint32_t segment_id = 0;
  FoV fov;
  TimestampMs t_start = 0;
  TimestampMs t_end = 0;

  [[nodiscard]] TimestampMs duration_ms() const noexcept {
    return t_end - t_start;
  }
};

/// The viewable scene of an FoV in a local metric frame — used by the
/// orientation filter and by ground-truth visibility checks.
[[nodiscard]] geo::Sector viewable_scene(const FoV& fov,
                                         const CameraIntrinsics& cam,
                                         const geo::LocalFrame& frame);

/// True when the camera described by (fov, cam) can see the point `target`
/// (geo::SightTest: range and cone tests in the frame centred on `target`).
[[nodiscard]] bool covers_point(const FoV& fov, const CameraIntrinsics& cam,
                                const geo::LatLng& target);

}  // namespace svg::core
