#pragma once
// Circular-sector geometry. An FoV's viewable scene is the conical (in 2-D:
// sector) region with the camera at the apex, aimed along the azimuth, with
// half-angle α and radius-of-view R (Section II-B). The retrieval stage's
// orientation filter ("does this camera actually face the query point?") and
// the ground-truth visibility oracle both reduce to one cone test, sight(),
// written once below.

#include <cmath>
#include <limits>
#include <vector>

#include "geo/angle.hpp"
#include "geo/bbox.hpp"
#include "geo/geodesy.hpp"
#include "geo/vec2.hpp"

namespace svg::geo {

/// Outcome of the cone test: whether the camera sees the target, and the
/// camera-to-target distance in metres (computed either way).
struct Sight {
  bool seen = false;
  double distance_m = 0.0;
};

/// The Section V-B orientation predicate, written once: does a camera with
/// unit heading (dir_east, dir_north) = direction_of_azimuth(θ) see a
/// target displaced (east_m, north_m) metres from it? Yes when d² ≤ radius2
/// and cos(bearing − θ) = dot/d ≥ cos_limit (a dot product, no atan2), or
/// when d = 0. radius2 = +∞ drops the radius cut; cos_limit = −∞ admits
/// every heading.
[[nodiscard]] inline Sight sight(double east_m, double north_m,
                                 double dir_east, double dir_north,
                                 double radius2, double cos_limit) noexcept {
  const double d2 = east_m * east_m + north_m * north_m;
  const double d = std::sqrt(d2);
  const double dot = east_m * dir_east + north_m * dir_north;
  return {d2 <= radius2 && (d2 == 0.0 || dot >= d * cos_limit), d};
}

/// cos_limit for a half-angle limit in degrees: −∞ at or past 180°, where
/// every heading passes (cos 190° > −1 would reject a camera facing away),
/// and +∞ below 0°, where none does.
[[nodiscard]] inline double cone_cos(double limit_deg) noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (limit_deg >= 180.0) return -kInf;
  if (limit_deg < 0.0) return kInf;
  return std::cos(deg_to_rad(limit_deg));
}

/// The query side of sight(): one target, R² and the cone's cos_limit, and
/// the LocalFrame centred on the target (degrees scale to metres at its
/// latitude) in which every camera's displacement is taken.
struct SightTest {
  LocalFrame frame;
  double radius2 = 0.0;
  double cos_limit = 0.0;

  /// Cameras within `radius_m` (+∞: any distance) whose heading is within
  /// `limit_deg` of the bearing to `target` (≥ 180°: any heading).
  SightTest(const LatLng& target, double radius_m, double limit_deg) noexcept
      : frame(target),
        radius2(radius_m * radius_m),
        cos_limit(cone_cos(limit_deg)) {}

  /// The test for a camera with unit heading (dir_east, dir_north).
  [[nodiscard]] Sight of(const LatLng& camera, double dir_east,
                         double dir_north) const noexcept {
    const Vec2 to_target = -frame.to_local(camera);
    return sight(to_target.x, to_target.y, dir_east, dir_north, radius2,
                 cos_limit);
  }

  /// The same with the heading as an azimuth θ: direction_of_azimuth(θ) is
  /// what index::FovColumns stores, so both forms give identical bits.
  [[nodiscard]] Sight of(const LatLng& camera,
                         double azimuth_deg) const noexcept {
    double e = 0.0;
    double n = 0.0;
    direction_of_azimuth(azimuth_deg, e, n);
    return of(camera, e, n);
  }
};

struct Sector {
  Vec2 apex;                 ///< camera position (local metres)
  double azimuth_deg = 0.0;  ///< viewing direction, deg clockwise from north
  double half_angle_deg = 30.0;  ///< α; full viewing angle is 2α
  double radius_m = 100.0;       ///< radius of view R

  /// True when `p` lies inside the sector (inclusive boundary).
  [[nodiscard]] bool covers(const Vec2& p) const noexcept;

  /// Area of the sector: (2α/360)·πR².
  [[nodiscard]] double area() const noexcept;

  /// Tight axis-aligned bounding box (apex, the two arc endpoints, and any
  /// cardinal compass direction falling inside the angular span).
  [[nodiscard]] Box2 bounding_box() const noexcept;

  /// Polygonal approximation: apex plus `arc_points` samples along the arc
  /// (CCW in the x/y plane). arc_points >= 2.
  [[nodiscard]] std::vector<Vec2> polygon(int arc_points = 16) const;

  /// Unit direction vector of the viewing axis.
  [[nodiscard]] Vec2 axis() const noexcept;
};

/// Area of the intersection of two sectors, estimated on a regular grid with
/// `resolution` cells across the joint bounding box's larger side. Exact
/// enough (<1% at resolution 512) to serve as the ground-truth overlap the
/// closed-form similarity model approximates.
[[nodiscard]] double sector_overlap_area(const Sector& a, const Sector& b,
                                         int resolution = 256);

}  // namespace svg::geo
