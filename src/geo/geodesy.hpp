#pragma once
// GPS (lat/lng, degrees) <-> local metric transform. Section VI of the paper
// treats the Earth as a sphere of radius 6,378,140 m and maps small
// displacements into the Euclidean plane (Eq. 12). We implement the standard
// equirectangular form — metres-per-degree-longitude scaled by cos(latitude)
// — which is what Eq. 12 intends (its printed cos((Lng2-Lng1)/2) is a typo:
// longitude differences of a few metres make that factor 1 and would leave
// east-west distances unscaled by latitude; see DESIGN.md §5).

#include "geo/vec2.hpp"

namespace svg::geo {

/// Spherical Earth radius used by the paper (metres).
inline constexpr double kEarthRadiusM = 6'378'140.0;

/// Metres spanned by one degree of latitude on the spherical model.
[[nodiscard]] double metres_per_degree_lat() noexcept;

/// Metres spanned by one degree of longitude at the given latitude.
[[nodiscard]] double metres_per_degree_lng(double lat_deg) noexcept;

/// A GPS coordinate in degrees. Latitude in [-90, 90], longitude in
/// [-180, 180). Matches the paper's `p = (lat, lng)`.
struct LatLng {
  double lat = 0.0;
  double lng = 0.0;

  constexpr bool operator==(const LatLng&) const = default;
};

/// Planar displacement (metres east, metres north) from `a` to `b`,
/// evaluated with the longitude scale at the midpoint latitude. Valid for
/// the city-scale distances FoV retrieval works with (error <0.01% under
/// 10 km).
[[nodiscard]] Vec2 displacement_m(const LatLng& a, const LatLng& b) noexcept;

/// Great-circle-free planar distance in metres (norm of displacement_m).
[[nodiscard]] double distance_m(const LatLng& a, const LatLng& b) noexcept;

/// Azimuth (deg clockwise from north) of the displacement from a to b — the
/// paper's translation direction θ_p. Returns 0 when a == b.
[[nodiscard]] double bearing_deg(const LatLng& a, const LatLng& b) noexcept;

/// Move `origin` by (east, north) metres; inverse of displacement_m.
[[nodiscard]] LatLng offset_m(const LatLng& origin, double east_m,
                              double north_m) noexcept;

/// A local tangent-plane frame anchored at `origin`: converts between
/// LatLng and metric Vec2 with the scale factors frozen at the origin.
/// Simulators build trajectories in this frame and emit GPS fixes from it.
class LocalFrame {
 public:
  explicit LocalFrame(const LatLng& origin) noexcept;

  [[nodiscard]] const LatLng& origin() const noexcept { return origin_; }
  [[nodiscard]] Vec2 to_local(const LatLng& p) const noexcept {
    double dlng = p.lng - origin_.lng;
    if (dlng > 180.0) dlng -= 360.0;
    if (dlng < -180.0) dlng += 360.0;
    return {dlng * m_per_deg_lng_, (p.lat - origin_.lat) * m_per_deg_lat_};
  }
  [[nodiscard]] LatLng to_global(const Vec2& v) const noexcept;

 private:
  LatLng origin_;
  double m_per_deg_lat_;
  double m_per_deg_lng_;
};

}  // namespace svg::geo
