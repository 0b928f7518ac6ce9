#include "geo/geodesy.hpp"

#include <cmath>
#include <numbers>

#include "geo/angle.hpp"

namespace svg::geo {

double metres_per_degree_lat() noexcept {
  return 2.0 * std::numbers::pi * kEarthRadiusM / 360.0;
}

double metres_per_degree_lng(double lat_deg) noexcept {
  return metres_per_degree_lat() * std::cos(deg_to_rad(lat_deg));
}

Vec2 displacement_m(const LatLng& a, const LatLng& b) noexcept {
  const double mid_lat = 0.5 * (a.lat + b.lat);
  double dlng = b.lng - a.lng;
  // Take the short way around the antimeridian.
  if (dlng > 180.0) dlng -= 360.0;
  if (dlng < -180.0) dlng += 360.0;
  return {dlng * metres_per_degree_lng(mid_lat),
          (b.lat - a.lat) * metres_per_degree_lat()};
}

double distance_m(const LatLng& a, const LatLng& b) noexcept {
  return displacement_m(a, b).norm();
}

double bearing_deg(const LatLng& a, const LatLng& b) noexcept {
  const Vec2 d = displacement_m(a, b);
  return azimuth_of_direction(d.x, d.y);
}

LatLng offset_m(const LatLng& origin, double east_m, double north_m) noexcept {
  LatLng out;
  out.lat = origin.lat + north_m / metres_per_degree_lat();
  out.lng = origin.lng + east_m / metres_per_degree_lng(origin.lat);
  if (out.lng >= 180.0) out.lng -= 360.0;
  if (out.lng < -180.0) out.lng += 360.0;
  return out;
}

LocalFrame::LocalFrame(const LatLng& origin) noexcept
    : origin_(origin),
      m_per_deg_lat_(metres_per_degree_lat()),
      m_per_deg_lng_(metres_per_degree_lng(origin.lat)) {}

LatLng LocalFrame::to_global(const Vec2& v) const noexcept {
  LatLng out;
  out.lat = origin_.lat + v.y / m_per_deg_lat_;
  out.lng = origin_.lng + v.x / m_per_deg_lng_;
  if (out.lng >= 180.0) out.lng -= 360.0;
  if (out.lng < -180.0) out.lng += 360.0;
  return out;
}

}  // namespace svg::geo
