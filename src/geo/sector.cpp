#include "geo/sector.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "geo/angle.hpp"

namespace svg::geo {

bool Sector::covers(const Vec2& p) const noexcept {
  const Vec2 d = p - apex;
  const Vec2 dir = axis();
  return sight(d.x, d.y, dir.x, dir.y, radius_m * radius_m,
               cone_cos(half_angle_deg))
      .seen;
}

double Sector::area() const noexcept {
  return (2.0 * half_angle_deg / 360.0) * std::numbers::pi * radius_m *
         radius_m;
}

Vec2 Sector::axis() const noexcept {
  double e, n;
  direction_of_azimuth(azimuth_deg, e, n);
  return {e, n};
}

Box2 Sector::bounding_box() const noexcept {
  Box2 b = Box2::empty();
  b.expand_point({apex.x, apex.y});
  auto point_at = [&](double az_deg) {
    double e, n;
    direction_of_azimuth(az_deg, e, n);
    return Vec2{apex.x + radius_m * e, apex.y + radius_m * n};
  };
  const Vec2 lo = point_at(azimuth_deg - half_angle_deg);
  const Vec2 hi = point_at(azimuth_deg + half_angle_deg);
  b.expand_point({lo.x, lo.y});
  b.expand_point({hi.x, hi.y});
  // Cardinal directions inside the angular span push the arc past the chord.
  for (double cardinal : {0.0, 90.0, 180.0, 270.0}) {
    if (angular_difference_deg(cardinal, azimuth_deg) <= half_angle_deg) {
      const Vec2 p = point_at(cardinal);
      b.expand_point({p.x, p.y});
    }
  }
  return b;
}

std::vector<Vec2> Sector::polygon(int arc_points) const {
  arc_points = std::max(arc_points, 2);
  std::vector<Vec2> poly;
  poly.reserve(static_cast<std::size_t>(arc_points) + 1);
  poly.push_back(apex);
  const double start = azimuth_deg - half_angle_deg;
  const double span = 2.0 * half_angle_deg;
  for (int i = 0; i < arc_points; ++i) {
    const double az =
        start + span * static_cast<double>(i) / (arc_points - 1);
    double e, n;
    direction_of_azimuth(az, e, n);
    poly.push_back({apex.x + radius_m * e, apex.y + radius_m * n});
  }
  return poly;
}

double sector_overlap_area(const Sector& a, const Sector& b, int resolution) {
  Box2 bb = a.bounding_box();
  const Box2 bbb = b.bounding_box();
  // Only the intersection of the two boxes can contain overlap.
  Box2 roi;
  for (std::size_t d = 0; d < 2; ++d) {
    roi.min[d] = std::max(bb.min[d], bbb.min[d]);
    roi.max[d] = std::min(bb.max[d], bbb.max[d]);
  }
  if (roi.is_empty()) return 0.0;
  const double w = roi.max[0] - roi.min[0];
  const double h = roi.max[1] - roi.min[1];
  if (w <= 0.0 || h <= 0.0) return 0.0;
  resolution = std::max(resolution, 8);
  const double side = std::max(w, h);
  const double cell = side / static_cast<double>(resolution);
  const int nx = std::max(1, static_cast<int>(std::ceil(w / cell)));
  const int ny = std::max(1, static_cast<int>(std::ceil(h / cell)));
  std::size_t hits = 0;
  for (int iy = 0; iy < ny; ++iy) {
    const double y = roi.min[1] + (iy + 0.5) * cell;
    for (int ix = 0; ix < nx; ++ix) {
      const double x = roi.min[0] + (ix + 0.5) * cell;
      const Vec2 p{x, y};
      if (a.covers(p) && b.covers(p)) ++hits;
    }
  }
  return static_cast<double>(hits) * cell * cell;
}

}  // namespace svg::geo
