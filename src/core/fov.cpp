#include "core/fov.hpp"

#include <cmath>

#include "geo/angle.hpp"

namespace svg::core {

double CameraIntrinsics::lateral_extent_m() const noexcept {
  return 2.0 * radius_m * std::sin(geo::deg_to_rad(half_angle_deg));
}

geo::Sector viewable_scene(const FoV& fov, const CameraIntrinsics& cam,
                           const geo::LocalFrame& frame) {
  geo::Sector s;
  s.apex = frame.to_local(fov.p);
  s.azimuth_deg = fov.theta_deg;
  s.half_angle_deg = cam.half_angle_deg;
  s.radius_m = cam.radius_m;
  return s;
}

bool covers_point(const FoV& fov, const CameraIntrinsics& cam,
                  const geo::LatLng& target) {
  return geo::SightTest(target, cam.radius_m, cam.half_angle_deg)
      .of(fov.p, fov.theta_deg)
      .seen;
}

}  // namespace svg::core
