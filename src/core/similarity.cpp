#include "core/similarity.hpp"

#include <algorithm>
#include <cmath>

#include "geo/angle.hpp"

namespace svg::core {

SimilarityModel::SimilarityModel(CameraIntrinsics cam) noexcept
    : cam_(cam),
      alpha_rad_(geo::deg_to_rad(cam.half_angle_deg)),
      sin_alpha_(std::sin(alpha_rad_)),
      cos_alpha_(std::cos(alpha_rad_)),
      lateral_m_(cam.lateral_extent_m()) {}

double SimilarityModel::rotation_folded(double delta_deg) const noexcept {
  const double full = cam_.full_angle_deg();
  if (delta_deg >= full) return 0.0;
  return (full - delta_deg) / full;
}

double SimilarityModel::sim_rotation(double delta_theta_deg) const noexcept {
  return rotation_folded(geo::angular_difference_deg(delta_theta_deg, 0.0));
}

double SimilarityModel::phi_parallel_deg(double d) const noexcept {
  d = std::max(d, 0.0);
  const double R = cam_.radius_m;
  return geo::rad_to_deg(
      std::atan2(R * sin_alpha_, d + R * cos_alpha_));
}

double SimilarityModel::sim_parallel(double d) const noexcept {
  return phi_parallel_deg(d) / cam_.half_angle_deg;
}

double SimilarityModel::sim_perpendicular(double d) const noexcept {
  d = std::max(d, 0.0);
  if (d >= lateral_m_) return 0.0;
  const double chord_fraction = 1.0 - d / lateral_m_;
  return sim_parallel(d) * chord_fraction;
}

double SimilarityModel::translation_folded(double d,
                                           double rel_dir_deg) const noexcept {
  // Fold the direction into [0, 90]: forward/backward are the axial case,
  // left/right the lateral one (Eq. 9 is stated for θ_p ∈ [0°, 90°]).
  const double e = rel_dir_deg > 90.0 ? 180.0 - rel_dir_deg : rel_dir_deg;
  const double w = e / 90.0;
  const double parallel = sim_parallel(d);
  const double perpendicular =
      d >= lateral_m_ ? 0.0 : parallel * (1.0 - d / lateral_m_);
  return (1.0 - w) * parallel + w * perpendicular;
}

double SimilarityModel::sim_translation(double d,
                                        double rel_dir_deg) const noexcept {
  if (d <= 0.0) return 1.0;
  return translation_folded(d, geo::angular_difference_deg(rel_dir_deg, 0.0));
}

double SimilarityModel::similarity(const FoV& f1,
                                   const FoV& f2) const noexcept {
  geo::Vec2 h1;
  geo::Vec2 h2;
  geo::direction_of_azimuth(f1.theta_deg, h1.x, h1.y);
  geo::direction_of_azimuth(f2.theta_deg, h2.x, h2.y);
  return similarity(f1, h1, f2, h2);
}

double SimilarityModel::similarity(const FoV& f1, const geo::Vec2& heading1,
                                   const FoV& f2,
                                   const geo::Vec2& heading2) const noexcept {
  const double sr =
      rotation_folded(geo::angular_difference_deg(f1.theta_deg, f2.theta_deg));
  if (sr == 0.0) return 0.0;
  const geo::Vec2 disp = geo::displacement_m(f1.p, f2.p);
  const double d = disp.norm();
  if (d <= 0.0) return sr;
  // Reference axis for θ_p: the mean heading, so the decomposition treats
  // f1 and f2 symmetrically.
  const double axis = geo::resultant_azimuth_deg(
      heading1.x + heading2.x, heading1.y + heading2.y, 2.0);
  const double bearing = geo::azimuth_of_direction(disp.x, disp.y);
  return sr * translation_folded(d, geo::angular_difference_deg(bearing, axis));
}

double SimilarityModel::exact_overlap_similarity(const FoV& f1, const FoV& f2,
                                                 int resolution) const {
  const geo::LocalFrame frame(f1.p);
  const geo::Sector s1 = viewable_scene(f1, cam_, frame);
  const geo::Sector s2 = viewable_scene(f2, cam_, frame);
  const double overlap = geo::sector_overlap_area(s1, s2, resolution);
  const double base = s1.area();
  return base > 0.0 ? std::clamp(overlap / base, 0.0, 1.0) : 0.0;
}

}  // namespace svg::core
