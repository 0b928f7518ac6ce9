#include "geo/angle.hpp"

#include <cmath>

namespace svg::geo {

double wrap_deg(double deg) noexcept {
  double w = std::fmod(deg, 360.0);
  if (w < 0.0) w += 360.0;
  return w;
}

double wrap_deg_signed(double deg) noexcept {
  double w = std::fmod(deg + 180.0, 360.0);
  if (w < 0.0) w += 360.0;
  return w - 180.0;
}

double angular_difference_deg(double a, double b) noexcept {
  const double d = std::fabs(wrap_deg(a) - wrap_deg(b));
  return d > 180.0 ? 360.0 - d : d;
}

double signed_angular_difference_deg(double from, double to) noexcept {
  double d = wrap_deg(to) - wrap_deg(from);
  if (d > 180.0) d -= 360.0;
  if (d <= -180.0) d += 360.0;
  return d;
}

double arithmetic_mean_deg(std::span<const double> deg) noexcept {
  if (deg.empty()) return 0.0;
  double s = 0.0;
  for (double d : deg) s += d;
  return s / static_cast<double>(deg.size());
}

double circular_mean_deg(std::span<const double> deg) noexcept {
  if (deg.empty()) return 0.0;
  double sx = 0.0, sy = 0.0;
  for (double d : deg) {
    const double r = deg_to_rad(d);
    // Compass convention: x = sin (east), y = cos (north).
    sx += std::sin(r);
    sy += std::cos(r);
  }
  return resultant_azimuth_deg(sx, sy, static_cast<double>(deg.size()));
}

double resultant_azimuth_deg(double sum_east, double sum_north,
                             double n) noexcept {
  // Fully cancelling inputs leave only floating-point dust; treat a
  // resultant shorter than ~1e-12 per sample as undefined → 0.
  if (sum_east * sum_east + sum_north * sum_north < 1e-24 * n * n) {
    return 0.0;
  }
  return wrap_deg(rad_to_deg(std::atan2(sum_east, sum_north)));
}

double azimuth_of_direction(double east, double north) noexcept {
  if (east == 0.0 && north == 0.0) return 0.0;
  return wrap_deg(rad_to_deg(std::atan2(east, north)));
}

void direction_of_azimuth(double azimuth_deg, double& east,
                          double& north) noexcept {
  const double r = deg_to_rad(azimuth_deg);
  east = std::sin(r);
  north = std::cos(r);
}

}  // namespace svg::geo
