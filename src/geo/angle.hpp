#pragma once
// Compass-angle arithmetic. Azimuths follow the paper's convention:
// degrees clockwise from north in [0, 360). The circular difference of
// Eq. 2 — min(|θ2-θ1|, 360-|θ2-θ1|) — and circular means for segment
// abstraction live here.

#include <numbers>
#include <span>

namespace svg::geo {

inline constexpr double kDegPerRad = 180.0 / std::numbers::pi;
inline constexpr double kRadPerDeg = std::numbers::pi / 180.0;

[[nodiscard]] constexpr double deg_to_rad(double deg) noexcept {
  return deg * kRadPerDeg;
}
[[nodiscard]] constexpr double rad_to_deg(double rad) noexcept {
  return rad * kDegPerRad;
}

/// Normalize an azimuth (degrees) into [0, 360).
[[nodiscard]] double wrap_deg(double deg) noexcept;

/// Normalize an angle (degrees) into [-180, 180).
[[nodiscard]] double wrap_deg_signed(double deg) noexcept;

/// Circular distance between two azimuths in degrees — Eq. 2's
/// δθ = min(|θ2−θ1|, 360−|θ2−θ1|). Always in [0, 180].
[[nodiscard]] double angular_difference_deg(double a, double b) noexcept;

/// Signed shortest rotation from `from` to `to`, in (-180, 180].
[[nodiscard]] double signed_angular_difference_deg(double from,
                                                   double to) noexcept;

/// Arithmetic mean of azimuths as the paper's Eq. 11 computes it. Breaks at
/// the 0/360 wrap (mean of 359° and 1° comes out 180°); kept for paper
/// fidelity and compared against circular_mean_deg in tests/ablation.
[[nodiscard]] double arithmetic_mean_deg(std::span<const double> deg) noexcept;

/// Proper circular mean via unit-vector averaging; returns wrap-safe azimuth
/// in [0, 360). Returns 0 for an empty span or fully cancelling inputs.
[[nodiscard]] double circular_mean_deg(std::span<const double> deg) noexcept;

/// The circular mean of n azimuths from the sum (sum_east, sum_north) of
/// their unit headings (direction_of_azimuth), in [0, 360). A resultant
/// shorter than ~1e-12 per heading is cancellation dust and yields 0.
[[nodiscard]] double resultant_azimuth_deg(double sum_east, double sum_north,
                                           double n) noexcept;

/// Azimuth (deg, clockwise from north) of the direction vector (east, north).
/// Returns 0 for the zero vector.
[[nodiscard]] double azimuth_of_direction(double east, double north) noexcept;

/// Unit direction vector (east, north components) of an azimuth in degrees.
void direction_of_azimuth(double azimuth_deg, double& east,
                          double& north) noexcept;

}  // namespace svg::geo
