#pragma once
// Query types for rank-based retrieval (Section V-B). An inquirer asks
// Q = (ts, te, p̂, r̂). The answer is every stored segment whose camera sees
// p̂ — p̂ lies within the radius of view R and within α (+ slack) of the
// camera's heading (geo::sight) — at some moment in [ts, te], ranked by
// camera-to-p̂ distance. r̂ only scales each hit's relevance and sizes the
// box of the filter-off ablation; it never changes which cameras see p̂.
//
// RetrievalConfig turns a query into the two things every search runs:
// the cone test (sight_test) and the search box (search_range) that
// reaches exactly as far as the test.

#include <limits>
#include <vector>

#include "core/fov.hpp"
#include "geo/sector.hpp"
#include "index/fov_index.hpp"

namespace svg::retrieval {

/// Q = (ts, te, p̂, r̂): which segments' cameras see p̂ during [ts, te].
struct Query {
  core::TimestampMs t_start = 0;
  core::TimestampMs t_end = 0;
  geo::LatLng center;      ///< p̂
  /// r̂: the relevance scale (a hit at distance d scores
  /// 1 / (1 + d / max(r̂, 1 m))) and, with the orientation filter off, the
  /// query circle the box widens by R. Section V-B reads r̂ as the
  /// inquirer's radius of view (20 m residential, 100 m highway); adopting
  /// that reading would change the cone test, the box and the ground truth
  /// together.
  double radius_m = 50.0;
};

/// One ranked hit: the stored representative FoV, its camera-to-query-centre
/// distance (the paper's rank key — closer cameras are less likely to be
/// occluded), and a normalized relevance in (0, 1].
struct RankedResult {
  core::RepresentativeFov rep;
  double distance_m = 0.0;
  double relevance = 0.0;
};

struct RetrievalConfig {
  core::CameraIntrinsics camera{};
  /// Extra angular tolerance (degrees) on the sector-coverage test; absorbs
  /// compass noise in the stored θ̄.
  double orientation_slack_deg = 5.0;
  /// Disable to measure how much the direction filter contributes
  /// (ablation).
  bool orientation_filter = true;
  std::size_t top_n = 10;

  /// The orientation test toward `target`: within R and α + slack of the
  /// camera's heading. With the filter off, any distance and heading: the
  /// ablation is an input value of the one test, not a second code path.
  [[nodiscard]] geo::SightTest sight_test(
      const geo::LatLng& target) const noexcept {
    return orientation_filter
               ? geo::SightTest(target, camera.radius_m,
                                camera.half_angle_deg + orientation_slack_deg)
               : geo::SightTest(target,
                                std::numeric_limits<double>::infinity(), 180.0);
  }

  /// The search box of every search — each node engine's range stage and
  /// the router's partition pruning: [ts, te] on the time axis and a
  /// half-width in metres around p̂, converted to degrees at p̂'s latitude.
  /// With the filter on, the half-width is R plus a fixed rounding margin
  /// at every r̂, so the box holds every camera sight_test(p̂) admits and
  /// little else. With it off, the box is the result: r̂ + R (r̂ < 0
  /// counts as 0).
  [[nodiscard]] index::GeoTimeRange search_range(const Query& q) const noexcept;
};

}  // namespace svg::retrieval
