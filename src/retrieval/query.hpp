#pragma once
// Query types for rank-based retrieval (Section V-B). An inquirer asks
// Q = (ts, te, p̂, r̂): all video segments that cover the circle of radius r̂
// around p̂ at some moment in [ts, te]. The server widens r̂ by the radius of
// view R, converts it to longitude/latitude scales at p̂ and searches the
// index with the resulting box (search_range).

#include <vector>

#include "core/fov.hpp"
#include "index/fov_index.hpp"

namespace svg::retrieval {

struct Query {
  core::TimestampMs t_start = 0;
  core::TimestampMs t_end = 0;
  geo::LatLng center;      ///< p̂
  double radius_m = 50.0;  ///< r̂ — empirical radius of view (20 m residential,
                           ///< 100 m highway per Section V-B)
};

/// One ranked hit: the stored representative FoV, its camera-to-query-centre
/// distance (the paper's rank key — closer cameras are less likely to be
/// occluded), and a normalized relevance in (0, 1].
struct RankedResult {
  core::RepresentativeFov rep;
  double distance_m = 0.0;
  double relevance = 0.0;
};

/// The rectangle of the query circle itself: p̂ ± r̂ (r̂ < 0 counts as 0)
/// converted to degrees at p̂'s latitude, and [ts, te] on the time axis.
[[nodiscard]] index::GeoTimeRange make_search_range(const Query& q);

/// The search rectangle R̂ of every search (the engine's range stage and the
/// router's partition pruning): half-width r̂ + R, so every camera within
/// its radius of view R of the circle — of the point, when r̂ = 0 — is a
/// candidate.
[[nodiscard]] index::GeoTimeRange search_range(
    const Query& q, const core::CameraIntrinsics& camera);

}  // namespace svg::retrieval
