#include "retrieval/query.hpp"

#include <algorithm>

#include "geo/geodesy.hpp"

namespace svg::retrieval {

index::GeoTimeRange RetrievalConfig::search_range(
    const Query& q) const noexcept {
  // The cone test measures d ≤ R in metres on p̂'s LocalFrame; the box is
  // in degrees. Converting R to degrees here and the camera's offset to
  // metres there rounds both ways, so a camera the test admits at d = R
  // can sit one ulp outside a box of half-width exactly R. One degree ulp
  // is a few nanometres on the ground and the relative rounding a few
  // parts in 10¹⁶, so the margin R·10⁻⁹ + 1 µm covers both hundreds of
  // times over, at every r̂: a fixed margin, not a tuning knob.
  const double half_m = orientation_filter
                            ? camera.radius_m * (1.0 + 1e-9) + 1e-6
                            : std::max(0.0, q.radius_m) + camera.radius_m;
  const double dlat = half_m / geo::metres_per_degree_lat();
  const double dlng = half_m / geo::metres_per_degree_lng(q.center.lat);
  index::GeoTimeRange range;
  range.lng_min = q.center.lng - dlng;
  range.lng_max = q.center.lng + dlng;
  range.lat_min = q.center.lat - dlat;
  range.lat_max = q.center.lat + dlat;
  range.t_start = q.t_start;
  range.t_end = q.t_end;
  return range;
}

}  // namespace svg::retrieval
