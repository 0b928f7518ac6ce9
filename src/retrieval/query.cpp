#include "retrieval/query.hpp"

#include <algorithm>

#include "geo/geodesy.hpp"

namespace svg::retrieval {

index::GeoTimeRange make_search_range(const Query& q) {
  const double half_m = std::max(0.0, q.radius_m);
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

index::GeoTimeRange search_range(const Query& q,
                                 const core::CameraIntrinsics& camera) {
  Query reach = q;
  reach.radius_m = std::max(0.0, q.radius_m) + camera.radius_m;
  return make_search_range(reach);
}

}  // namespace svg::retrieval
