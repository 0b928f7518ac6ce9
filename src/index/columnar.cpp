#include "index/columnar.hpp"

#include "geo/angle.hpp"

namespace svg::index {

void FovColumns::reserve(std::size_t n) {
  lng.reserve(n);
  lat.reserve(n);
  theta.reserve(n);
  dir_east.reserve(n);
  dir_north.reserve(n);
  ts.reserve(n);
  te.reserve(n);
  video_id.reserve(n);
  segment_id.reserve(n);
  handle.reserve(n);
}

void FovColumns::clear() {
  lng.clear();
  lat.clear();
  theta.clear();
  dir_east.clear();
  dir_north.clear();
  ts.clear();
  te.clear();
  video_id.clear();
  segment_id.clear();
  handle.clear();
}

void FovColumns::push_back(const core::RepresentativeFov& rep, FovHandle h) {
  lng.push_back(rep.fov.p.lng);
  lat.push_back(rep.fov.p.lat);
  theta.push_back(rep.fov.theta_deg);
  double e = 0.0;
  double n = 0.0;
  geo::direction_of_azimuth(rep.fov.theta_deg, e, n);
  dir_east.push_back(e);
  dir_north.push_back(n);
  ts.push_back(rep.t_start);
  te.push_back(rep.t_end);
  video_id.push_back(rep.video_id);
  segment_id.push_back(rep.segment_id);
  handle.push_back(h);
}

std::size_t scan_range(const FovColumns& cols, std::uint32_t begin,
                       std::uint32_t end, const GeoTimeRange& range,
                       std::vector<std::uint32_t>& out) {
  const double* __restrict lng = cols.lng.data();
  const double* __restrict lat = cols.lat.data();
  const core::TimestampMs* __restrict ts = cols.ts.data();
  const core::TimestampMs* __restrict te = cols.te.data();

  std::size_t w = out.size();
  out.resize(w + (end - begin));
  std::uint32_t* __restrict dst = out.data();
  for (std::uint32_t i = begin; i < end; ++i) {
    // All six comparisons combined with & — one unpredictable branch per
    // row becomes zero: the hit conditionally advances the write cursor.
    const bool hit = (lng[i] >= range.lng_min) & (lng[i] <= range.lng_max) &
                     (lat[i] >= range.lat_min) & (lat[i] <= range.lat_max) &
                     (te[i] >= range.t_start) & (ts[i] <= range.t_end);
    dst[w] = i;
    w += static_cast<std::size_t>(hit);
  }
  const std::size_t appended = w - (out.size() - (end - begin));
  out.resize(w);
  return appended;
}

}  // namespace svg::index
