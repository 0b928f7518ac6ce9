#include "index/columnar.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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
}

void FovColumns::push_back(const core::RepresentativeFov& rep) {
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
}

std::size_t scan_range(const FovColumns& cols, std::uint32_t begin,
                       std::uint32_t end, const GeoTimeRange& range,
                       std::vector<std::uint32_t>& out) {
  const double* __restrict lng = cols.lng.data();
  const double* __restrict lat = cols.lat.data();
  const core::TimestampMs* __restrict ts = cols.ts.data();
  const core::TimestampMs* __restrict te = cols.te.data();

  const std::size_t first = out.size();
  out.resize(first + (end - begin));
  std::uint32_t* __restrict dst = out.data();
  std::size_t w = first;
  std::uint32_t i = begin;
#if defined(__SSE2__)
  const __m128d lng_min = _mm_set1_pd(range.lng_min);
  const __m128d lng_max = _mm_set1_pd(range.lng_max);
  const __m128d lat_min = _mm_set1_pd(range.lat_min);
  const __m128d lat_max = _mm_set1_pd(range.lat_max);
  for (; end - i >= 2; i += 2) {
    // Rows i and i + 1 against the rectangle, four compares for both;
    // bit k of `in` is row i + k's spatial hit (false on NaN, as >= and
    // <= are in the scalar loop).
    const __m128d x = _mm_loadu_pd(lng + i);
    const __m128d y = _mm_loadu_pd(lat + i);
    const int in = _mm_movemask_pd(
        _mm_and_pd(_mm_and_pd(_mm_cmpge_pd(x, lng_min),
                              _mm_cmple_pd(x, lng_max)),
                   _mm_and_pd(_mm_cmpge_pd(y, lat_min),
                              _mm_cmple_pd(y, lat_max))));
    // Most pairs of a linear scan miss the rectangle: skip their time
    // columns. A pair that hits appends branch-free.
    if (in == 0) continue;
    dst[w] = i;
    w += static_cast<std::size_t>((in & 1) & (te[i] >= range.t_start) &
                                  (ts[i] <= range.t_end));
    dst[w] = i + 1;
    w += static_cast<std::size_t>((in >> 1) & (te[i + 1] >= range.t_start) &
                                  (ts[i + 1] <= range.t_end));
  }
#endif
  for (; i < end; ++i) {
    // All six comparisons combined with & — one unpredictable branch per
    // row becomes zero: the hit conditionally advances the write cursor.
    const bool hit = (lng[i] >= range.lng_min) & (lng[i] <= range.lng_max) &
                     (lat[i] >= range.lat_min) & (lat[i] <= range.lat_max) &
                     (te[i] >= range.t_start) & (ts[i] <= range.t_end);
    dst[w] = i;
    w += static_cast<std::size_t>(hit);
  }
  out.resize(w);
  return w - first;
}

}  // namespace svg::index
