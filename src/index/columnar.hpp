#pragma once
// Structure-of-arrays storage for representative FoVs plus the tight
// branch-minimal range-scan kernel that runs over it. Immutable sealed runs
// (tiered_fov_index.hpp) lay their rows out in STR leaf order inside these
// columns, so the range test — and the orientation test on the rows it
// returns (sight_at) — read contiguous doubles instead of pointer-chasing
// AoS R-tree entries. The index is insert-only, so a row is its 68 bytes
// of FoV fields and nothing else: no per-row handle, no liveness flag.
//
// scan_range compares the lng/lat of two rows at once (one SSE2
// _mm_cmpge_pd/_mm_cmple_pd per bound, folded by _mm_movemask_pd), reads
// the time columns only for a pair with a spatial hit, and appends hits
// with a branch-free "store then advance by hit" idiom. A scalar loop
// takes the odd tail, and every row on targets without SSE2
// (bench_micro_kernels gates the resulting throughput against the scalar
// AoS path).

#include <cstdint>
#include <vector>

#include "core/fov.hpp"
#include "index/fov_index.hpp"

namespace svg::index {

/// Column arena: one contiguous array per field. Row i across all columns
/// is one representative FoV; rows are only ever appended.
struct FovColumns {
  std::vector<double> lng;
  std::vector<double> lat;
  std::vector<double> theta;
  /// Unit heading (east, north) of θ — geo::direction_of_azimuth — stored
  /// at insert so the orientation test needs no per-row sin/cos.
  std::vector<double> dir_east;
  std::vector<double> dir_north;
  std::vector<core::TimestampMs> ts;
  std::vector<core::TimestampMs> te;
  std::vector<std::uint64_t> video_id;
  std::vector<std::uint32_t> segment_id;

  [[nodiscard]] std::size_t size() const noexcept { return lng.size(); }
  [[nodiscard]] bool empty() const noexcept { return lng.empty(); }

  void reserve(std::size_t n);
  void push_back(const core::RepresentativeFov& rep);

  [[nodiscard]] core::RepresentativeFov rep_at(std::size_t i) const {
    core::RepresentativeFov r;
    r.video_id = video_id[i];
    r.segment_id = segment_id[i];
    r.fov.p = {lat[i], lng[i]};
    r.fov.theta_deg = theta[i];
    r.t_start = ts[i];
    r.t_end = te[i];
    return r;
  }

  /// The orientation test for row i's camera, off the position and heading
  /// columns; bit-identical to test.of(rep_at(i).fov.p, theta[i]).
  [[nodiscard]] geo::Sight sight_at(std::size_t i,
                                    const geo::SightTest& test) const {
    return test.of({lat[i], lng[i]}, dir_east[i], dir_north[i]);
  }
};

/// Append to `out` the row ids in [begin, end) whose position lies inside
/// the range's rectangle and whose [ts, te] interval overlaps its time
/// window — exactly LinearIndex::query's per-entry test — in ascending
/// order. Returns the number of rows appended.
std::size_t scan_range(const FovColumns& cols, std::uint32_t begin,
                       std::uint32_t end, const GeoTimeRange& range,
                       std::vector<std::uint32_t>& out);

}  // namespace svg::index
