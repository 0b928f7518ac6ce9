#include "retrieval/top_k.hpp"

#include <algorithm>
#include <cmath>

#include "geo/sector.hpp"

namespace svg::retrieval {

std::vector<RankedResult> search_top_k(const index::FovIndex& index,
                                       const geo::LatLng& center,
                                       core::TimestampMs t_start,
                                       core::TimestampMs t_end,
                                       std::size_t k,
                                       const RetrievalConfig& config) {
  std::vector<RankedResult> out;
  if (k == 0 || index.size() == 0) return out;
  const geo::SightTest sight = config.sight_test(center);
  // sqrt is monotone, so distance_m > reach implies d² > R²: a candidate
  // past `reach` can never be seen (and with the filter off, reach = ∞).
  const double reach = std::sqrt(sight.radius2);

  // Grow the fetch geometrically: most candidates pass the orientation
  // filter when cameras genuinely surround the spot, so 2k is usually
  // enough; pathological corpora (everyone filming away) degrade to a
  // full scan, which is the correct worst case for an exhaustive top-k.
  std::size_t fetch = std::max<std::size_t>(2 * k, 8);
  for (;;) {
    const auto candidates =
        index.nearest_k(center, fetch, t_start, t_end);
    out.clear();
    for (const auto& rep : candidates) {
      const geo::Sight s = sight.of(rep.fov.p, rep.fov.theta_deg);
      // Candidates are distance-ordered in the same frame (nearest_k
      // scales degrees at the query latitude): nothing farther can pass,
      // and no bigger fetch can either.
      if (s.distance_m > reach) return out;
      if (!s.seen) continue;
      out.push_back({rep, s.distance_m,
                     1.0 / (1.0 + s.distance_m / config.camera.radius_m)});
      if (out.size() == k) return out;
    }
    if (candidates.size() < fetch) return out;  // exhausted the index
    fetch *= 2;
  }
}

}  // namespace svg::retrieval
