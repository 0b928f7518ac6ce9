#include "index/fov_index.hpp"

namespace svg::index {

FovIndex::FovIndex(FovIndexOptions options)
    : options_(options), tree_(options.rtree) {}

geo::Box3 FovIndex::to_box(const core::RepresentativeFov& rep) const {
  geo::Box3 b;
  b.min = {rep.fov.p.lng, rep.fov.p.lat,
           static_cast<double>(rep.t_start) * options_.ms_to_units};
  b.max = {rep.fov.p.lng, rep.fov.p.lat,
           static_cast<double>(rep.t_end) * options_.ms_to_units};
  return b;
}

geo::Box3 FovIndex::to_box(const GeoTimeRange& range) const {
  geo::Box3 b;
  b.min = {range.lng_min, range.lat_min,
           static_cast<double>(range.t_start) * options_.ms_to_units};
  b.max = {range.lng_max, range.lat_max,
           static_cast<double>(range.t_end) * options_.ms_to_units};
  return b;
}

void FovIndex::insert(const core::RepresentativeFov& rep) {
  tree_.insert(to_box(rep), static_cast<std::uint32_t>(slots_.size()));
  slots_.push_back(rep);
}

std::vector<core::RepresentativeFov> FovIndex::query_collect(
    const GeoTimeRange& range) const {
  std::vector<core::RepresentativeFov> out;
  query(range, [&](const core::RepresentativeFov& rep) {
    out.push_back(rep);
  });
  return out;
}

std::vector<core::RepresentativeFov> FovIndex::snapshot() const {
  return {slots_.begin(), slots_.end()};
}

FovIndex FovIndex::bulk_load(const std::vector<core::RepresentativeFov>& reps,
                             FovIndexOptions options) {
  FovIndex idx(options);
  std::vector<RTree<std::uint32_t, 3>::Entry> entries;
  entries.reserve(reps.size());
  for (const auto& rep : reps) {
    entries.push_back(
        {idx.to_box(rep), static_cast<std::uint32_t>(idx.slots_.size())});
    idx.slots_.push_back(rep);
  }
  idx.tree_ = RTree<std::uint32_t, 3>::bulk_load(std::move(entries),
                                                 options.rtree);
  return idx;
}

std::vector<core::RepresentativeFov> LinearIndex::query_collect(
    const GeoTimeRange& range) const {
  std::vector<core::RepresentativeFov> out;
  query(range, [&](const core::RepresentativeFov& rep) {
    out.push_back(rep);
  });
  return out;
}

}  // namespace svg::index
