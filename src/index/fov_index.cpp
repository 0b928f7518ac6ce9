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

FovHandle FovIndex::insert(const core::RepresentativeFov& rep) {
  const auto handle = static_cast<FovHandle>(slots_.size());
  slots_.push_back(rep);
  alive_.push_back(true);
  tree_.insert(to_box(rep), handle);
  ++live_;
  return handle;
}

bool FovIndex::erase(FovHandle handle) {
  if (handle >= slots_.size() || !alive_[handle]) return false;
  const bool removed = tree_.erase(to_box(slots_[handle]), handle);
  if (removed) {
    alive_[handle] = false;
    --live_;
  }
  return removed;
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
  std::vector<core::RepresentativeFov> out;
  out.reserve(live_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (alive_[i]) out.push_back(slots_[i]);
  }
  return out;
}

FovIndex FovIndex::bulk_load(const std::vector<core::RepresentativeFov>& reps,
                             FovIndexOptions options) {
  FovIndex idx(options);
  std::vector<RTree<FovHandle, 3>::Entry> entries;
  entries.reserve(reps.size());
  for (const auto& rep : reps) {
    const auto handle = static_cast<FovHandle>(idx.slots_.size());
    idx.slots_.push_back(rep);
    idx.alive_.push_back(true);
    entries.push_back({idx.to_box(rep), handle});
  }
  idx.live_ = reps.size();
  idx.tree_ = RTree<FovHandle, 3>::bulk_load(std::move(entries),
                                             options.rtree);
  return idx;
}

FovHandle LinearIndex::insert(const core::RepresentativeFov& rep) {
  const auto handle = static_cast<FovHandle>(slots_.size());
  slots_.push_back(rep);
  alive_.push_back(true);
  ++live_;
  return handle;
}

bool LinearIndex::erase(FovHandle handle) {
  if (handle >= slots_.size() || !alive_[handle]) return false;
  alive_[handle] = false;
  --live_;
  return true;
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
