#pragma once
// The FoV index of Section V-A: each representative FoV f_r = (p̄, θ̄) with
// interval [ts, te] becomes the degenerate 3-D rectangle
// min = [lng, lat, ts], max = [lng, lat, te] in an R-tree — the paper's
// index of Fig. 6(b)/(c). A linear-scan baseline with the same range query
// backs the Fig. 6(c) comparison. Both are insert-only, like the paper's
// server, which only ever adds FoVs. Neither is synchronized: the server
// serves concurrent queriers from the tiered index (tiered_fov_index.hpp),
// which the tests and the end-to-end benchmark check against FovIndex as
// the oracle. Every query runs through retrieval::RetrievalEngine.

#include <cstdint>
#include <deque>
#include <vector>

#include "core/fov.hpp"
#include "index/rtree.hpp"

namespace svg::index {

/// A spatio-temporal range in natural units: degrees and epoch-milliseconds.
/// This is the search rectangle R̂ the server builds from a query.
struct GeoTimeRange {
  double lng_min = 0.0, lng_max = 0.0;
  double lat_min = 0.0, lat_max = 0.0;
  core::TimestampMs t_start = 0, t_end = 0;
};

struct FovIndexOptions {
  RTreeOptions rtree{};
  /// The R-tree's split heuristics compare volumes across dimensions, so
  /// the time axis is rescaled to commensurate units: with the default,
  /// one day ≈ 0.05° ≈ one city diameter. Purely internal; all public
  /// APIs speak epoch-milliseconds.
  double ms_to_units = 0.05 / 86'400'000.0;
};

/// R-tree backed spatio-temporal index over representative FoVs.
class FovIndex {
 public:
  explicit FovIndex(FovIndexOptions options = {});

  /// Insert a representative FoV; O(log n).
  void insert(const core::RepresentativeFov& rep);

  /// Visit every stored FoV whose rectangle intersects the range. The
  /// visitor is a template parameter so the R-tree descent inlines the
  /// per-candidate call — no type erasure on the hot path.
  template <typename F>
  void query(const GeoTimeRange& range, F&& visit) const {
    tree_.query(to_box(range), [&](const geo::Box3&, std::uint32_t slot) {
      visit(slots_[slot]);
    });
  }

  /// Convenience: collect matches.
  [[nodiscard]] std::vector<core::RepresentativeFov> query_collect(
      const GeoTimeRange& range) const;

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] RTreeStats stats() const { return tree_.stats(); }
  void check_invariants() const { tree_.check_invariants(); }

  /// Every entry, in insertion order — for snapshots and rebuilds.
  [[nodiscard]] std::vector<core::RepresentativeFov> snapshot() const;

  /// Offline construction via STR packing (ablation vs dynamic insert).
  static FovIndex bulk_load(const std::vector<core::RepresentativeFov>& reps,
                            FovIndexOptions options = {});

 private:
  [[nodiscard]] geo::Box3 to_box(const core::RepresentativeFov& rep) const;
  [[nodiscard]] geo::Box3 to_box(const GeoTimeRange& range) const;

  FovIndexOptions options_;
  /// Tree values are slot numbers: insertion order, from 0.
  RTree<std::uint32_t, 3> tree_;
  std::deque<core::RepresentativeFov> slots_;  // stable storage
};

/// Brute-force baseline: the same range query in O(n) — the "naive
/// linear search" the paper compares against in Fig. 6(c).
class LinearIndex {
 public:
  void insert(const core::RepresentativeFov& rep) { slots_.push_back(rep); }
  template <typename F>
  void query(const GeoTimeRange& range, F&& visit) const {
    for (const auto& rep : slots_) {
      if (rep.fov.p.lng < range.lng_min || rep.fov.p.lng > range.lng_max ||
          rep.fov.p.lat < range.lat_min || rep.fov.p.lat > range.lat_max) {
        continue;
      }
      if (rep.t_end < range.t_start || rep.t_start > range.t_end) continue;
      visit(rep);
    }
  }
  [[nodiscard]] std::vector<core::RepresentativeFov> query_collect(
      const GeoTimeRange& range) const;
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

 private:
  std::deque<core::RepresentativeFov> slots_;
};

}  // namespace svg::index
