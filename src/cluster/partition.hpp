#pragma once
// Geo-cell partitioning for the multi-node cluster (docs/CLUSTER.md). A
// fixed raster of cells_per_side² equal cells over the deployment area
// assigns every FoV position to a cell (cell_of); a splitmix-constant hash
// of the cell id assigns every cell to one of N partitions. The layout is
// a pure function of PartitionConfig, so any restart — or any other
// process handed the same config — computes the identical assignment;
// nothing about the mapping is ever persisted.
//
// Partitions are the stable unit of ownership: the RoutingTable maps each
// partition to the node currently *serving* it, and only that indirection
// changes on failover (partition→cell geometry never moves).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/bbox.hpp"
#include "index/fov_index.hpp"

namespace svg::cluster {

/// The deployment raster + partition count. `salt` perturbs the
/// cell→partition hash so two overlapping deployments can interleave
/// differently; identical configs always produce identical layouts.
struct PartitionConfig {
  geo::Box2 bounds;  ///< deployment area in (lng, lat) degrees
  std::size_t cells_per_side = 16;
  std::size_t partitions = 1;
  std::uint64_t salt = 0;

  bool operator==(const PartitionConfig&) const = default;
};

class GeoPartitioner {
 public:
  explicit GeoPartitioner(PartitionConfig cfg);

  /// Raster cell for a position: column ⌊(lng − lng_min) / cell width⌋
  /// and row ⌊(lat − lat_min) / cell height⌋, each clamped to
  /// [0, cells_per_side − 1], so a camera standing just past the
  /// deployment edge lands in a border cell and still has an owner. The
  /// id is row · cells_per_side + column.
  [[nodiscard]] std::size_t cell_of(double lng, double lat) const noexcept;

  /// Owning partition of a cell — the deterministic hash.
  [[nodiscard]] std::size_t partition_of_cell(
      std::size_t cell) const noexcept;
  [[nodiscard]] std::size_t partition_of(double lng,
                                         double lat) const noexcept;

  /// Partitions whose cells intersect the (already expanded) search
  /// rectangle — sorted, unique. Empty when the rectangle misses the
  /// deployment bounds entirely: zero fan-out, no node contacted.
  [[nodiscard]] std::vector<std::size_t> partitions_for_range(
      const index::GeoTimeRange& range) const;

  [[nodiscard]] const PartitionConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return side_ * side_;
  }

 private:
  PartitionConfig cfg_;
  std::size_t side_;
  double cell_w_, cell_h_;
};

/// partition → serving node. Starts as the identity (node i serves
/// partition i); failover promotion retargets one partition and bumps the
/// epoch so stale tables are recognizable on the wire.
struct RoutingTable {
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> primary_of;  ///< indexed by partition

  [[nodiscard]] static RoutingTable identity(std::size_t partitions);

  bool operator==(const RoutingTable&) const = default;
};

}  // namespace svg::cluster
