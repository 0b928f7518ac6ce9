// Geo-partitioner properties: the cell→partition layout must be a pure
// function of PartitionConfig (any restart recomputes the identical
// assignment), range pruning must never skip a partition that could hold a
// match, a rectangle that misses the deployment entirely must contact
// nobody, and sub-upload ids must be deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/partition.hpp"
#include "cluster/router.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::cluster;

PartitionConfig city_config(std::size_t partitions, std::uint64_t salt = 0) {
  PartitionConfig cfg;
  cfg.bounds = sim::CityModel{}.bounds_deg();
  cfg.cells_per_side = 16;
  cfg.partitions = partitions;
  cfg.salt = salt;
  return cfg;
}

TEST(ClusterPartitionTest, LayoutIsDeterministicAcrossInstances) {
  const PartitionConfig cfg = city_config(4, 7);
  const GeoPartitioner a(cfg);
  const GeoPartitioner b(cfg);  // "restart": same config, fresh instance
  util::Xoshiro256 rng(42);
  const geo::Box2 bounds = cfg.bounds;
  for (int i = 0; i < 2000; ++i) {
    const double lng =
        bounds.min[0] + rng.uniform() * (bounds.max[0] - bounds.min[0]);
    const double lat =
        bounds.min[1] + rng.uniform() * (bounds.max[1] - bounds.min[1]);
    ASSERT_EQ(a.partition_of(lng, lat), b.partition_of(lng, lat));
    ASSERT_LT(a.partition_of(lng, lat), cfg.partitions);
  }
  for (std::size_t cell = 0; cell < a.cell_count(); ++cell) {
    ASSERT_EQ(a.partition_of_cell(cell), b.partition_of_cell(cell));
  }
}

TEST(ClusterPartitionTest, SaltChangesTheLayout) {
  const GeoPartitioner a(city_config(4, 0));
  const GeoPartitioner b(city_config(4, 1));
  std::size_t differs = 0;
  for (std::size_t cell = 0; cell < a.cell_count(); ++cell) {
    if (a.partition_of_cell(cell) != b.partition_of_cell(cell)) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

TEST(ClusterPartitionTest, EveryPartitionOwnsSomeCells) {
  // 256 cells over 4 partitions: the hash should not starve any partition.
  const GeoPartitioner p(city_config(4));
  std::vector<std::size_t> cells_per(4, 0);
  for (std::size_t cell = 0; cell < p.cell_count(); ++cell) {
    ++cells_per[p.partition_of_cell(cell)];
  }
  for (std::size_t part = 0; part < 4; ++part) {
    EXPECT_GT(cells_per[part], 0u) << "partition " << part << " owns no cell";
  }
}

TEST(ClusterPartitionTest, OutOfBoundsPositionsClampToBorderCells) {
  const PartitionConfig cfg = city_config(3);
  const GeoPartitioner p(cfg);
  // Far outside on every side: still a valid cell, so the FoV has an owner.
  EXPECT_EQ(p.cell_of(cfg.bounds.min[0] - 10.0, cfg.bounds.min[1] - 10.0),
            p.cell_of(cfg.bounds.min[0], cfg.bounds.min[1]));
  EXPECT_EQ(p.cell_of(cfg.bounds.max[0] + 10.0, cfg.bounds.max[1] + 10.0),
            p.cell_of(cfg.bounds.max[0] - 1e-9, cfg.bounds.max[1] - 1e-9));
  EXPECT_LT(p.partition_of(cfg.bounds.max[0] + 10.0, 0.0), cfg.partitions);
}

TEST(ClusterPartitionTest, RangePruningCoversEveryInteriorPoint) {
  // For any in-bounds point, a rectangle around it must fan out to (at
  // least) the partition that owns the point — the safety half of the
  // pruning contract.
  const GeoPartitioner p(city_config(5, 3));
  const geo::Box2 bounds = p.config().bounds;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double lng =
        bounds.min[0] + rng.uniform() * (bounds.max[0] - bounds.min[0]);
    const double lat =
        bounds.min[1] + rng.uniform() * (bounds.max[1] - bounds.min[1]);
    index::GeoTimeRange range;
    range.lng_min = lng - 1e-4;
    range.lng_max = lng + 1e-4;
    range.lat_min = lat - 1e-4;
    range.lat_max = lat + 1e-4;
    const auto parts = p.partitions_for_range(range);
    const std::size_t owner = p.partition_of(lng, lat);
    ASSERT_NE(std::find(parts.begin(), parts.end(), owner), parts.end())
        << "owner partition pruned away at (" << lng << ", " << lat << ")";
  }
}

TEST(ClusterPartitionTest, CellBoundaryStraddlingRangeFansToBothOwners) {
  const GeoPartitioner p(city_config(4, 1));
  const PartitionConfig& cfg = p.config();
  const double cell_w =
      (cfg.bounds.max[0] - cfg.bounds.min[0]) / cfg.cells_per_side;
  // A thin rectangle straddling the first vertical cell boundary.
  const double boundary = cfg.bounds.min[0] + cell_w;
  const double mid_lat = (cfg.bounds.min[1] + cfg.bounds.max[1]) / 2;
  index::GeoTimeRange range;
  range.lng_min = boundary - cell_w * 0.1;
  range.lng_max = boundary + cell_w * 0.1;
  range.lat_min = mid_lat;
  range.lat_max = mid_lat;
  const auto parts = p.partitions_for_range(range);
  const std::size_t left = p.partition_of(boundary - cell_w * 0.05, mid_lat);
  const std::size_t right = p.partition_of(boundary + cell_w * 0.05, mid_lat);
  EXPECT_NE(std::find(parts.begin(), parts.end(), left), parts.end());
  EXPECT_NE(std::find(parts.begin(), parts.end(), right), parts.end());
  // Sorted and unique.
  auto sorted = parts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(parts, sorted);
}

TEST(ClusterPartitionTest, DisjointRangeFansOutToNobody) {
  const GeoPartitioner p(city_config(4));
  const geo::Box2 bounds = p.config().bounds;
  index::GeoTimeRange range;
  // A rectangle a continent away from the deployment.
  range.lng_min = bounds.max[0] + 50.0;
  range.lng_max = bounds.max[0] + 51.0;
  range.lat_min = bounds.min[1];
  range.lat_max = bounds.max[1];
  EXPECT_TRUE(p.partitions_for_range(range).empty());
}

TEST(ClusterPartitionTest, SubUploadIdsAreDeterministicAndNonZero) {
  for (std::uint64_t id = 1; id < 500; ++id) {
    for (std::size_t part = 0; part < 8; ++part) {
      const std::uint64_t sub = sub_upload_id(id, part);
      EXPECT_NE(sub, 0u);
      EXPECT_EQ(sub, sub_upload_id(id, part));  // pure function
    }
    EXPECT_NE(sub_upload_id(id, 0), sub_upload_id(id, 1));
  }
}

}  // namespace
