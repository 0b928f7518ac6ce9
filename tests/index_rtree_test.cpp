// R-tree correctness: queries checked against brute force over random
// workloads, structural invariants maintained through every insert, shape
// bounds, STR bulk load equivalence.

#include "index/rtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"

namespace {

using svg::geo::Box3;
using svg::index::RTree;
using svg::index::RTreeOptions;

using Tree = RTree<std::uint64_t, 3>;

Box3 random_box(svg::util::Xoshiro256& rng, double extent = 100.0,
                double max_size = 5.0) {
  Box3 b;
  for (std::size_t d = 0; d < 3; ++d) {
    const double lo = rng.uniform(0.0, extent);
    const double len = rng.uniform(0.0, max_size);
    b.min[d] = lo;
    b.max[d] = lo + len;
  }
  return b;
}

std::vector<std::uint64_t> brute_force(
    const std::vector<std::pair<Box3, std::uint64_t>>& data,
    const Box3& query) {
  std::vector<std::uint64_t> out;
  for (const auto& [box, value] : data) {
    if (box.intersects(query)) out.push_back(value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> tree_query(const Tree& tree, const Box3& query) {
  std::vector<std::uint64_t> out;
  tree.query(query, [&](const Box3&, const std::uint64_t& v) {
    out.push_back(v);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RTreeTest, EmptyTreeBasics) {
  Tree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree_query(tree, Box3{{0, 0, 0}, {1, 1, 1}}).empty());
  tree.check_invariants();
}

TEST(RTreeTest, SingleEntryRoundTrip) {
  Tree tree;
  const Box3 b{{1, 2, 3}, {4, 5, 6}};
  tree.insert(b, 42);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree_query(tree, b), (std::vector<std::uint64_t>{42}));
  EXPECT_TRUE(tree_query(tree, Box3{{10, 10, 10}, {11, 11, 11}}).empty());
  tree.check_invariants();
}

TEST(RTreeTest, OptionsValidated) {
  EXPECT_THROW(Tree(RTreeOptions{1, 1}), std::invalid_argument);
  EXPECT_THROW(Tree(RTreeOptions{8, 5}), std::invalid_argument);
  EXPECT_THROW(Tree(RTreeOptions{8, 0}), std::invalid_argument);
  EXPECT_NO_THROW(Tree(RTreeOptions{8, 4}));
}

// Parameterized over (node capacity, entry count) — splits, deep trees, and
// degenerate boxes all get exercised.
class RTreeRandomized
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(RTreeRandomized, QueriesMatchBruteForce) {
  const auto [capacity, count] = GetParam();
  RTreeOptions opts{capacity, std::max<std::size_t>(1, capacity / 3)};
  Tree tree(opts);
  svg::util::Xoshiro256 rng(capacity * 1000 + count);

  std::vector<std::pair<Box3, std::uint64_t>> data;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Box3 b = random_box(rng);
    data.emplace_back(b, i);
    tree.insert(b, i);
  }
  tree.check_invariants();
  EXPECT_EQ(tree.size(), count);

  for (int q = 0; q < 50; ++q) {
    const Box3 query = random_box(rng, 100.0, 20.0);
    ASSERT_EQ(tree_query(tree, query), brute_force(data, query))
        << "query " << q;
  }
}

// Guttman's insert keeps the tree valid at every step, not just at the
// end: each descent, split and upward box repair leaves every non-root node
// within [m, M], every cached box exact and every leaf at one depth.
TEST_P(RTreeRandomized, InvariantsHoldAfterEveryInsert) {
  const auto [capacity, count] = GetParam();
  Tree tree(RTreeOptions{capacity, std::max<std::size_t>(1, capacity / 3)});
  svg::util::Xoshiro256 rng(capacity * 1000 + count + 1);
  for (std::uint64_t i = 0; i < count; ++i) {
    tree.insert(random_box(rng), i);
    ASSERT_EQ(tree.size(), i + 1);
    ASSERT_NO_THROW(tree.check_invariants()) << "after insert " << i;
  }
}

// A query for an entry's own box finds that entry, together with exactly
// the other entries the box intersects.
TEST_P(RTreeRandomized, EveryEntryFindsItsOwnBox) {
  const auto [capacity, count] = GetParam();
  Tree tree(RTreeOptions{capacity, std::max<std::size_t>(1, capacity / 3)});
  svg::util::Xoshiro256 rng(capacity * 1000 + count + 2);
  std::vector<std::pair<Box3, std::uint64_t>> data;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Box3 b = random_box(rng);
    data.emplace_back(b, i);
    tree.insert(b, i);
  }
  for (const auto& [box, value] : data) {
    const auto got = tree_query(tree, box);
    ASSERT_TRUE(std::binary_search(got.begin(), got.end(), value))
        << "entry " << value;
    ASSERT_EQ(got, brute_force(data, box)) << "entry " << value;
  }
}

// The STR packer, which lays out the tiered index's runs, answers like
// brute force at every node capacity and keeps every node within [m, M].
TEST_P(RTreeRandomized, BulkLoadQueriesMatchBruteForce) {
  const auto [capacity, count] = GetParam();
  const RTreeOptions opts{capacity, std::max<std::size_t>(1, capacity / 3)};
  svg::util::Xoshiro256 rng(capacity * 1000 + count + 3);
  std::vector<std::pair<Box3, std::uint64_t>> data;
  std::vector<Tree::Entry> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Box3 b = random_box(rng);
    data.emplace_back(b, i);
    entries.push_back({b, i});
  }
  const Tree tree = Tree::bulk_load(std::move(entries), opts);
  tree.check_invariants();
  EXPECT_EQ(tree.size(), count);
  for (int q = 0; q < 50; ++q) {
    const Box3 query = random_box(rng, 100.0, 20.0);
    ASSERT_EQ(tree_query(tree, query), brute_force(data, query))
        << "query " << q;
  }
}

// The shape stats bound each other as an R-tree's must: a leaf holds at
// most M entries (and, below the root, at least m), each level fans out at
// most M ways, and every node but the root is some internal node's child.
TEST_P(RTreeRandomized, StatsBoundTheShape) {
  const auto [capacity, count] = GetParam();
  const std::size_t min_fill = std::max<std::size_t>(1, capacity / 3);
  Tree tree(RTreeOptions{capacity, min_fill});
  svg::util::Xoshiro256 rng(capacity * 1000 + count + 4);
  for (std::uint64_t i = 0; i < count; ++i) tree.insert(random_box(rng), i);

  const auto s = tree.stats();
  EXPECT_EQ(s.size, count);
  ASSERT_GE(s.height, 1u);
  double reach = 1.0;
  for (std::size_t h = 0; h < s.height; ++h) {
    reach *= static_cast<double>(capacity);
  }
  EXPECT_GE(reach, static_cast<double>(count));
  EXPECT_GE(s.leaf_nodes * capacity, count);
  const std::size_t below_root_leaves = s.height > 1 ? s.leaf_nodes : 0;
  EXPECT_LE(below_root_leaves * min_fill, count);
  EXPECT_GE(s.internal_nodes + 1, s.height);
  EXPECT_GE(s.internal_nodes * capacity + 1, s.leaf_nodes + s.internal_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAndSize, RTreeRandomized,
    ::testing::Combine(::testing::Values(std::size_t{4}, std::size_t{8},
                                         std::size_t{16}, std::size_t{64}),
                       ::testing::Values(std::size_t{10}, std::size_t{100},
                                         std::size_t{1000})));

TEST(RTreeTest, DuplicateBoxesWithDistinctValues) {
  Tree tree(RTreeOptions{4, 2});
  const Box3 b{{1, 1, 1}, {2, 2, 2}};
  for (std::uint64_t i = 0; i < 20; ++i) tree.insert(b, i);
  std::vector<std::uint64_t> ids(20);
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  EXPECT_EQ(tree_query(tree, b), ids);
  tree.check_invariants();
}

TEST(RTreeTest, DegeneratePointBoxes) {
  // FoV rectangles are degenerate in lng/lat; make sure zero-volume boxes
  // index and query correctly.
  Tree tree(RTreeOptions{8, 3});
  svg::util::Xoshiro256 rng(6);
  std::vector<std::pair<Box3, std::uint64_t>> data;
  for (std::uint64_t i = 0; i < 500; ++i) {
    Box3 b;
    const double x = rng.uniform(0.0, 10.0);
    const double y = rng.uniform(0.0, 10.0);
    const double t0 = rng.uniform(0.0, 100.0);
    b.min = {x, y, t0};
    b.max = {x, y, t0 + rng.uniform(0.0, 5.0)};
    data.emplace_back(b, i);
    tree.insert(b, i);
  }
  tree.check_invariants();
  for (int q = 0; q < 40; ++q) {
    const Box3 query = random_box(rng, 10.0, 3.0);
    ASSERT_EQ(tree_query(tree, query), brute_force(data, query));
  }
}

TEST(RTreeTest, StatsReflectStructure) {
  Tree tree(RTreeOptions{4, 2});
  svg::util::Xoshiro256 rng(7);
  for (std::uint64_t i = 0; i < 300; ++i) {
    tree.insert(random_box(rng), i);
  }
  const auto s = tree.stats();
  EXPECT_EQ(s.size, 300u);
  EXPECT_GE(s.height, 3u);  // 300 entries at fanout <= 4
  EXPECT_GT(s.leaf_nodes, 300u / 4);
  EXPECT_GT(s.internal_nodes, 0u);
}

TEST(RTreeTest, QueryWorkCounterPopulated) {
  Tree tree(RTreeOptions{8, 3});
  svg::util::Xoshiro256 rng(8);
  for (std::uint64_t i = 0; i < 500; ++i) tree.insert(random_box(rng), i);
  tree.query(Box3{{0, 0, 0}, {10, 10, 10}},
             [](const Box3&, const std::uint64_t&) {});
  EXPECT_GT(tree.stats().boxes_visited_last_query, 0u);
}

TEST(RTreeBulkLoadTest, MatchesDynamicInsertResults) {
  svg::util::Xoshiro256 rng(10);
  std::vector<std::pair<Box3, std::uint64_t>> data;
  std::vector<Tree::Entry> entries;
  Tree dynamic(RTreeOptions{8, 3});
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const Box3 b = random_box(rng);
    data.emplace_back(b, i);
    entries.push_back({b, i});
    dynamic.insert(b, i);
  }
  Tree bulk = Tree::bulk_load(std::move(entries), RTreeOptions{8, 3});
  bulk.check_invariants();
  EXPECT_EQ(bulk.size(), 2000u);
  for (int q = 0; q < 50; ++q) {
    const Box3 query = random_box(rng, 100.0, 15.0);
    const auto expected = brute_force(data, query);
    ASSERT_EQ(tree_query(bulk, query), expected);
    ASSERT_EQ(tree_query(dynamic, query), expected);
  }
}

TEST(RTreeBulkLoadTest, PacksTighterThanDynamic) {
  svg::util::Xoshiro256 rng(11);
  std::vector<Tree::Entry> entries;
  Tree dynamic(RTreeOptions{16, 6});
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const Box3 b = random_box(rng);
    entries.push_back({b, i});
    dynamic.insert(b, i);
  }
  Tree bulk = Tree::bulk_load(std::move(entries), RTreeOptions{16, 6});
  EXPECT_LT(bulk.stats().leaf_nodes, dynamic.stats().leaf_nodes);
}

TEST(RTreeBulkLoadTest, EmptyAndTiny) {
  Tree empty = Tree::bulk_load({}, RTreeOptions{8, 3});
  EXPECT_TRUE(empty.empty());
  empty.check_invariants();

  Tree one = Tree::bulk_load({{Box3{{0, 0, 0}, {1, 1, 1}}, 5}},
                             RTreeOptions{8, 3});
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(tree_query(one, Box3{{0, 0, 0}, {2, 2, 2}}),
            (std::vector<std::uint64_t>{5}));
}

namespace {

/// The STR tiler as it stood before the id permutation (verbatim but for
/// the box accessor): sort the items through an index permutation, move
/// them, and recurse on a copy of every slice. The reference the in-place
/// id tiler must reproduce, ties included.
template <typename Vec, typename BoxOf>
void reference_str_tile(Vec& items, std::size_t dim, std::size_t capacity,
                        BoxOf box_of) {
  constexpr std::size_t N = 3;
  if (items.size() <= capacity || dim >= N) return;
  const std::size_t n = items.size();
  std::vector<double> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Box3& b = box_of(items[i]);
    keys[i] = b.min[dim] + b.max[dim];
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&keys](std::uint32_t a, std::uint32_t b) {
              return keys[a] < keys[b];
            });
  {
    Vec sorted;
    sorted.reserve(n);
    for (const std::uint32_t i : order) sorted.push_back(std::move(items[i]));
    items = std::move(sorted);
  }
  const auto n_nodes =
      static_cast<double>((items.size() + capacity - 1) / capacity);
  const auto slices = static_cast<std::size_t>(std::max(
      1.0, std::ceil(std::pow(n_nodes, 1.0 / static_cast<double>(N - dim)))));
  const std::size_t slice_len = (items.size() + slices - 1) / slices;
  if (slice_len >= items.size()) {
    if (dim + 1 < N) reference_str_tile(items, dim + 1, capacity, box_of);
    return;
  }
  for (std::size_t i = 0; i < items.size(); i += slice_len) {
    const std::size_t end = std::min(items.size(), i + slice_len);
    Vec slice(std::make_move_iterator(items.begin() + i),
              std::make_move_iterator(items.begin() + end));
    reference_str_tile(slice, dim + 1, capacity, box_of);
    std::move(slice.begin(), slice.end(), items.begin() + i);
  }
}

/// Point-like boxes in one of three tie patterns: 0 = distinct keys,
/// 1 = every 7th entry repeats its predecessor's position, 2 = a coarse
/// 6 x 6 x 4 grid where most keys tie.
std::vector<Tree::Entry> tie_pattern(std::size_t n, int pattern,
                                     svg::util::Xoshiro256& rng) {
  std::vector<Tree::Entry> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Box3 b;
    if (pattern == 2) {
      for (std::size_t d = 0; d < 3; ++d) {
        b.min[d] = static_cast<double>(rng.bounded(d == 2 ? 4 : 6));
      }
      b.max = b.min;
      b.max[2] += 0.5;
    } else if (pattern == 1 && i % 7 == 6) {
      b = out.back().box;
    } else {
      b = random_box(rng, 100.0, 0.0);
      b.max[2] = b.min[2] + rng.uniform(0.0, 2.0);
    }
    out.push_back({b, i});
  }
  return out;
}

std::vector<std::uint64_t> values_of(const std::vector<Tree::Entry>& v) {
  std::vector<std::uint64_t> out;
  for (const auto& e : v) out.push_back(e.value);
  return out;
}

}  // namespace

// str_order (through str_sort) lays items out exactly as the entry-moving
// tiler did, so every run and bulk-loaded tree keeps its layout.
TEST(RTreeStrOrderTest, MatchesEntryMovingTiler) {
  svg::util::Xoshiro256 rng(21);
  for (const std::size_t cap : {8u, 16u}) {
    const std::size_t sizes[] = {1,   cap - 1, cap,  cap + 1, 255,
                                 256, 257,     4095, 4096,    4097, 70'000};
    for (const std::size_t n : sizes) {
      for (int pattern = 0; pattern < 3; ++pattern) {
        const auto entries = tie_pattern(n, pattern, rng);
        auto expect = entries;
        reference_str_tile(expect, 0, cap,
                           [](const Tree::Entry& e) -> const Box3& {
                             return e.box;
                           });
        auto got = entries;
        Tree::str_sort(got, cap);
        ASSERT_EQ(values_of(got), values_of(expect))
            << n << " entries, capacity " << cap << ", pattern " << pattern;

        std::array<std::vector<double>, 3> keys;
        for (const auto& e : entries) {
          for (std::size_t d = 0; d < 3; ++d) {
            keys[d].push_back(e.box.min[d] + e.box.max[d]);
          }
        }
        const auto order = Tree::str_order(keys, cap);
        ASSERT_EQ(order.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(order[i], expect[i].value) << n << " entries, at " << i;
        }
      }
    }
  }
}

// bulk_load visits its entries in the reference packing's leaf order: leaves
// tiled by the reference tiler, each node level above tiled the same way.
TEST(RTreeStrOrderTest, BulkLoadVisitsInReferenceLeafOrder) {
  svg::util::Xoshiro256 rng(22);
  /// A reference node: its box and its entries' values in visit order.
  struct RefNode {
    Box3 box;
    std::vector<std::uint64_t> values;
  };
  const auto box_of = [](const auto& item) -> const Box3& {
    return item.box;
  };
  const auto pack = [](auto& items, std::size_t cap) {
    std::vector<RefNode> up;
    std::size_t pos = 0;
    for (const std::size_t count : Tree::pack_counts(items.size(), cap)) {
      RefNode node{Box3::empty(), {}};
      for (std::size_t j = 0; j < count; ++j, ++pos) {
        node.box.expand(items[pos].box);
        if constexpr (std::is_same_v<std::decay_t<decltype(items[pos])>,
                                     Tree::Entry>) {
          node.values.push_back(items[pos].value);
        } else {
          node.values.insert(node.values.end(), items[pos].values.begin(),
                             items[pos].values.end());
        }
      }
      up.push_back(std::move(node));
    }
    return up;
  };
  for (const std::size_t cap : {8u, 16u}) {
    for (const std::size_t n : {1u, 17u, 257u, 4097u, 70'000u}) {
      for (int pattern = 0; pattern < 3; ++pattern) {
        auto entries = tie_pattern(n, pattern, rng);
        auto leaves = entries;
        reference_str_tile(leaves, 0, cap, box_of);
        std::vector<RefNode> level = pack(leaves, cap);
        while (level.size() > 1) {
          reference_str_tile(level, 0, cap, box_of);
          level = pack(level, cap);
        }
        const Tree tree = Tree::bulk_load(std::move(entries),
                                          RTreeOptions{cap, cap / 2});
        std::vector<std::uint64_t> visited;
        tree.query(Box3{{-1e9, -1e9, -1e9}, {1e9, 1e9, 1e9}},
                   [&](const Box3&, const std::uint64_t& v) {
                     visited.push_back(v);
                   });
        ASSERT_EQ(visited, level.front().values)
            << n << " entries, capacity " << cap << ", pattern " << pattern;
      }
    }
  }
}

}  // namespace
