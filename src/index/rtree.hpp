#pragma once
// A dynamic R-tree (Guttman, SIGMOD'84 — the paper's reference [11]),
// implemented from scratch: ChooseLeaf by least volume enlargement,
// quadratic split and AdjustTree propagation. It is insert-only, like the
// paper's server, which only ever adds FoVs. Generic over dimension N and
// payload T; the FoV index instantiates it with N = 3 over (lng, lat, time).
//
// Every node caches its bounding box; insertion expands boxes on the way
// down and a split recomputes only its two halves, so inserts are
// O(M log_M n) as the paper's per-insert millisecond figures require.
//
// An STR ("sort-tile-recursive"; Leutenegger, Lopez and Edgington, ICDE
// 1997) bulk loader is provided for the ablation bench comparing one-by-one
// insertion (what a live crowd-sourcing server does) against offline
// packing. STR orders a 4-byte id permutation in place (str_order) and
// moves each item once, at the end (str_sort).
//
// The tree is not internally synchronized. svg::index::TieredFovIndex
// builds no tree: its sealed runs borrow str_order, str_sort and
// pack_counts to lay out their rows and flat block indexes.

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geo/bbox.hpp"

namespace svg::index {

struct RTreeOptions {
  std::size_t max_entries = 16;  ///< node capacity M
  std::size_t min_entries = 6;   ///< minimum node fill m <= M/2

  void validate() const {
    if (max_entries < 2) {
      throw std::invalid_argument("RTreeOptions: max_entries must be >= 2");
    }
    if (min_entries < 1 || min_entries > max_entries / 2) {
      throw std::invalid_argument(
          "RTreeOptions: need 1 <= min_entries <= max_entries/2");
    }
  }
};

/// Aggregate structural statistics (exposed for benches and invariants).
struct RTreeStats {
  std::size_t size = 0;        ///< stored entries
  std::size_t height = 0;      ///< levels including leaf level (0 when empty)
  std::size_t leaf_nodes = 0;
  std::size_t internal_nodes = 0;
  std::size_t boxes_visited_last_query = 0;  ///< work metric for Fig. 6(c)
};

template <typename T, std::size_t N>
class RTree {
 public:
  using BoxN = geo::Box<N>;

  struct Entry {
    BoxN box;
    T value;
  };

  explicit RTree(RTreeOptions options = {}) : options_(options) {
    options_.validate();
  }

  // Spelled out because the atomic work metric is not movable; moving a
  // tree that is being concurrently queried is a caller bug anyway.
  RTree(RTree&& other) noexcept
      : options_(other.options_),
        root_(std::move(other.root_)),
        size_(other.size_),
        boxes_visited_(
            other.boxes_visited_.load(std::memory_order_relaxed)) {
    other.size_ = 0;
  }
  RTree& operator=(RTree&& other) noexcept {
    if (this != &other) {
      options_ = other.options_;
      root_ = std::move(other.root_);
      size_ = other.size_;
      boxes_visited_.store(
          other.boxes_visited_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      other.size_ = 0;
    }
    return *this;
  }
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const RTreeOptions& options() const noexcept {
    return options_;
  }

  /// Insert a (box, value) pair. O(M log_M n).
  void insert(const BoxN& box, T value) {
    if (!root_) root_ = std::make_unique<Node>(/*leaf=*/true);
    std::vector<Node*> path;
    Node* leaf = choose_leaf(box, path);
    leaf->entries.push_back(Entry{box, std::move(value)});
    maybe_split_up(leaf, path);
    ++size_;
  }

  /// Visit every entry whose box intersects `query`. Concurrent queries
  /// are safe (the tree is read-only here): the work metric is accumulated
  /// locally and published once per query.
  template <typename F>
  void query(const BoxN& query, F&& visit) const {
    std::size_t visited = 0;
    if (root_) query_impl(root_.get(), query, visit, visited);
    boxes_visited_.store(visited, std::memory_order_relaxed);
  }

  [[nodiscard]] RTreeStats stats() const {
    RTreeStats s;
    s.size = size_;
    s.boxes_visited_last_query =
        boxes_visited_.load(std::memory_order_relaxed);
    if (root_) collect_stats(root_.get(), 1, s);
    return s;
  }

  /// Structural invariant check for tests: fanout within [m, M] (root
  /// exempt), cached boxes exactly cover children, uniform leaf depth, and
  /// size bookkeeping. Throws std::logic_error on violation.
  void check_invariants() const {
    if (!root_) {
      if (size_ != 0) throw std::logic_error("rtree: size != 0, no root");
      return;
    }
    std::size_t counted = 0;
    int leaf_depth = -1;
    check_node(root_.get(), /*is_root=*/true, 0, leaf_depth, counted);
    if (counted != size_) {
      throw std::logic_error("rtree: size bookkeeping mismatch");
    }
  }

  /// Even node sizes for packing `size` items M-at-a-time: ceil(size/M)
  /// nodes of ⌊size/n⌋ or ⌈size/n⌉ items, so no node falls below m
  /// (m <= M/2 guarantees the floor is >= m whenever more than one node
  /// is needed). Public so ColumnarRun's flat block index groups its row
  /// blocks and every level above them exactly as bulk_load would.
  static std::vector<std::size_t> pack_counts(std::size_t size,
                                              std::size_t max_entries) {
    const std::size_t n_nodes = (size + max_entries - 1) / max_entries;
    std::vector<std::size_t> counts(n_nodes, size / n_nodes);
    for (std::size_t i = 0; i < size % n_nodes; ++i) ++counts[i];
    return counts;
  }

  /// The STR order of n items as a permutation of their ids: taken in
  /// the returned order, consecutive groups of pack_counts(n, capacity)
  /// items form the compact tiles bulk_load packs into nodes. keys[d][i]
  /// is item i's box min + max on dimension d (twice its centre, which
  /// orders the same). Exposed so ColumnarRun can lay its columns out in
  /// bulk_load's leaf order straight from its source columns.
  ///
  /// Each slice fills (key, id) pairs for its own subrange, sorts them by
  /// key, writes the ids back in place and recurses on the next dimension;
  /// one scratch buffer of n pairs serves every level, and no slice is
  /// copied. std::sort moves elements on comparison outcomes alone, so the
  /// order, ties included, is the one an index sort over the same keys
  /// gives. A stable or radix sort would reorder tied items, and with them
  /// every layout built on this order.
  static std::vector<std::uint32_t> str_order(
      const std::array<std::vector<double>, N>& keys, std::size_t capacity) {
    const std::size_t n = keys[0].size();
    assert(n <= std::numeric_limits<std::uint32_t>::max());
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::vector<KeyId> scratch(n);
    tile_ids(keys, order.data(), n, 0, capacity, scratch.data());
    return order;
  }

  /// STR-order `items` (Entries, or bulk_load's nodes) in place: their box
  /// keys through str_order, then one move per item. ColumnarRun tiles
  /// each level of its flat block index this way.
  template <typename Item>
  static void str_sort(std::vector<Item>& items, std::size_t capacity) {
    const std::size_t n = items.size();
    if (n <= capacity) return;
    std::array<std::vector<double>, N> keys;
    for (auto& k : keys) k.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const BoxN& b = box_ref(items[i]);
      for (std::size_t d = 0; d < N; ++d) keys[d][i] = b.min[d] + b.max[d];
    }
    std::vector<Item> sorted;
    sorted.reserve(n);
    for (const std::uint32_t i : str_order(keys, capacity)) {
      sorted.push_back(std::move(items[i]));
    }
    items = std::move(sorted);
  }

  /// STR bulk load: recursively sort-and-tile by each dimension, pack
  /// leaves to capacity, and build upper levels the same way. Produces a
  /// tree with near-100% node utilization.
  static RTree bulk_load(std::vector<Entry> entries,
                         RTreeOptions options = {}) {
    options.validate();
    RTree tree(options);
    if (entries.empty()) return tree;
    tree.size_ = entries.size();

    str_sort(entries, options.max_entries);
    const auto leaf_counts = pack_counts(entries.size(), options.max_entries);
    std::vector<std::unique_ptr<Node>> level;
    level.reserve(leaf_counts.size());
    {
      std::size_t pos = 0;
      for (const std::size_t count : leaf_counts) {
        auto node = std::make_unique<Node>(/*leaf=*/true);
        node->entries.reserve(count);
        for (std::size_t j = 0; j < count; ++j) {
          node->entries.push_back(std::move(entries[pos++]));
        }
        recompute_box(node.get());
        level.push_back(std::move(node));
      }
    }

    while (level.size() > 1) {
      // Sort-tile the node boxes, then pack.
      str_sort(level, options.max_entries);
      const auto counts = pack_counts(level.size(), options.max_entries);
      std::vector<std::unique_ptr<Node>> next;
      next.reserve(counts.size());
      std::size_t pos = 0;
      for (const std::size_t count : counts) {
        auto node = std::make_unique<Node>(/*leaf=*/false);
        node->children.reserve(count);
        for (std::size_t j = 0; j < count; ++j) {
          node->children.push_back(std::move(level[pos++]));
        }
        recompute_box(node.get());
        next.push_back(std::move(node));
      }
      level = std::move(next);
    }
    tree.root_ = std::move(level.front());
    return tree;
  }

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    bool leaf;
    BoxN box = BoxN::empty();
    std::vector<Entry> entries;                   // leaf payload
    std::vector<std::unique_ptr<Node>> children;  // internal fanout

    [[nodiscard]] std::size_t fanout() const noexcept {
      return leaf ? entries.size() : children.size();
    }
  };

  static void recompute_box(Node* n) {
    BoxN b = BoxN::empty();
    if (n->leaf) {
      for (const auto& e : n->entries) b.expand(e.box);
    } else {
      for (const auto& c : n->children) b.expand(c->box);
    }
    n->box = b;
  }

  // --- insertion -----------------------------------------------------------

  /// ChooseLeaf: descend by least volume enlargement (ties: smaller
  /// volume), expanding cached boxes along the way (AdjustTree's growth
  /// direction handled eagerly, so a new entry needs no upward box pass).
  Node* choose_leaf(const BoxN& box, std::vector<Node*>& path) {
    Node* node = root_.get();
    node->box.expand(box);
    while (!node->leaf) {
      path.push_back(node);
      Node* best = nullptr;
      double best_enlargement = 0.0;
      double best_volume = 0.0;
      for (const auto& child : node->children) {
        const double enl = child->box.enlargement(box);
        const double vol = child->box.volume();
        if (!best || enl < best_enlargement ||
            (enl == best_enlargement && vol < best_volume)) {
          best = child.get();
          best_enlargement = enl;
          best_volume = vol;
        }
      }
      node = best;
      node->box.expand(box);
    }
    return node;
  }

  void maybe_split_up(Node* node, std::vector<Node*>& path) {
    while (node->fanout() > options_.max_entries) {
      auto sibling = split_node(node);
      if (path.empty()) {
        auto new_root = std::make_unique<Node>(/*leaf=*/false);
        new_root->children.push_back(std::move(root_));
        new_root->children.push_back(std::move(sibling));
        recompute_box(new_root.get());
        root_ = std::move(new_root);
        return;
      }
      Node* parent = path.back();
      path.pop_back();
      parent->children.push_back(std::move(sibling));
      // Parent box unchanged: the union of the split halves equals the old
      // child box, already included.
      node = parent;
    }
  }

  /// Guttman's quadratic split: pick the two seeds wasting the most volume
  /// together, then greedily assign by enlargement preference, forcing
  /// assignment when a group must absorb the rest to reach m.
  std::unique_ptr<Node> split_node(Node* node) {
    auto sibling = std::make_unique<Node>(node->leaf);
    if (node->leaf) {
      split_items(node->entries, sibling->entries,
                  [](const Entry& e) -> const BoxN& { return e.box; });
    } else {
      split_items(node->children, sibling->children,
                  [](const std::unique_ptr<Node>& c) -> const BoxN& {
                    return c->box;
                  });
    }
    recompute_box(node);
    recompute_box(sibling.get());
    return sibling;
  }

  template <typename Item, typename BoxOf>
  void split_items(std::vector<Item>& items, std::vector<Item>& out,
                   BoxOf box_of) {
    const std::size_t n = items.size();
    assert(n >= 2);

    std::size_t seed_a = 0, seed_b = 1;
    double worst = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const BoxN& bi = box_of(items[i]);
        const BoxN& bj = box_of(items[j]);
        const double waste =
            bi.expanded(bj).volume() - bi.volume() - bj.volume();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }

    std::vector<int> group(n, -1);
    group[seed_a] = 0;
    group[seed_b] = 1;
    BoxN box_a = box_of(items[seed_a]);
    BoxN box_b = box_of(items[seed_b]);
    std::size_t count_a = 1, count_b = 1;
    std::size_t remaining = n - 2;

    while (remaining > 0) {
      if (count_a + remaining == options_.min_entries) {
        for (std::size_t i = 0; i < n; ++i) {
          if (group[i] == -1) group[i] = 0;
        }
        break;
      }
      if (count_b + remaining == options_.min_entries) {
        for (std::size_t i = 0; i < n; ++i) {
          if (group[i] == -1) group[i] = 1;
        }
        break;
      }
      std::size_t pick = 0;
      double best_diff = -1.0;
      double pick_da = 0.0, pick_db = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (group[i] != -1) continue;
        const double da = box_a.enlargement(box_of(items[i]));
        const double db = box_b.enlargement(box_of(items[i]));
        const double diff = std::abs(da - db);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
          pick_da = da;
          pick_db = db;
        }
      }
      int dest;
      if (pick_da < pick_db) {
        dest = 0;
      } else if (pick_db < pick_da) {
        dest = 1;
      } else if (box_a.volume() != box_b.volume()) {
        dest = box_a.volume() < box_b.volume() ? 0 : 1;
      } else {
        dest = count_a <= count_b ? 0 : 1;
      }
      group[pick] = dest;
      if (dest == 0) {
        box_a.expand(box_of(items[pick]));
        ++count_a;
      } else {
        box_b.expand(box_of(items[pick]));
        ++count_b;
      }
      --remaining;
    }

    std::vector<Item> keep;
    keep.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (group[i] == 0) {
        keep.push_back(std::move(items[i]));
      } else {
        out.push_back(std::move(items[i]));
      }
    }
    items = std::move(keep);
  }

  // --- query ---------------------------------------------------------------

  template <typename F>
  void query_impl(const Node* node, const BoxN& query, F& visit,
                  std::size_t& visited) const {
    if (node->leaf) {
      for (const auto& e : node->entries) {
        ++visited;
        if (e.box.intersects(query)) visit(e.box, e.value);
      }
      return;
    }
    for (const auto& child : node->children) {
      ++visited;
      if (child->box.intersects(query)) {
        query_impl(child.get(), query, visit, visited);
      }
    }
  }

  void collect_stats(const Node* node, std::size_t depth,
                     RTreeStats& s) const {
    s.height = std::max(s.height, depth);
    if (node->leaf) {
      ++s.leaf_nodes;
    } else {
      ++s.internal_nodes;
      for (const auto& c : node->children) {
        collect_stats(c.get(), depth + 1, s);
      }
    }
  }

  void check_node(const Node* node, bool is_root, int depth, int& leaf_depth,
                  std::size_t& counted) const {
    const std::size_t fan = node->fanout();
    if (!is_root &&
        (fan < options_.min_entries || fan > options_.max_entries)) {
      throw std::logic_error("rtree: node fanout out of [m, M]");
    }
    if (is_root && fan > options_.max_entries) {
      throw std::logic_error("rtree: root overfull");
    }
    // Cached box must exactly equal the recomputed cover.
    BoxN expect = BoxN::empty();
    if (node->leaf) {
      for (const auto& e : node->entries) expect.expand(e.box);
    } else {
      for (const auto& c : node->children) expect.expand(c->box);
    }
    if (!(expect == node->box)) {
      throw std::logic_error("rtree: stale cached box");
    }
    if (node->leaf) {
      if (leaf_depth == -1) {
        leaf_depth = depth;
      } else if (leaf_depth != depth) {
        throw std::logic_error("rtree: leaves at different depths");
      }
      counted += node->entries.size();
      return;
    }
    if (node->children.empty()) {
      throw std::logic_error("rtree: empty internal node");
    }
    for (const auto& c : node->children) {
      check_node(c.get(), false, depth + 1, leaf_depth, counted);
    }
  }

  // --- STR helper ----------------------------------------------------------

  struct KeyId {
    double key;
    std::uint32_t id;
  };

  /// Sort-and-tile the ids[0, n) subrange by dimension `dim`, then tile
  /// each of its slices by the next, so that consecutive runs of
  /// `capacity` ids form compact boxes. `scratch` holds at least n pairs;
  /// each level writes its ids back before it recurses, so the levels
  /// below reuse it.
  static void tile_ids(const std::array<std::vector<double>, N>& keys,
                       std::uint32_t* ids, std::size_t n, std::size_t dim,
                       std::size_t capacity, KeyId* scratch) {
    if (n <= capacity || dim >= N) return;
    const double* key = keys[dim].data();
    for (std::size_t i = 0; i < n; ++i) scratch[i] = {key[ids[i]], ids[i]};
    std::sort(scratch, scratch + n,
              [](const KeyId& a, const KeyId& b) { return a.key < b.key; });
    for (std::size_t i = 0; i < n; ++i) ids[i] = scratch[i].id;
    const auto n_nodes = static_cast<double>((n + capacity - 1) / capacity);
    const auto slices = static_cast<std::size_t>(std::max(
        1.0,
        std::ceil(std::pow(n_nodes, 1.0 / static_cast<double>(N - dim)))));
    // One slice (slice_len >= n) recurses over the whole subrange.
    const std::size_t slice_len = (n + slices - 1) / slices;
    for (std::size_t i = 0; i < n; i += slice_len) {
      tile_ids(keys, ids + i, std::min(slice_len, n - i), dim + 1, capacity,
               scratch);
    }
  }

  static const BoxN& box_ref(const Entry& e) { return e.box; }
  static const BoxN& box_ref(const std::unique_ptr<Node>& n) {
    return n->box;
  }

  RTreeOptions options_;
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  /// Work metric for Fig. 6(c): boxes touched by the most recent
  /// query. Atomic so concurrent readers of one const tree publish
  /// without racing; each query writes it exactly once, at the end.
  mutable std::atomic<std::size_t> boxes_visited_{0};
};

}  // namespace svg::index
