#pragma once
// Bounded top-N selection for the ranking stage. The engine used to
// collect every filter survivor and partial_sort the lot — O(M) memory and
// O(M log N) time with an M-sized buffer per query. A fixed-capacity
// max-heap (worst on top) gets the same result in O(N) memory, so rank
// cost stops scaling with candidate count.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "retrieval/query.hpp"

namespace svg::retrieval {

/// Strict weak order for the top-N cut: primary key metric distance, ties
/// broken by (video_id, segment_id). With the tie-break, the returned
/// list is a pure function of the candidate *set* — candidate arrival
/// order (which differs across index backends and run layouts) never
/// leaks into the output.
struct RankedBefore {
  bool operator()(const RankedResult& a,
                  const RankedResult& b) const noexcept {
    if (a.distance_m != b.distance_m) return a.distance_m < b.distance_m;
    if (a.rep.video_id != b.rep.video_id) {
      return a.rep.video_id < b.rep.video_id;
    }
    return a.rep.segment_id < b.rep.segment_id;
  }
};

/// Fixed-capacity selector over a stream of ranked results. Keeps the N
/// best seen so far in a max-heap whose root is the current worst, so a
/// push against a full heap is a single compare in the common
/// "not-competitive" case.
class BoundedTopN {
 public:
  explicit BoundedTopN(std::size_t capacity) : capacity_(capacity) {}

  void push(RankedResult&& r) {
    if (capacity_ == 0) return;
    if (heap_.size() < capacity_) {
      heap_.push_back(std::move(r));
      std::push_heap(heap_.begin(), heap_.end(), before_);
      return;
    }
    if (!before_(r, heap_.front())) return;  // not better than current worst
    std::pop_heap(heap_.begin(), heap_.end(), before_);
    heap_.back() = std::move(r);
    std::push_heap(heap_.begin(), heap_.end(), before_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Destructively extract the contents, best first.
  [[nodiscard]] std::vector<RankedResult> take_sorted() {
    std::sort_heap(heap_.begin(), heap_.end(), before_);
    return std::move(heap_);
  }

 private:
  std::size_t capacity_;
  RankedBefore before_;
  std::vector<RankedResult> heap_;
};

/// Deterministic k-way merge of per-source ranked lists, each already
/// sorted by `before`, keeping the best `k` overall. Non-destructive: the
/// inputs are read through spans and never moved from. `same(a, b)` marks
/// `b` as a duplicate of an already-merged `a` and drops it — cluster
/// followers can answer with copies of rows the owning primary also
/// returns. Exact ties under `before` resolve to the lower source index,
/// so the output is a pure function of (lists, order-within-list) — and,
/// when every list is sorted by a total order such as RankedBefore, of
/// the candidate *set* alone. This is the merge behind the cluster
/// scatter-gather.
template <typename T, typename Before, typename Same>
[[nodiscard]] std::vector<T> merge_ranked_lists(
    std::span<const std::vector<T>> lists, std::size_t k, Before before,
    Same same) {
  struct Cursor {
    std::size_t list = 0;
    std::size_t pos = 0;
  };
  // Max-heap ordered so the globally best cursor surfaces first; exact
  // ties prefer the lower list index.
  auto worse = [&](const Cursor& a, const Cursor& b) {
    const T& x = lists[a.list][a.pos];
    const T& y = lists[b.list][b.pos];
    if (before(x, y)) return false;
    if (before(y, x)) return true;
    return a.list > b.list;
  };
  std::vector<Cursor> heap;
  heap.reserve(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (!lists[i].empty()) heap.push_back({i, 0});
  }
  std::make_heap(heap.begin(), heap.end(), worse);
  std::vector<T> out;
  out.reserve(std::min<std::size_t>(k, 64));
  while (!heap.empty() && out.size() < k) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    Cursor c = heap.back();
    heap.pop_back();
    const T& item = lists[c.list][c.pos];
    bool duplicate = false;
    for (const T& seen : out) {
      if (same(seen, item)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(item);
    if (c.pos + 1 < lists[c.list].size()) {
      heap.push_back({c.list, c.pos + 1});
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  return out;
}

/// merge_ranked_lists without duplicate suppression (for sources that
/// partition the corpus, so no row appears twice).
template <typename T, typename Before>
[[nodiscard]] std::vector<T> merge_ranked_lists(
    std::span<const std::vector<T>> lists, std::size_t k, Before before) {
  return merge_ranked_lists(lists, k, before,
                            [](const T&, const T&) { return false; });
}

}  // namespace svg::retrieval
