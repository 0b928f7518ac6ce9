#pragma once
// Content-based video segmentation baseline: the same anchor-threshold loop
// as Algorithm 1, but the similarity is computed from pixels instead of
// sensors. Its per-frame cost scales with resolution — the three-orders-of-
// magnitude gap of Fig. 6(a) — while the FoV segmenter's cost is
// resolution-independent.

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cv/frame.hpp"
#include "cv/similarity.hpp"

namespace svg::cv {

/// A content-based segment: [first, last] frame indices, inclusive.
struct ContentSegment {
  std::size_t first = 0;
  std::size_t last = 0;

  [[nodiscard]] std::size_t size() const noexcept {
    return last - first + 1;
  }
};

using ContentSimilarityFn =
    std::function<double(const Frame&, const Frame&)>;

struct ContentSegmenterConfig {
  double threshold = 0.8;
  ContentSimilarityFn similarity = [](const Frame& a, const Frame& b) {
    return frame_difference_similarity(a, b);
  };
};

/// Streaming content segmenter, the pixel counterpart of Algorithm 1's
/// anchor test (core::StreamingAbstractionPipeline): push frames; a
/// completed segment pops out of the push that splits.
class ContentSegmenter {
 public:
  explicit ContentSegmenter(ContentSegmenterConfig cfg)
      : cfg_(std::move(cfg)) {}

  /// Feed the next frame; returns the completed segment on a split.
  std::optional<ContentSegment> push(const Frame& frame);
  std::optional<ContentSegment> finish();

 private:
  ContentSegmenterConfig cfg_;
  Frame anchor_;
  bool open_ = false;
  std::size_t seg_first_ = 0;
  std::size_t next_index_ = 0;
};

/// Batch segmentation over a decoded video.
[[nodiscard]] std::vector<ContentSegment> segment_by_content(
    std::span<const Frame> frames, const ContentSegmenterConfig& cfg);

}  // namespace svg::cv
