#pragma once
// The rank-based retrieval pipeline of Section V-B, generic over the index
// (TieredFovIndex, FovIndex, LinearIndex — anything exposing
// `query(GeoTimeRange, visitor)`):
//
//   1. expand the query circle into a search rectangle (query.hpp) — by
//      default losslessly, so any camera whose radius of view can reach the
//      circle is a candidate;
//   2. range-search the index;
//   3. orientation filter: drop FoVs whose viewing sector does not cover
//      the query centre ("inquirers never want to know where the cameras
//      are — only whether a segment covers the range");
//   4. rank survivors by camera-to-centre distance (closer ⇒ less likely
//      occluded) and return the top N.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <array>

#include "geo/angle.hpp"
#include "obs/families.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "retrieval/query.hpp"
#include "retrieval/top_n.hpp"

namespace svg::retrieval {

struct RetrievalConfig {
  core::CameraIntrinsics camera{};
  /// Extra angular tolerance (degrees) on the sector-coverage test; absorbs
  /// compass noise in the stored θ̄.
  double orientation_slack_deg = 5.0;
  /// Disable to measure how much the direction filter contributes
  /// (ablation).
  bool orientation_filter = true;
  /// A camera may see the query *area* without covering its centre; the
  /// coverage test targets the centre but accepts anything within
  /// `coverage_slack_m` of it (defaults to the query radius at search
  /// time).
  std::size_t top_n = 10;
  /// Spatial search-box expansion; <= 0 means lossless (1 + R/r̂).
  double box_expansion = 0.0;
};

/// Statistics from one search — the cost metrics Fig. 6(c) reports, plus
/// per-stage wall-clock so a single trace explains where a slow query went.
///
/// Funnel counters:
///   candidates   → FoVs the spatio-temporal range search emitted
///   after_filter → survivors of the orientation filter (step 3)
///   returned     → final top-N
///
/// Stage timings are a thin view over the same obs::SpanRecord entries the
/// tracer stores (the engine fills both from one set of clock reads, so a
/// SearchTrace and a stored trace of the same search always agree):
///   range_search_ns() → index range query, candidate collection included
///   filter_ns()       → orientation test + camera-to-centre distance +
///                       bounded-heap push (survivors stream straight into
///                       the top-N selector)
///   rank_ns()         → heap extraction into the sorted top-N
///   total_ns()        → the whole pipeline (≥ the sum of the stages)
/// All 0 when the search ran untraced.
struct SearchTrace {
  std::size_t candidates = 0;
  std::size_t after_filter = 0;
  std::size_t returned = 0;
  /// Per-stage span records: [0] range_search, [1] filter, [2] rank,
  /// [3] the whole pipeline. ids are zero unless the search ran inside an
  /// active trace (then they match the stored trace's spans).
  std::array<obs::SpanRecord, 4> spans{};

  [[nodiscard]] std::uint64_t range_search_ns() const noexcept {
    return spans[0].duration_ns();
  }
  [[nodiscard]] std::uint64_t filter_ns() const noexcept {
    return spans[1].duration_ns();
  }
  [[nodiscard]] std::uint64_t rank_ns() const noexcept {
    return spans[2].duration_ns();
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return spans[3].duration_ns();
  }
};

template <typename Index>
class RetrievalEngine {
 public:
  /// `metrics` feeds the process-wide svg_retrieval_* family; the default
  /// is the shared instance. Pass nullptr for an uninstrumented engine —
  /// with no metrics and no trace the pipeline does zero clock reads
  /// (bench_obs_overhead measures exactly this delta).
  RetrievalEngine(const Index& index, RetrievalConfig config,
                  obs::RetrievalMetrics* metrics =
                      &obs::retrieval_metrics()) noexcept
      : index_(&index), config_(config), metrics_(metrics) {}

  [[nodiscard]] const RetrievalConfig& config() const noexcept {
    return config_;
  }

  /// Execute the full pipeline; `trace` (optional) receives the funnel
  /// counters and per-stage timings documented on SearchTrace. Timing costs
  /// four clock reads per search — never one per candidate.
  [[nodiscard]] std::vector<RankedResult> search(
      const Query& q, SearchTrace* trace = nullptr) const {
    // Child of the caller's open span (server.query) when the request is
    // traced; inactive no-op otherwise. Stage records nest under it.
    obs::Span pipeline_span = obs::tracer().span("retrieval.search");
    const bool timed =
        metrics_ != nullptr || trace != nullptr || pipeline_span.active();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;

    const double expansion = config_.box_expansion > 0.0
                                 ? config_.box_expansion
                                 : lossless_expansion(q, config_.camera);
    const index::GeoTimeRange range = make_search_range(q, expansion);

    // Stage 1 — range search: collect every FoV in the expanded rectangle.
    // The buffer is per-thread and reused across searches, so steady-state
    // queries allocate nothing here (the visitor inlines through the
    // index's template query() — no std::function on the hot path).
    std::vector<core::RepresentativeFov>& candidates = scratch();
    candidates.clear();
    index_->query(range, [&](const core::RepresentativeFov& rep) {
      candidates.push_back(rep);
    });
    const std::uint64_t t1 = timed ? obs::now_ns() : 0;

    // Stage 2 — orientation filter: keep FoVs whose viewing sector covers
    // the query centre; compute the ranking distance as a by-product.
    // Survivors stream straight into a bounded top-N heap, so memory and
    // rank cost are O(top_n) regardless of how many candidates survive.
    BoundedTopN top(config_.top_n);
    std::size_t kept = 0;
    for (const core::RepresentativeFov& rep : candidates) {
      const geo::Vec2 disp = geo::displacement_m(rep.fov.p, q.center);
      const double dist = disp.norm();
      if (config_.orientation_filter && !passes_orientation(rep, disp, dist)) {
        continue;
      }
      RankedResult r;
      r.rep = rep;
      r.distance_m = dist;
      r.relevance = 1.0 / (1.0 + dist / std::max(1.0, q.radius_m));
      ++kept;
      top.push(std::move(r));
    }
    const std::uint64_t t2 = timed ? obs::now_ns() : 0;

    // Stage 3 — extract the heap, best first (deterministic distance
    // ranking with (video_id, segment_id) tie-break, so the result is
    // identical across index backends and run layouts).
    std::vector<RankedResult> hits = top.take_sorted();
    const std::uint64_t t3 = timed ? obs::now_ns() : 0;

    if (metrics_ != nullptr) {
      metrics_->searches.inc();
      metrics_->candidates.inc(candidates.size());
      metrics_->after_filter.inc(kept);
      metrics_->returned.inc(hits.size());
      metrics_->range_search_ns.observe(t1 - t0);
      metrics_->filter_ns.observe(t2 - t1);
      metrics_->rank_ns.observe(t3 - t2);
      metrics_->search_ns.observe(t3 - t0);
    }
    // One set of stage records serves both consumers: the caller's
    // SearchTrace and (when the request is traced) the stored trace.
    std::array<obs::SpanRecord, 4> stages{};
    stages[0] = {.start_ns = t0, .end_ns = t1, .name = "retrieval.range_search"};
    stages[1] = {.start_ns = t1, .end_ns = t2, .name = "retrieval.filter"};
    stages[2] = {.start_ns = t2, .end_ns = t3, .name = "retrieval.rank"};
    stages[3] = {.start_ns = t0, .end_ns = t3, .name = "retrieval.search"};
    stages[0].tag_count = 1;
    stages[0].tags[0] = {"candidates", candidates.size()};
    stages[1].tag_count = 1;
    stages[1].tags[0] = {"after_filter", kept};
    stages[2].tag_count = 1;
    stages[2].tags[0] = {"returned", hits.size()};
    if (pipeline_span.active()) {
      // Emit the three stage records while pipeline_span is still the
      // innermost open span, so they nest under it; emit() fills their
      // ids in place, which the SearchTrace copy below then shares.
      obs::tracer().emit(stages[0]);
      obs::tracer().emit(stages[1]);
      obs::tracer().emit(stages[2]);
      pipeline_span.tag("candidates", candidates.size());
      pipeline_span.tag("after_filter", kept);
      pipeline_span.tag("returned", hits.size());
      stages[3].trace_id = pipeline_span.trace_id();
      stages[3].span_id = pipeline_span.span_id();
      pipeline_span.end();
    }
    if (trace != nullptr) {
      trace->candidates = candidates.size();
      trace->after_filter = kept;
      trace->returned = hits.size();
      trace->spans = stages;
    }
    return hits;
  }

 private:
  /// Per-thread candidate buffer for stage 1, reused across searches (and
  /// across engine instances on the same thread — search() never
  /// re-enters itself, so sharing is safe).
  [[nodiscard]] static std::vector<core::RepresentativeFov>& scratch() {
    static thread_local std::vector<core::RepresentativeFov> buf;
    return buf;
  }

  /// Section V-B step 3: keep the FoV only when its camera can actually see
  /// the query centre — within radius of view AND within the viewing cone
  /// (plus slack).
  [[nodiscard]] bool passes_orientation(const core::RepresentativeFov& rep,
                                        const geo::Vec2& disp,
                                        double dist) const noexcept {
    if (dist > config_.camera.radius_m) return false;
    if (dist == 0.0) return true;
    const double bearing = geo::azimuth_of_direction(disp.x, disp.y);
    return geo::angular_difference_deg(bearing, rep.fov.theta_deg) <=
           config_.camera.half_angle_deg + config_.orientation_slack_deg;
  }

  const Index* index_;
  RetrievalConfig config_;
  obs::RetrievalMetrics* metrics_;
};

}  // namespace svg::retrieval
