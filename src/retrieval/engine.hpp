#pragma once
// The rank-based retrieval pipeline of Section V-B — the one way a query
// is answered: by every node, by each leg of the router's fan-out and by
// the oracles that check them. Generic over the index: TieredFovIndex (the
// server's), FovIndex (the paper's R-tree, the oracle) and LinearIndex
// (Fig. 6(c)'s baseline) each expose a template
// `query(GeoTimeRange, visitor)`:
//
//   1. build the search box (RetrievalConfig::search_range in query.hpp):
//      R plus a rounding margin around p̂ with the orientation filter on,
//      so it holds exactly the cameras close enough to see p̂, whatever r̂
//      is; r̂ + R with the filter off;
//   2. range-search the index and run the orientation test (geo::sight)
//      on each row it finds: drop FoVs whose camera does not see p̂ within
//      R ("inquirers never want to know where the cameras are — only
//      whether a segment covers the range");
//   3. rank survivors by camera-to-centre distance (closer ⇒ less likely
//      occluded) and return the top N.

#include <algorithm>
#include <array>
#include <cstdint>

#include "geo/sector.hpp"
#include "obs/families.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "retrieval/query.hpp"
#include "retrieval/top_n.hpp"

namespace svg::retrieval {

/// Statistics from one search — the cost metrics Fig. 6(c) reports, plus
/// per-stage wall-clock so a single trace explains where a slow query went.
///
/// Funnel counters:
///   candidates   → FoVs inside the search rectangle
///   after_filter → those whose camera sees the query centre (the
///                  orientation test)
///   returned     → final top-N
///
/// Stage timings are a thin view over the same obs::SpanRecord entries the
/// tracer stores (the engine fills both from one set of clock reads, so a
/// SearchTrace and a stored trace of the same search always agree):
///   range_search_ns() → the index scan, including the orientation test on
///                       the in-range rows (on column data for the tiered
///                       index) and the ranking distance it yields
///   filter_ns()       → survivors into the bounded top-N heap
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

    const index::GeoTimeRange range = config_.search_range(q);
    const geo::SightTest sight = config_.sight_test(q.center);

    // Stage 1 — range search plus the orientation test: the FoVs in the
    // rectangle whose camera sees the query centre, with their ranking
    // distance, into a per-thread buffer reused across searches (no
    // allocation in steady state; the visitors inline, no std::function).
    std::vector<RankedResult>& seen = scratch();
    seen.clear();
    const double relevance_scale = std::max(1.0, q.radius_m);
    const auto keep = [&](const core::RepresentativeFov& rep,
                          double distance_m) {
      seen.push_back(
          {rep, distance_m, 1.0 / (1.0 + distance_m / relevance_scale)});
    };
    // The tiered index runs the test on its columns and counts the
    // in-range rows; any other index gets it here, per visited row.
    std::size_t candidates = 0;
    if constexpr (requires { index_->query(range, sight, keep); }) {
      candidates = index_->query(range, sight, keep);
    } else {
      index_->query(range, [&](const core::RepresentativeFov& rep) {
        ++candidates;
        const geo::Sight s = sight.of(rep.fov.p, rep.fov.theta_deg);
        if (s.seen) keep(rep, s.distance_m);
      });
    }
    const std::uint64_t t1 = timed ? obs::now_ns() : 0;

    // Stage 2 — survivors stream into a bounded top-N heap, so memory and
    // rank cost are O(top_n) regardless of how many candidates survive.
    BoundedTopN top(config_.top_n);
    const std::size_t kept = seen.size();
    for (RankedResult& r : seen) top.push(std::move(r));
    const std::uint64_t t2 = timed ? obs::now_ns() : 0;

    // Stage 3 — extract the heap, best first (deterministic distance
    // ranking with (video_id, segment_id) tie-break, so the result is
    // identical across index backends and run layouts).
    std::vector<RankedResult> hits = top.take_sorted();
    const std::uint64_t t3 = timed ? obs::now_ns() : 0;

    if (metrics_ != nullptr) {
      metrics_->searches.inc();
      metrics_->candidates.inc(candidates);
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
    stages[0].tags[0] = {"candidates", candidates};
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
      pipeline_span.tag("candidates", candidates);
      pipeline_span.tag("after_filter", kept);
      pipeline_span.tag("returned", hits.size());
      stages[3].trace_id = pipeline_span.trace_id();
      stages[3].span_id = pipeline_span.span_id();
      pipeline_span.end();
    }
    if (trace != nullptr) {
      trace->candidates = candidates;
      trace->after_filter = kept;
      trace->returned = hits.size();
      trace->spans = stages;
    }
    return hits;
  }

 private:
  /// Per-thread survivor buffer for stage 1, reused across searches (and
  /// across engine instances on the same thread — search() never
  /// re-enters itself, so sharing is safe).
  [[nodiscard]] static std::vector<RankedResult>& scratch() {
    static thread_local std::vector<RankedResult> buf;
    return buf;
  }

  const Index* index_;
  RetrievalConfig config_;
  obs::RetrievalMetrics* metrics_;
};

}  // namespace svg::retrieval
