// Self-time arithmetic on hand-built span trees: plain nesting, the
// retrieval engine's overlapping-sibling shape (index.query recorded as a
// sibling of the retrieval.range_search stage that covers it), a seal
// nested in an insert, and the Profile aggregate over several traces.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "obs/trace.hpp"
#include "profile.hpp"

namespace {

using e2ebench::Profile;
using e2ebench::self_times;
using svg::obs::SpanRecord;
using svg::obs::Trace;

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
                std::uint64_t end, const char* name) {
  SpanRecord s;
  s.trace_id = 7;
  s.span_id = id;
  s.parent_span_id = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.name = name;
  return s;
}

/// Spans in completion order, root last (the tracer's convention).
Trace trace(std::vector<SpanRecord> spans) {
  Trace t;
  t.trace_id = 7;
  t.spans = std::move(spans);
  return t;
}

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

TEST(SelfTime, NestedChildrenAreSubtractedOnce) {
  const Trace t = trace({span(2, 1, 10, 40, "a"), span(4, 3, 60, 70, "c"),
                         span(3, 1, 50, 90, "b"), span(1, 0, 0, 100, "root")});
  const auto self = self_times(t);
  EXPECT_EQ(self[0], 30u);  // a
  EXPECT_EQ(self[1], 10u);  // c
  EXPECT_EQ(self[2], 30u);  // b: 40 minus c
  EXPECT_EQ(self[3], 30u);  // root: 100 minus a and b
  EXPECT_EQ(sum(self), 100u);
}

TEST(SelfTime, EngineStageCoveringASiblingAdoptsIt) {
  // RetrievalEngine: index.query runs inside the range-search stage, but
  // both are recorded as children of retrieval.search.
  const Trace t = trace({
      span(5, 2, 150, 450, "index.query"),
      span(6, 2, 100, 500, "retrieval.range_search"),
      span(7, 2, 500, 800, "retrieval.filter"),
      span(8, 2, 800, 900, "retrieval.rank"),
      span(2, 1, 100, 900, "retrieval.search"),
      span(1, 0, 0, 1000, "server.query"),
  });
  const auto self = self_times(t);
  EXPECT_EQ(self[0], 300u);  // index.query
  EXPECT_EQ(self[1], 100u);  // range search minus the scan it covers
  EXPECT_EQ(self[2], 300u);
  EXPECT_EQ(self[3], 100u);
  EXPECT_EQ(self[4], 0u);    // the stages tile retrieval.search
  EXPECT_EQ(self[5], 200u);
  EXPECT_EQ(sum(self), 1000u);  // the scan is not counted twice
}

TEST(SelfTime, SealInsideInsertAndTouchingSiblings) {
  const Trace t = trace({
      span(3, 2, 10, 30, "server.dedup_claim"),
      span(4, 2, 30, 60, "wal.append"),
      span(6, 5, 80, 380, "index.seal"),
      span(5, 2, 60, 400, "index.insert"),
      span(2, 1, 5, 410, "server.ingest"),
      span(1, 0, 0, 420, "bench.leg"),
  });
  const auto self = self_times(t);
  EXPECT_EQ(self[2], 300u);  // seal
  EXPECT_EQ(self[3], 40u);   // insert minus its seal
  EXPECT_EQ(self[4], 405u - 20u - 30u - 340u);
  EXPECT_EQ(sum(self), 420u);
}

TEST(SelfTime, SpanWithUnknownParentHangsOffTheRoot) {
  const Trace t = trace(
      {span(9, 12345, 20, 50, "orphan"), span(1, 0, 0, 100, "root")});
  const auto self = self_times(t);
  EXPECT_EQ(self[0], 30u);
  EXPECT_EQ(self[1], 70u);
}

TEST(Profile, AggregatesSelfTimesSharesAndTags) {
  Profile p;
  SpanRecord scan = span(3, 2, 20, 60, "index.query");
  scan.tag_count = 1;
  scan.tags[0] = {"runs", 3};
  EXPECT_EQ(p.add(trace({scan, span(2, 1, 10, 90, "server.query"),
                         span(1, 0, 0, 100, "bench.query")})),
            0);
  scan.tags[0] = {"runs", 5};
  EXPECT_EQ(p.add(trace({scan, span(2, 1, 10, 70, "server.query"),
                         span(1, 0, 0, 100, "bench.query")})),
            0);
  EXPECT_EQ(p.traces(), 2u);
  EXPECT_EQ(p.root_ns(), 200u);
  EXPECT_EQ(p.unclosed(), 0u);
  for (const Profile::Row& r : p.rows()) {
    if (r.name == "index.query") {
      EXPECT_EQ(r.count, 2u);
      EXPECT_EQ(r.self_p50_ns, 40u);
      EXPECT_DOUBLE_EQ(r.share, 80.0 / 200.0);
      EXPECT_EQ(r.tags.at("runs").first, 8u);
      EXPECT_EQ(r.tags.at("runs").second, 2u);
    } else if (r.name == "server.query") {
      EXPECT_EQ(r.self_p50_ns, 20u);  // samples 40 and 20
      EXPECT_EQ(r.self_p99_ns, 40u);
    } else {
      EXPECT_EQ(r.name, "bench.query");
      EXPECT_EQ(r.self_total_ns, 20u + 40u);
    }
  }
}

TEST(Profile, CountsATraceWhoseChildOverrunsItsParent) {
  Profile p;
  const auto residual = p.add(trace({span(2, 1, 50, 150, "late"),
                                     span(1, 0, 0, 100, "root")}));
  EXPECT_NE(residual, 0);
  EXPECT_EQ(p.unclosed(), 1u);
}

}  // namespace
