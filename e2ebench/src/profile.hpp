#pragma once
// Self-time profile over completed span trees (obs::Trace).
//
// A span's self time is its duration minus the union of its children's
// intervals. Children are found through parent_span_id, then re-nested:
// a span whose interval lies inside a sibling's becomes that sibling's
// child. RetrievalEngine needs this — it emits its stage records
// (retrieval.range_search / filter / rank) as siblings of the index.query
// span that range_search's interval covers, so without re-nesting the
// index scan would be counted twice. After re-nesting, every instant of a
// well-formed trace belongs to exactly one span, and the self times of a
// trace sum to its root's duration; Profile counts the traces for which
// that closure fails.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace e2ebench {

/// Self time of every span of `trace`, index-aligned with trace.spans. The
/// root is the last span (obs::Trace's convention); a span whose parent is
/// not in the trace is treated as a child of the root.
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const svg::obs::Trace& trace);

/// Per-span-name aggregate of many traces.
class Profile {
 public:
  struct Row {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t self_p50_ns = 0;
    std::uint64_t self_p99_ns = 0;
    std::uint64_t self_total_ns = 0;
    double share = 0.0;  ///< self_total_ns / Σ root durations
    /// Tag key → (sum of values, spans carrying the tag).
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> tags;
  };

  /// Fold one trace in. Returns root duration − Σ self times (0 for a
  /// trace that closes).
  std::int64_t add(const svg::obs::Trace& trace);

  /// Rows sorted by name, percentiles computed now.
  [[nodiscard]] std::vector<Row> rows() const;

  [[nodiscard]] std::uint64_t traces() const noexcept { return traces_; }
  [[nodiscard]] std::uint64_t root_ns() const noexcept { return root_ns_; }
  /// Traces whose self times did not sum to the root duration.
  [[nodiscard]] std::uint64_t unclosed() const noexcept { return unclosed_; }
  /// Traces the tracer cut at its span cap.
  [[nodiscard]] std::uint64_t truncated() const noexcept {
    return truncated_;
  }

 private:
  struct Acc {
    std::vector<std::uint64_t> self;
    std::uint64_t total = 0;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> tags;
  };
  std::map<std::string, Acc> by_name_;
  std::uint64_t traces_ = 0;
  std::uint64_t root_ns_ = 0;
  std::uint64_t unclosed_ = 0;
  std::uint64_t truncated_ = 0;
};

}  // namespace e2ebench
