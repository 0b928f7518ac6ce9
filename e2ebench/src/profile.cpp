#include "profile.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace e2ebench {

namespace {

using svg::obs::SpanRecord;

bool contains(const SpanRecord& outer, const SpanRecord& inner) noexcept {
  return outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns;
}

/// Length of the union of the children's intervals, clipped to `parent`.
std::uint64_t covered_ns(const SpanRecord& parent,
                         const std::vector<SpanRecord>& spans,
                         const std::vector<std::size_t>& children) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  iv.reserve(children.size());
  for (const std::size_t c : children) {
    const std::uint64_t lo = std::max(spans[c].start_ns, parent.start_ns);
    const std::uint64_t hi = std::min(spans[c].end_ns, parent.end_ns);
    if (lo < hi) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t run_lo = 0;
  std::uint64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) total += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) total += run_hi - run_lo;
  return total;
}

/// Nearest-rank percentile of a sorted sample.
std::uint64_t rank(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(q * n));
  idx = std::clamp<std::size_t>(idx, 1, sorted.size()) - 1;
  return sorted[idx];
}

}  // namespace

std::vector<std::uint64_t> self_times(const svg::obs::Trace& trace) {
  const std::vector<SpanRecord>& spans = trace.spans;
  const std::size_t n = spans.size();
  std::vector<std::uint64_t> self(n, 0);
  if (n == 0) return self;
  const std::size_t root = n - 1;

  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(n);
  for (std::size_t i = 0; i < n; ++i) by_id.emplace(spans[i].span_id, i);
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < root; ++i) {
    const auto it = by_id.find(spans[i].parent_span_id);
    const bool known = it != by_id.end() && it->second != i;
    children[known ? it->second : root].push_back(i);
  }

  // Top-down: at each parent, sort the children by (start, longest first)
  // and sweep with a stack of open siblings; a child inside the innermost
  // open sibling moves under it and is settled when that sibling's own
  // children are processed.
  std::vector<std::size_t> todo{root};
  while (!todo.empty()) {
    const std::size_t p = todo.back();
    todo.pop_back();
    std::vector<std::size_t> kids = std::move(children[p]);
    std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) {
        return spans[a].start_ns < spans[b].start_ns;
      }
      if (spans[a].end_ns != spans[b].end_ns) {
        return spans[a].end_ns > spans[b].end_ns;
      }
      return a < b;
    });
    std::vector<std::size_t> direct;
    std::vector<std::size_t> open;
    for (const std::size_t k : kids) {
      while (!open.empty() && !contains(spans[open.back()], spans[k])) {
        open.pop_back();
      }
      if (open.empty()) {
        direct.push_back(k);
      } else {
        children[open.back()].push_back(k);
      }
      open.push_back(k);
    }
    self[p] = spans[p].duration_ns() - covered_ns(spans[p], spans, direct);
    children[p] = direct;
    for (const std::size_t k : direct) todo.push_back(k);
  }
  return self;
}

std::int64_t Profile::add(const svg::obs::Trace& trace) {
  if (trace.spans.empty()) return 0;
  const std::vector<std::uint64_t> self = self_times(trace);
  const std::uint64_t root_ns = trace.root().duration_ns();
  ++traces_;
  root_ns_ += root_ns;
  if (trace.truncated) ++truncated_;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const SpanRecord& s = trace.spans[i];
    Acc& acc = by_name_[s.name];
    acc.self.push_back(self[i]);
    acc.total += self[i];
    sum += self[i];
    for (std::uint8_t t = 0; t < s.tag_count; ++t) {
      auto& [total, spans] = acc.tags[s.tags[t].key];
      total += s.tags[t].value;
      ++spans;
    }
  }
  const auto residual =
      static_cast<std::int64_t>(root_ns) - static_cast<std::int64_t>(sum);
  if (residual != 0) ++unclosed_;
  return residual;
}

std::vector<Profile::Row> Profile::rows() const {
  std::vector<Row> out;
  out.reserve(by_name_.size());
  for (const auto& [name, acc] : by_name_) {
    std::vector<std::uint64_t> sorted = acc.self;
    std::sort(sorted.begin(), sorted.end());
    Row row;
    row.name = name;
    row.count = sorted.size();
    row.self_p50_ns = rank(sorted, 0.50);
    row.self_p99_ns = rank(sorted, 0.99);
    row.self_total_ns = acc.total;
    row.share = root_ns_ == 0 ? 0.0
                              : static_cast<double>(acc.total) /
                                    static_cast<double>(root_ns_);
    row.tags = acc.tags;
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace e2ebench
