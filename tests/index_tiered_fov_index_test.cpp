#include "index/tiered_fov_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "index/fov_index.hpp"
#include "obs/families.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::index;
using svg::core::RepresentativeFov;
using svg::core::TimestampMs;

RepresentativeFov random_rep(svg::util::Xoshiro256& rng) {
  RepresentativeFov r;
  r.video_id = 1 + rng.bounded(64);
  r.segment_id = static_cast<std::uint32_t>(rng.bounded(1'000'000));
  r.fov.p = {39.8 + rng.uniform() * 0.2, 116.3 + rng.uniform() * 0.2};
  r.fov.theta_deg = rng.uniform() * 360.0;
  r.t_start = static_cast<TimestampMs>(rng.uniform() * 1e6);
  r.t_end = r.t_start + 1'000 + static_cast<TimestampMs>(rng.uniform() * 1e5);
  return r;
}

GeoTimeRange random_range(svg::util::Xoshiro256& rng) {
  const double lng = 116.3 + rng.uniform() * 0.2;
  const double lat = 39.8 + rng.uniform() * 0.2;
  const double half = rng.chance(0.5) ? 0.01 : 0.08;
  const auto t0 = static_cast<TimestampMs>(rng.uniform() * 1e6);
  return {lng - half, lng + half, lat - half, lat + half, t0, t0 + 200'000};
}

/// Order-insensitive identity of a result set.
std::vector<std::pair<std::uint64_t, std::uint32_t>> keys(
    const std::vector<RepresentativeFov>& v) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  out.reserve(v.size());
  for (const auto& r : v) out.emplace_back(r.video_id, r.segment_id);
  std::sort(out.begin(), out.end());
  return out;
}

// The core guarantee: for any randomized insert/query sequence the
// tiered index — memtable, in-flight seals, and STR-packed runs included —
// is indistinguishable (as a set) from one plain FovIndex. The tiny
// memtable forces many seals mid-sequence.
TEST(TieredFovIndexTest, EquivalentToPlainIndexUnderRandomOps) {
  svg::util::Xoshiro256 rng(1234);
  FovIndex plain;
  TieredFovIndex tiered({.memtable_capacity = 64});

  for (int step = 0; step < 3'000; ++step) {
    if (rng.bounded(100) < 55) {
      const auto rep = random_rep(rng);
      plain.insert(rep);
      tiered.insert(rep);
    } else {
      const auto q = random_range(rng);
      EXPECT_EQ(keys(plain.query_collect(q)), keys(tiered.query_collect(q)));
    }
    ASSERT_EQ(plain.size(), tiered.size());
  }
  EXPECT_EQ(keys(plain.snapshot()), keys(tiered.snapshot()));
  tiered.check_invariants();
  EXPECT_GT(tiered.run_stats().seals, 0u);
}

// Compaction must preserve the indexed set exactly: merge everything down
// to one run and re-compare against the plain index.
TEST(TieredFovIndexTest, CompactionPreservesTheIndexedSet) {
  svg::util::Xoshiro256 rng(4321);
  FovIndex plain;
  TieredFovIndex tiered({.memtable_capacity = 32});

  for (int i = 0; i < 1'000; ++i) {
    const auto rep = random_rep(rng);
    plain.insert(rep);
    tiered.insert(rep);
  }

  const auto before = tiered.run_stats();
  ASSERT_GT(before.runs.size(), 1u);
  EXPECT_TRUE(tiered.seal_now());
  std::size_t merged = 0;
  while (tiered.compact_now(/*full=*/true) > 0) ++merged;
  EXPECT_GT(merged, 0u);

  const auto after = tiered.run_stats();
  ASSERT_EQ(after.runs.size(), 1u);
  // The merge moved every row and dropped none: the one run holds them all.
  EXPECT_EQ(after.runs[0].rows, tiered.size());
  EXPECT_EQ(tiered.size(), 1'000u);
  EXPECT_EQ(keys(plain.snapshot()), keys(tiered.snapshot()));
  for (int i = 0; i < 30; ++i) {
    const auto q = random_range(rng);
    EXPECT_EQ(keys(plain.query_collect(q)), keys(tiered.query_collect(q)));
  }
  tiered.check_invariants();
}

// Sealing is purely size-triggered, so a batch insert must produce exactly
// the same tier structure (run boundaries AND contents) as the same
// sequence of individual inserts — the property WAL replay relies on.
TEST(TieredFovIndexTest, InsertBatchMatchesIndividualInserts) {
  svg::util::Xoshiro256 rng(7);
  std::vector<RepresentativeFov> reps;
  for (int i = 0; i < 300; ++i) reps.push_back(random_rep(rng));

  TieredFovIndex batched({.memtable_capacity = 64});
  batched.insert_batch(reps);
  TieredFovIndex individual({.memtable_capacity = 64});
  for (const auto& r : reps) individual.insert(r);

  EXPECT_EQ(batched.size(), reps.size());
  EXPECT_EQ(keys(batched.snapshot()), keys(individual.snapshot()));
  const auto bs = batched.run_stats();
  const auto is = individual.run_stats();
  ASSERT_EQ(bs.runs.size(), is.runs.size());
  for (std::size_t i = 0; i < bs.runs.size(); ++i) {
    EXPECT_EQ(bs.runs[i].rows, is.runs[i].rows);
    EXPECT_EQ(bs.runs[i].ts_min, is.runs[i].ts_min);
    EXPECT_EQ(bs.runs[i].ts_max, is.runs[i].ts_max);
  }
  EXPECT_EQ(bs.memtable_rows, is.memtable_rows);
  batched.check_invariants();
}

/// The same identities in stored order.
std::vector<std::pair<std::uint64_t, std::uint32_t>> in_order(
    const std::vector<RepresentativeFov>& v) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  out.reserve(v.size());
  for (const auto& r : v) out.emplace_back(r.video_id, r.segment_id);
  return out;
}

// Parameterized over the memtable capacity: the clamp floor (16, also the
// default block size), one past it, and capacities that do (64) and do not
// (50, 100, 255) fill whole 16-row blocks.
class TieredCapacity : public ::testing::TestWithParam<std::size_t> {};

// One insert is a batch of one: single inserts, one whole batch and
// random-sized chunks seal at the same rows and build the same runs, in
// the same stored order.
TEST_P(TieredCapacity, SingleInsertsSealLikeAnyBatching) {
  const std::size_t cap = GetParam();
  svg::util::Xoshiro256 rng(cap);
  std::vector<RepresentativeFov> reps;
  for (std::size_t i = 0; i < 7 * cap + cap / 2; ++i) {
    reps.push_back(random_rep(rng));
  }
  TieredFovIndex single({.memtable_capacity = cap});
  for (const auto& r : reps) single.insert(r);
  TieredFovIndex whole({.memtable_capacity = cap});
  whole.insert_batch(reps);
  TieredFovIndex chunked({.memtable_capacity = cap});
  for (std::size_t i = 0; i < reps.size();) {
    const std::size_t n = std::min<std::size_t>(
        reps.size() - i, 1 + rng.bounded(2 * cap));
    chunked.insert_batch({reps.data() + i, n});
    i += n;
  }

  const auto expect = single.run_stats();
  EXPECT_EQ(expect.seals, 7u);
  EXPECT_EQ(expect.memtable_rows, cap / 2);
  ASSERT_EQ(expect.runs.size(), 7u);
  const auto expect_order = in_order(single.snapshot());
  for (const TieredFovIndex* idx : {&whole, &chunked}) {
    const auto got = idx->run_stats();
    EXPECT_EQ(got.seals, expect.seals);
    EXPECT_EQ(got.memtable_rows, expect.memtable_rows);
    ASSERT_EQ(got.runs.size(), expect.runs.size());
    for (std::size_t r = 0; r < got.runs.size(); ++r) {
      EXPECT_EQ(got.runs[r].rows, cap);
      EXPECT_EQ(got.runs[r].rows, expect.runs[r].rows);
      EXPECT_EQ(got.runs[r].ts_min, expect.runs[r].ts_min);
      EXPECT_EQ(got.runs[r].ts_max, expect.runs[r].ts_max);
    }
    EXPECT_EQ(idx->size(), reps.size());
    EXPECT_EQ(in_order(idx->snapshot()), expect_order);
    idx->check_invariants();
  }
}

// seal_now and the size trigger share one seal: a forced seal between
// inserts starts a fresh memtable, an empty memtable never seals, and no
// row is lost or doubled on its way into the runs.
TEST_P(TieredCapacity, SealNowBetweenInsertsKeepsEveryRow) {
  const std::size_t cap = GetParam();
  svg::util::Xoshiro256 rng(cap + 1);
  FovIndex plain;
  TieredFovIndex tiered({.memtable_capacity = cap});
  std::uint64_t seals = 0;
  std::size_t memtable = 0;
  for (int step = 0; step < 600; ++step) {
    if (rng.bounded(20) == 0) {
      ASSERT_EQ(tiered.seal_now(), memtable > 0) << "step " << step;
      if (memtable > 0) ++seals;
      memtable = 0;
    } else {
      const auto rep = random_rep(rng);
      plain.insert(rep);
      tiered.insert(rep);
      if (++memtable == cap) {
        ++seals;
        memtable = 0;
      }
    }
    const auto s = tiered.run_stats();
    ASSERT_EQ(s.seals, seals) << "step " << step;
    ASSERT_EQ(s.memtable_rows, memtable) << "step " << step;
    std::size_t rows = s.memtable_rows + s.sealing_rows;
    for (const auto& run : s.runs) rows += run.rows;
    ASSERT_EQ(rows, plain.size()) << "step " << step;
  }
  EXPECT_EQ(tiered.size(), plain.size());
  EXPECT_EQ(keys(tiered.snapshot()), keys(plain.snapshot()));
  for (int q = 0; q < 30; ++q) {
    const auto range = random_range(rng);
    EXPECT_EQ(keys(plain.query_collect(range)),
              keys(tiered.query_collect(range)));
  }
  tiered.check_invariants();
}

// Five full memtables and a partial one, merged down: a full compaction
// takes every run, holds each sealed row once under tight time bounds,
// leaves the memtable alone, and answers like the plain index.
TEST_P(TieredCapacity, FullCompactionMergesEverySealedRow) {
  const std::size_t cap = GetParam();
  svg::util::Xoshiro256 rng(cap + 2);
  FovIndex plain;
  TieredFovIndex tiered({.memtable_capacity = cap});
  std::vector<RepresentativeFov> reps;
  for (std::size_t i = 0; i < 5 * cap + 3; ++i) {
    reps.push_back(random_rep(rng));
    plain.insert(reps.back());
    tiered.insert(reps.back());
  }
  const auto before = tiered.run_stats();
  ASSERT_EQ(before.runs.size(), 5u);
  for (const auto& run : before.runs) EXPECT_EQ(run.rows, cap);
  EXPECT_EQ(before.memtable_rows, 3u);

  EXPECT_EQ(tiered.compact_now(/*full=*/true), 5u);
  const auto after = tiered.run_stats();
  ASSERT_EQ(after.runs.size(), 1u);
  EXPECT_EQ(after.runs[0].rows, 5 * cap);
  EXPECT_EQ(after.memtable_rows, 3u);
  EXPECT_EQ(after.seals, 5u);
  EXPECT_EQ(after.compactions, 1u);
  TimestampMs lo = reps[0].t_start, hi = reps[0].t_end;
  for (std::size_t i = 0; i < 5 * cap; ++i) {
    lo = std::min(lo, reps[i].t_start);
    hi = std::max(hi, reps[i].t_end);
  }
  EXPECT_EQ(after.runs[0].ts_min, lo);
  EXPECT_EQ(after.runs[0].ts_max, hi);
  // One run left: nothing more to merge.
  EXPECT_EQ(tiered.compact_now(/*full=*/true), 0u);

  EXPECT_EQ(tiered.size(), reps.size());
  EXPECT_EQ(keys(tiered.snapshot()), keys(plain.snapshot()));
  for (int q = 0; q < 30; ++q) {
    const auto range = random_range(rng);
    EXPECT_EQ(keys(plain.query_collect(range)),
              keys(tiered.query_collect(range)));
  }
  tiered.check_invariants();
}

// A background round (compact_now without `full`) waits for compact_fanin
// runs, merges exactly the smallest compact_fanin of them, and appends the
// merged run after the survivors.
TEST_P(TieredCapacity, CompactionRoundMergesTheSmallestFaninRuns) {
  const std::size_t cap = GetParam();
  svg::util::Xoshiro256 rng(cap + 3);
  FovIndex plain;
  TieredFovIndex tiered({.memtable_capacity = cap, .compact_fanin = 4});
  const auto insert_rows = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto rep = random_rep(rng);
      plain.insert(rep);
      tiered.insert(rep);
    }
  };
  const auto run_rows = [&] {
    std::vector<std::size_t> rows;
    for (const auto& run : tiered.run_stats().runs) rows.push_back(run.rows);
    return rows;
  };

  insert_rows(3 * cap);
  EXPECT_EQ(tiered.compact_now(), 0u);  // three runs: below the fan-in
  insert_rows(3 * cap);
  EXPECT_EQ(tiered.compact_now(), 4u);
  EXPECT_EQ(run_rows(), (std::vector<std::size_t>{cap, cap, 4 * cap}));
  EXPECT_EQ(tiered.compact_now(), 0u);  // three runs again
  insert_rows(cap);
  // Four runs: the two small ones, the merged one, the new one; all merge.
  EXPECT_EQ(tiered.compact_now(), 4u);
  EXPECT_EQ(run_rows(), (std::vector<std::size_t>{7 * cap}));
  EXPECT_EQ(tiered.run_stats().compactions, 2u);

  EXPECT_EQ(tiered.size(), 7 * cap);
  EXPECT_EQ(keys(tiered.snapshot()), keys(plain.snapshot()));
  for (int q = 0; q < 30; ++q) {
    const auto range = random_range(rng);
    EXPECT_EQ(keys(plain.query_collect(range)),
              keys(tiered.query_collect(range)));
  }
  tiered.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(MemtableCapacity, TieredCapacity,
                         ::testing::Values(std::size_t{16}, std::size_t{17},
                                           std::size_t{50}, std::size_t{64},
                                           std::size_t{100},
                                           std::size_t{255}));

// A query whose time window misses a run's [ts_min, ts_max] must skip it
// without touching a node — visible through svg_index_run_time_pruned.
TEST(TieredFovIndexTest, TightTimeWindowsSkipWholeRuns) {
  auto& rm = svg::obs::index_run_metrics();
  TieredFovIndex idx({.memtable_capacity = 100});
  // Two disjoint time epochs, one run each.
  RepresentativeFov r;
  r.fov.p = {39.9, 116.4};
  for (int i = 0; i < 100; ++i) {
    r.segment_id = static_cast<std::uint32_t>(i);
    r.t_start = 1'000 + i;
    r.t_end = r.t_start + 10;
    idx.insert(r);
  }
  for (int i = 0; i < 100; ++i) {
    r.segment_id = static_cast<std::uint32_t>(1000 + i);
    r.t_start = 5'000'000 + i;
    r.t_end = r.t_start + 10;
    idx.insert(r);
  }
  ASSERT_EQ(idx.run_stats().runs.size(), 2u);

  const auto pruned0 = rm.time_pruned.value();
  const auto scans0 = rm.scans.value();
  // Window covering only the first epoch: one run scanned, one pruned.
  const auto hits = idx.query_collect(
      {116.0, 117.0, 39.0, 40.0, 0, 10'000});
  EXPECT_EQ(hits.size(), 100u);
  EXPECT_EQ(rm.time_pruned.value() - pruned0, 1u);
  EXPECT_EQ(rm.scans.value() - scans0, 1u);

  // Window between the epochs: both runs pruned, nothing scanned.
  const auto none = idx.query_collect(
      {116.0, 117.0, 39.0, 40.0, 100'000, 200'000});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(rm.time_pruned.value() - pruned0, 3u);
  EXPECT_EQ(rm.scans.value() - scans0, 1u);
}

// Aggregated svg_index_* metrics move for tiered operations, and the
// run-lifecycle family tracks seals and run rows.
TEST(TieredFovIndexTest, FeedsAggregatedAndRunMetrics) {
  auto& agg = svg::obs::index_metrics();
  auto& rm = svg::obs::index_run_metrics();
  const auto inserts0 = agg.inserts.value();
  const auto queries0 = agg.queries.value();
  const auto seals0 = rm.seals.value();
  const auto sealed_rows0 = rm.sealed_rows.value();

  svg::util::Xoshiro256 rng(77);
  TieredFovIndex idx({.memtable_capacity = 50});
  for (int i = 0; i < 120; ++i) idx.insert(random_rep(rng));
  (void)idx.query_collect(random_range(rng));

  EXPECT_EQ(agg.inserts.value() - inserts0, 120u);
  EXPECT_GE(agg.queries.value() - queries0, 1u);
  // 120 inserts over a 50-row memtable = 2 seals of 50 rows each.
  EXPECT_EQ(rm.seals.value() - seals0, 2u);
  EXPECT_EQ(rm.sealed_rows.value() - sealed_rows0, 100u);
  EXPECT_EQ(rm.count.value(), 2);
  EXPECT_EQ(idx.run_stats().memtable_rows, 20u);
}

// The run-level time tags must be exact bounds of the rows they summarize
// (check_invariants verifies rows ⊆ bounds; this pins tightness too).
TEST(TieredFovIndexTest, RunTimeTagsAreTight) {
  svg::util::Xoshiro256 rng(13);
  TieredFovIndex idx({.memtable_capacity = 128});
  std::vector<RepresentativeFov> reps;
  for (int i = 0; i < 512; ++i) {
    reps.push_back(random_rep(rng));
    idx.insert(reps.back());
  }
  const auto stats = idx.run_stats();
  ASSERT_EQ(stats.runs.size(), 4u);
  for (std::size_t r = 0; r < stats.runs.size(); ++r) {
    TimestampMs lo = reps[r * 128].t_start, hi = reps[r * 128].t_end;
    for (std::size_t i = r * 128; i < (r + 1) * 128; ++i) {
      lo = std::min(lo, reps[i].t_start);
      hi = std::max(hi, reps[i].t_end);
    }
    EXPECT_EQ(stats.runs[r].ts_min, lo);
    EXPECT_EQ(stats.runs[r].ts_max, hi);
  }
}

// The index.query span shows the walk's work: rows scanned linearly in the
// memtable, and run blocks scanned after the block-index walk pruned the
// rest.
TEST(TieredFovIndexTest, QuerySpanCountsMemtableRowsAndBlocks) {
  struct TraceEvery {
    TraceEvery() {
      svg::obs::TracerConfig cfg;
      cfg.enabled = true;
      cfg.sample_every = 1;
      svg::obs::tracer().configure(cfg);
    }
    ~TraceEvery() { svg::obs::tracer().configure({}); }
  } const trace_every;
  // One 64-row run (four 16-row blocks), then 10 rows in the memtable.
  TieredFovIndex idx({.memtable_capacity = 64});
  RepresentativeFov r;
  for (std::uint32_t i = 0; i < 74; ++i) {
    r.segment_id = i;
    r.fov.p = {39.9 + 0.001 * i, 116.4};
    r.t_start = 1'000 + i;
    r.t_end = r.t_start + 10;
    idx.insert(r);
  }
  ASSERT_EQ(idx.run_stats().runs.size(), 1u);
  ASSERT_EQ(idx.run_stats().memtable_rows, 10u);

  struct Tags {
    std::uint64_t runs = 0, memtable_rows = 0, blocks = 0;
  };
  const auto traced = [&](const GeoTimeRange& range, std::size_t& hits) {
    Tags t;
    std::uint64_t trace_id = 0;
    {
      auto root = svg::obs::tracer().root_span("test.query");
      trace_id = root.trace_id();
      hits = idx.query_collect(range).size();
    }
    const auto stored = svg::obs::tracer().find_trace(trace_id);
    EXPECT_FALSE(stored.empty());
    if (stored.empty()) return t;
    const svg::obs::SpanRecord* span = stored[0]->find("index.query");
    EXPECT_NE(span, nullptr);
    if (span == nullptr) return t;
    EXPECT_TRUE(span->tag("runs", t.runs));
    EXPECT_TRUE(span->tag("memtable_rows", t.memtable_rows));
    EXPECT_TRUE(span->tag("blocks", t.blocks));
    return t;
  };

  std::size_t hits = 0;
  // Everything: the memtable's 10 rows and all 4 blocks scanned.
  const Tags all = traced({116.0, 117.0, 39.0, 41.0, 0, 10'000}, hits);
  EXPECT_EQ(hits, 74u);
  EXPECT_EQ(all.runs, 1u);
  EXPECT_EQ(all.memtable_rows, 10u);
  EXPECT_EQ(all.blocks, 4u);
  // A box west of every row: the memtable is still scanned, no block is.
  const Tags none = traced({115.0, 115.5, 39.0, 41.0, 0, 10'000}, hits);
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(none.memtable_rows, 10u);
  EXPECT_EQ(none.blocks, 0u);
}

}  // namespace
