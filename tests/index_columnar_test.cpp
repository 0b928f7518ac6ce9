// The two kernels behind every tiered-index query: scan_range (two rows
// per compare, a scalar tail) against a plain per-row loop, and a sealed
// run's block-index walk (ColumnarRun::collect, float boxes rounded
// outward) against a scan of the whole run. Edge rows sit on, one ulp
// inside and one ulp outside every bound; edge boxes put every bound on
// some row's exact value.

#include "index/columnar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "index/tiered_fov_index.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::index;
using svg::core::RepresentativeFov;
using svg::core::TimestampMs;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The predicate written once, row by row, with no tricks.
std::vector<std::uint32_t> reference_scan(const FovColumns& cols,
                                          std::uint32_t begin,
                                          std::uint32_t end,
                                          const GeoTimeRange& r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = begin; i < end; ++i) {
    if (cols.lng[i] >= r.lng_min && cols.lng[i] <= r.lng_max &&
        cols.lat[i] >= r.lat_min && cols.lat[i] <= r.lat_max &&
        cols.te[i] >= r.t_start && cols.ts[i] <= r.t_end) {
      out.push_back(i);
    }
  }
  return out;
}

/// A coordinate for an edge row: on a bound, one ulp either side of it,
/// NaN, or anywhere in a margin around [lo, hi].
double edge_value(svg::util::Xoshiro256& rng, double lo, double hi) {
  switch (rng.bounded(9)) {
    case 0: return lo;
    case 1: return hi;
    case 2: return std::nextafter(lo, kInf);
    case 3: return std::nextafter(lo, -kInf);
    case 4: return std::nextafter(hi, -kInf);
    case 5: return std::nextafter(hi, kInf);
    case 6: return std::numeric_limits<double>::quiet_NaN();
    default: {
      const double margin = (hi - lo) * 0.5;
      return lo - margin + rng.uniform() * (hi - lo + 2 * margin);
    }
  }
}

TEST(ColumnarScanTest, MatchesScalarReference) {
  svg::util::Xoshiro256 rng(2024);
  const GeoTimeRange range{116.30, 116.40, 39.90, 39.95, 1'000'000,
                           2'000'000};
  for (int pool = 0; pool < 40; ++pool) {
    FovColumns cols;
    for (std::uint32_t i = 0; i < 71; ++i) {
      RepresentativeFov r;
      r.segment_id = i;
      r.fov.p = {edge_value(rng, range.lat_min, range.lat_max),
                 edge_value(rng, range.lng_min, range.lng_max)};
      r.fov.theta_deg = rng.uniform() * 360.0;
      // Intervals touching either end of the window, one ms short of it,
      // or anywhere around it.
      switch (rng.bounded(5)) {
        case 0:
          r.t_end = range.t_start;
          r.t_start = r.t_end - static_cast<TimestampMs>(rng.bounded(500));
          break;
        case 1:
          r.t_end = range.t_start - 1;
          r.t_start = r.t_end - static_cast<TimestampMs>(rng.bounded(500));
          break;
        case 2:
          r.t_start = range.t_end;
          r.t_end = r.t_start + static_cast<TimestampMs>(rng.bounded(500));
          break;
        case 3:
          r.t_start = range.t_end + 1;
          r.t_end = r.t_start + static_cast<TimestampMs>(rng.bounded(500));
          break;
        default:
          r.t_start = static_cast<TimestampMs>(rng.bounded(3'000'000));
          r.t_end = r.t_start + static_cast<TimestampMs>(rng.bounded(800'000));
      }
      cols.push_back(r);
    }
    for (std::uint32_t len = 0; len <= 67; ++len) {
      for (std::uint32_t begin = 0; begin <= 3; ++begin) {
        const std::uint32_t end = begin + len;
        // Append after rows already in `out`; they must survive untouched.
        std::vector<std::uint32_t> out{7, 9};
        const std::size_t appended = scan_range(cols, begin, end, range, out);
        const auto expect = reference_scan(cols, begin, end, range);
        ASSERT_EQ(appended, expect.size()) << "len " << len << " at " << begin;
        ASSERT_EQ(out.size(), 2 + expect.size());
        EXPECT_EQ(out[0], 7u);
        EXPECT_EQ(out[1], 9u);
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out.begin() + 2))
            << "pool " << pool << ", len " << len << " at " << begin;
      }
    }
  }
}

/// Rows in clusters at the map's corners and in a city, with intervals
/// from 1 ms to 30 years.
FovColumns run_rows(std::size_t n, svg::util::Xoshiro256& rng) {
  const svg::geo::LatLng centres[] = {
      {39.9, 116.4}, {89.9, 179.9}, {-89.9, -179.9}, {89.9, -179.9},
      {-89.9, 179.9}};
  constexpr TimestampMs kThirtyYears = 30LL * 365 * 24 * 3600 * 1000;
  FovColumns cols;
  cols.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = centres[rng.bounded(5)];
    RepresentativeFov r;
    r.video_id = 1 + rng.bounded(1000);
    r.segment_id = static_cast<std::uint32_t>(i);
    r.fov.p = {c.lat + (rng.uniform() - 0.5) * 0.1,
               c.lng + (rng.uniform() - 0.5) * 0.1};
    r.fov.theta_deg = rng.uniform() * 360.0;
    r.t_start = 1'400'000'000'000 +
                static_cast<TimestampMs>(rng.uniform() * 1e9) *
                    static_cast<TimestampMs>(rng.bounded(1000));
    switch (rng.bounded(3)) {
      case 0: r.t_end = r.t_start + 1; break;
      case 1:
        r.t_end = r.t_start + static_cast<TimestampMs>(rng.uniform() * 864e5);
        break;
      default:
        r.t_end = r.t_start +
                  static_cast<TimestampMs>(rng.uniform() *
                                           static_cast<double>(kThirtyYears));
    }
    cols.push_back(r);
  }
  return cols;
}


/// Checks `run` against a scan of all its rows over random boxes and edge
/// boxes, every tenth widened to ±inf on one side. Returns the blocks the
/// walk scanned.
std::size_t expect_collect_matches_scan(const ColumnarRun& run,
                                        svg::util::Xoshiro256& rng) {
  const FovColumns& cols = run.cols();
  const std::size_t n = cols.size();
  const auto row = [&] { return static_cast<std::size_t>(rng.bounded(n)); };
  std::size_t hits = 0;
  std::size_t blocks = 0;
  for (int q = 0; q < 300; ++q) {
    GeoTimeRange range;
    if (q % 2 == 0) {
      // Random: a box of 0.001°–1° around some row, any window.
      const std::size_t c = row();
      const double half = 0.001 * std::pow(1000.0, rng.uniform());
      range = {cols.lng[c] - half, cols.lng[c] + half, cols.lat[c] - half,
               cols.lat[c] + half,
               cols.ts[c] - static_cast<TimestampMs>(rng.uniform() * 1e11),
               cols.ts[c] + static_cast<TimestampMs>(rng.uniform() * 1e11)};
    } else {
      // Edges: every bound is some row's exact value; a quarter of them
      // shrink to one row's point and instant.
      const std::size_t a = row();
      const bool point = q % 4 == 1;
      const std::size_t b = point ? a : row();
      const std::size_t c = point ? a : row();
      const std::size_t d = point ? a : row();
      range = {std::min(cols.lng[a], cols.lng[b]),
               std::max(cols.lng[a], cols.lng[b]),
               std::min(cols.lat[c], cols.lat[d]),
               std::max(cols.lat[c], cols.lat[d]), cols.te[a], cols.ts[d]};
      if (q % 8 == 3) {
        range.t_start = cols.ts[a];
        range.t_end = cols.te[d];
      }
    }
    if (q % 10 == 9) {
      range.lng_min = -kInf;
      range.lat_max = kInf;
    }
    std::vector<std::uint32_t> expect;
    scan_range(cols, 0, static_cast<std::uint32_t>(n), range, expect);
    hits += expect.size();
    std::vector<std::uint32_t> got;
    blocks += run.collect(range, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << n << " rows, query " << q;
    if (got != expect) break;
  }
  EXPECT_GT(hits, 0u) << "no query hit a row of " << n;
  return blocks;
}

TEST(ColumnarRunTest, CollectMatchesFullScan) {
  svg::util::Xoshiro256 rng(99);
  for (const std::size_t n : {1u, 15u, 16u, 17u, 257u, 4096u, 70'000u}) {
    const FovColumns rows = run_rows(n, rng);
    const auto run = ColumnarRun::build({&rows}, {});
    ASSERT_EQ(run->size(), n);
    run->check_invariants();
    const std::size_t blocks = expect_collect_matches_scan(*run, rng);
    // The walk prunes: far fewer blocks scanned than a full scan's.
    if (n >= 4096) {
      EXPECT_LT(blocks, 300 * ((n + 15) / 16) / 4);
    }
  }
  // Coordinates past the float range (the casts go to ±inf and step back
  // to ±FLT_MAX) and on it.
  FovColumns rows = run_rows(400, rng);
  const double huge[] = {1e300, -1e300, 3.5e38, -3.5e38,
                         std::numeric_limits<float>::max(),
                         -std::numeric_limits<float>::max()};
  for (std::size_t i = 0; i < rows.size(); i += 3) {
    (i % 2 == 0 ? rows.lng : rows.lat)[i] = huge[rng.bounded(6)];
  }
  const auto run = ColumnarRun::build({&rows}, {});
  run->check_invariants();
  (void)expect_collect_matches_scan(*run, rng);
}

// A run built from parts equals one built from their concatenation: the
// same columns, the same block levels, the same time bounds.
TEST(ColumnarRunTest, PartsBuildEqualsConcatenation) {
  svg::util::Xoshiro256 rng(77);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n_parts = 1 + rng.bounded(5);
    std::vector<FovColumns> parts;
    FovColumns whole;
    for (std::size_t p = 0; p < n_parts; ++p) {
      const std::size_t n = rng.bounded(4) == 0
                                ? 1
                                : 1 + rng.bounded(round < 30 ? 300 : 5000);
      parts.push_back(run_rows(n, rng));
      if (round % 3 == 0 && p > 0) {
        // Rows tying the previous part's on every key.
        parts[p].lng[0] = parts[p - 1].lng.back();
        parts[p].lat[0] = parts[p - 1].lat.back();
        parts[p].ts[0] = parts[p - 1].ts.back();
        parts[p].te[0] = parts[p - 1].te.back();
      }
      for (std::size_t i = 0; i < parts[p].size(); ++i) {
        whole.push_back(parts[p].rep_at(i));
      }
    }
    std::vector<const FovColumns*> ptrs;
    for (const FovColumns& p : parts) ptrs.push_back(&p);
    const auto got = ColumnarRun::build(ptrs, {});
    const auto want = ColumnarRun::build({&whole}, {});
    got->check_invariants();
    const FovColumns& a = got->cols();
    const FovColumns& b = want->cols();
    const auto same_bits = [](const std::vector<double>& x,
                              const std::vector<double>& y) {
      return x.size() == y.size() &&
             std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
    };
    ASSERT_EQ(a.size(), whole.size()) << "round " << round;
    EXPECT_TRUE(same_bits(a.lng, b.lng)) << "round " << round;
    EXPECT_TRUE(same_bits(a.lat, b.lat)) << "round " << round;
    EXPECT_TRUE(same_bits(a.theta, b.theta)) << "round " << round;
    EXPECT_TRUE(same_bits(a.dir_east, b.dir_east)) << "round " << round;
    EXPECT_TRUE(same_bits(a.dir_north, b.dir_north)) << "round " << round;
    EXPECT_EQ(a.ts, b.ts) << "round " << round;
    EXPECT_EQ(a.te, b.te) << "round " << round;
    EXPECT_EQ(a.video_id, b.video_id) << "round " << round;
    EXPECT_EQ(a.segment_id, b.segment_id) << "round " << round;
    EXPECT_EQ(got->ts_min(), want->ts_min()) << "round " << round;
    EXPECT_EQ(got->ts_max(), want->ts_max()) << "round " << round;
    ASSERT_EQ(got->levels().size(), want->levels().size()) << "round " << round;
    for (std::size_t l = 0; l < got->levels().size(); ++l) {
      const auto& x = got->levels()[l];
      const auto& y = want->levels()[l];
      ASSERT_EQ(x.size(), y.size()) << "round " << round << ", level " << l;
      EXPECT_EQ(std::memcmp(x.data(), y.data(),
                            x.size() * sizeof(ColumnarRun::BlockEntry)),
                0)
          << "round " << round << ", level " << l;
    }
  }
}

}  // namespace
