// Concurrency suite for TieredFovIndex: writers sealing runs mid-query,
// manual compactions racing the background compactor, and a fast
// background compactor merging under everything. Run under
// SVG_SANITIZE=thread in CI — the interesting property is data-race
// freedom across the memtable swap, the sealing buffer hand-off, and the
// run-list swap; the functional property is that no query ever observes a
// torn set (every inserted row is visible exactly once or not yet visible,
// never twice).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "index/tiered_fov_index.hpp"

namespace {

using namespace svg::index;
using svg::core::RepresentativeFov;
using svg::core::TimestampMs;

RepresentativeFov make_rep(std::uint64_t video, std::uint32_t seg) {
  RepresentativeFov r;
  r.video_id = video;
  r.segment_id = seg;
  // All rows in one tight cell so every query range covers everything —
  // maximum overlap between scans and structural churn.
  r.fov.p = {39.9 + static_cast<double>(seg % 97) * 1e-4,
             116.4 + static_cast<double>(seg % 89) * 1e-4};
  r.fov.theta_deg = static_cast<double>(seg % 360);
  r.t_start = static_cast<TimestampMs>(1'000 * seg);
  r.t_end = r.t_start + 5'000;
  return r;
}

// Writers seal runs while readers query: every query must see a count
// consistent with a prefix-per-writer of the insert streams (reads under
// the shared lock are atomic w.r.t. the memtable→sealing→run hand-offs,
// so no row may be seen twice or dropped mid-seal).
TEST(TieredStressTest, ConcurrentWritersSealingMidQuery) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2'000;
  constexpr std::size_t kTotal = std::size_t{kWriters} * kPerWriter;
  // Tiny memtable: each writer triggers many seals, so queries constantly
  // overlap a seal in flight. Background compactor on a 1 ms cadence keeps
  // the run list churning underneath them.
  TieredFovIndex idx({.memtable_capacity = 64,
                      .compact_fanin = 3,
                      .compact_interval_ms = 1});
  const GeoTimeRange everything{116.0, 117.0, 39.0, 40.0, 0,
                                10'000'000'000};

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> partial{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto scan_start = std::chrono::steady_clock::now();
        // Per-(writer, seq) visibility bitmap for this scan.
        std::vector<std::uint8_t> seen(kTotal, 0);
        bool dup = false;
        std::size_t rows = 0;
        idx.query(everything, [&](const RepresentativeFov& rep) {
          const auto slot = (rep.video_id - 1) * kPerWriter + rep.segment_id;
          dup |= seen[slot]++ != 0;
          ++rows;
        });
        if (dup) torn.fetch_add(1, std::memory_order_relaxed);
        if (rows > 0 && rows < kTotal) {
          partial.fetch_add(1, std::memory_order_relaxed);
        }
        // glibc's shared_mutex prefers readers: scans run back to back
        // would keep the writers locked out, so each reader pauses between
        // scans for as long as its last scan took (20 µs at least). A
        // fixed pause let readers whose scans take milliseconds (under
        // TSan) hold the writers off for over a minute.
        const std::chrono::steady_clock::duration last_scan =
            std::chrono::steady_clock::now() - scan_start;
        std::this_thread::sleep_for(
            std::max<std::chrono::steady_clock::duration>(
                last_scan, std::chrono::microseconds(20)));
      }
    });
  }

  // Each writer stops halfway through its stream until some reader has
  // finished a scan that saw part of the stream, so a scan overlaps the
  // writers by construction, however fast the inserts run. The wait is
  // bounded; running out of it fails the test.
  std::atomic<bool> overlap_timed_out{false};
  const auto await_partial_scan = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (partial.load(std::memory_order_relaxed) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        overlap_timed_out.store(true, std::memory_order_relaxed);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        if (i == kPerWriter / 2) await_partial_scan();
        idx.insert(make_rep(static_cast<std::uint64_t>(w + 1),
                            static_cast<std::uint32_t>(i)));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(overlap_timed_out.load());
  EXPECT_EQ(torn.load(), 0u);
  // Some scans overlapped the writers — the check above is not vacuous.
  EXPECT_GT(partial.load(), 0u);
  EXPECT_EQ(idx.size(), kTotal);
  idx.check_invariants();
  // Everything is visible after the writers drain.
  std::size_t total = 0;
  idx.query(everything, [&](const RepresentativeFov&) { ++total; });
  EXPECT_EQ(total, kTotal);
}

// Manual full compactions race the 1 ms background compactor under a
// reader while a writer keeps sealing new runs. compact_mu_ serializes the
// two compactors and each run-list swap is atomic under the lock, so every
// scan sees each row inserted before it exactly once: never twice (an input
// run beside its merged replacement) and never not at all (an input dropped
// before its replacement landed). One writer inserts segment ids in order,
// so a consistent scan sees exactly the ids [0, n).
TEST(TieredStressTest, CompactorsRaceUnderReaderSeeEachRowOnce) {
  TieredFovIndex idx({.memtable_capacity = 64, .compact_interval_ms = 1});
  constexpr std::uint32_t kRounds = 16;
  constexpr std::uint32_t kPerRound = 256;  // four seals per round
  constexpr std::uint32_t kRows = kRounds * kPerRound;
  const GeoTimeRange everything{116.0, 117.0, 39.0, 40.0, 0,
                                10'000'000'000};

  std::atomic<std::uint32_t> inserted{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> bad_scans{0};
  std::thread reader([&] {
    std::vector<std::uint32_t> seen(kRows);
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint32_t floor = inserted.load(std::memory_order_acquire);
      std::fill(seen.begin(), seen.end(), 0u);
      std::uint32_t rows = 0;
      idx.query(everything, [&](const RepresentativeFov& rep) {
        ++seen[rep.segment_id];
        ++rows;
      });
      bool exact = rows >= floor;
      for (std::uint32_t i = 0; i < kRows; ++i) {
        exact = exact && seen[i] == (i < rows ? 1u : 0u);
      }
      if (!exact) bad_scans.fetch_add(1, std::memory_order_relaxed);
      scans.fetch_add(1, std::memory_order_relaxed);
      // Let the writer and the compactors in (see the first test).
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  std::size_t manual_merges = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t i = 0; i < kPerRound; ++i) {
      idx.insert(make_rep(1, round * kPerRound + i));
      inserted.fetch_add(1, std::memory_order_release);
    }
    if (idx.compact_now(/*full=*/true) > 0) ++manual_merges;
  }
  // Keep the reader going until it has finished at least one scan.
  while (scans.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(bad_scans.load(), 0u);
  EXPECT_GT(manual_merges, 0u);
  EXPECT_EQ(idx.size(), kRows);
  idx.check_invariants();
  std::vector<std::uint32_t> seen(kRows, 0);
  idx.query(everything,
            [&](const RepresentativeFov& rep) { ++seen[rep.segment_id]; });
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1u),
            static_cast<std::ptrdiff_t>(kRows));
}

// insert_batch bursts against queries and the background compactor — the
// ingest path CloudServer actually drives.
TEST(TieredStressTest, BatchIngestUnderQueryLoad) {
  TieredFovIndex idx({.memtable_capacity = 128,
                      .compact_fanin = 2,
                      .compact_interval_ms = 1});
  const GeoTimeRange everything{116.0, 117.0, 39.0, 40.0, 0,
                                10'000'000'000};
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::size_t n = 0;
      idx.query(everything, [&](const RepresentativeFov&) { ++n; });
    }
  });
  constexpr int kBatches = 40;
  constexpr std::uint32_t kBatchSize = 200;
  std::vector<std::thread> writers;
  writers.reserve(2);
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<RepresentativeFov> batch;
        batch.reserve(kBatchSize);
        for (std::uint32_t i = 0; i < kBatchSize; ++i) {
          batch.push_back(make_rep(
              static_cast<std::uint64_t>(w + 1),
              static_cast<std::uint32_t>(b) * kBatchSize + i));
        }
        idx.insert_batch(batch);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(idx.size(), 2u * kBatches * kBatchSize);
  idx.check_invariants();
}

}  // namespace
