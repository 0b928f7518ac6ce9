#include "store/recovery.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "index/fov_index.hpp"
#include "net/server.hpp"
#include "retrieval/engine.hpp"
#include "sim/crowd.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::store;
using svg::core::RepresentativeFov;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_recovery_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::vector<RepresentativeFov> sample_reps(std::size_t n,
                                           std::uint64_t seed = 1) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(seed);
  return svg::sim::random_representative_fovs(n, city, 1'400'000'000'000,
                                              86'400'000, rng);
}

/// Identity of a rep as restored through the fixed-point codec.
using RepKey = std::tuple<std::uint64_t, std::uint32_t, std::int64_t>;
RepKey key_of(const RepresentativeFov& r) {
  return {r.video_id, r.segment_id, r.t_start};
}

std::multiset<RepKey> keys_of(const std::vector<RepresentativeFov>& reps) {
  std::multiset<RepKey> out;
  for (const auto& r : reps) out.insert(key_of(r));
  return out;
}

/// Write `uploads` one-per-append into a fresh WAL dir; returns the reps of
/// each upload in order.
std::vector<std::vector<RepresentativeFov>> build_wal(
    const std::string& dir, std::size_t uploads, std::size_t reps_per_upload,
    std::uint64_t segment_bytes = 8ull << 20) {
  WalOptions opts;
  opts.dir = dir;
  opts.segment_bytes = segment_bytes;
  opts.fsync = FsyncPolicy::kAlways;
  auto open = wal_open(opts, 0, nullptr);
  EXPECT_TRUE(open.wal != nullptr) << open.error;
  const auto all = sample_reps(uploads * reps_per_upload, 17);
  std::vector<std::vector<RepresentativeFov>> batches;
  for (std::size_t u = 0; u < uploads; ++u) {
    std::vector<RepresentativeFov> batch(
        all.begin() + static_cast<std::ptrdiff_t>(u * reps_per_upload),
        all.begin() + static_cast<std::ptrdiff_t>((u + 1) * reps_per_upload));
    EXPECT_EQ(open.wal->append(encode_upload_record(batch)), u + 1);
    batches.push_back(std::move(batch));
  }
  return batches;
}

void copy_dir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive);
}

RecoverAndOpenResult recover_collect(const std::string& dir,
                                     std::vector<RepresentativeFov>& out) {
  WalOptions opts;
  opts.dir = dir;
  // These tests check what recovery restores, not what survives power
  // loss; skipping fsync keeps the every-offset sweep below ~1 s.
  opts.fsync = FsyncPolicy::kNone;
  return recover_and_open(
      opts, [&](std::span<const RepresentativeFov> reps) {
        out.insert(out.end(), reps.begin(), reps.end());
      });
}

// The core crash property: kill ingest at ANY byte offset of the final
// segment — recovery restores exactly the records wholly written before
// the cut (the acked prefix) and truncates the rest; never a torn record,
// never lost acked data.
TEST(RecoveryPropertyTest, TruncationAtEveryOffsetRestoresAckedPrefix) {
  ScopedDir dir("prop");
  const auto batches = build_wal(dir.path, 12, 8);
  const auto dump = wal_dump(dir.path);
  ASSERT_TRUE(dump.error.empty()) << dump.error;
  ASSERT_EQ(dump.segments.size(), 1u);
  const auto seg_path = dump.segments[0].path;
  const auto file_bytes = dump.segments[0].file_bytes;

  for (std::uint64_t cut = 0; cut <= file_bytes; ++cut) {
    ScopedDir crash("prop_cut");
    copy_dir(dir.path, crash.path);
    const auto crashed_seg =
        (std::filesystem::path(crash.path) /
         std::filesystem::path(seg_path).filename())
            .string();
    std::filesystem::resize_file(crashed_seg, cut);

    // Records surviving the cut: frame wholly before `cut`.
    std::size_t expect_records = 0;
    for (const auto& r : dump.records) {
      if (r.offset + 8 + r.payload_bytes <= cut) ++expect_records;
    }

    std::vector<RepresentativeFov> restored;
    auto open = recover_collect(crash.path, restored);
    ASSERT_TRUE(open.result.ok)
        << "cut at " << cut << ": " << open.result.error;
    EXPECT_EQ(open.result.wal_records_replayed, expect_records)
        << "cut at " << cut;
    EXPECT_EQ(open.result.next_seq, expect_records + 1) << "cut at " << cut;
    std::vector<RepresentativeFov> expected;
    for (std::size_t u = 0; u < expect_records; ++u) {
      expected.insert(expected.end(), batches[u].begin(), batches[u].end());
    }
    EXPECT_EQ(keys_of(restored), keys_of(expected)) << "cut at " << cut;

    // The repaired log must accept new appends at the right seq.
    const auto seq = open.wal->append(encode_upload_record(batches[0]));
    EXPECT_EQ(seq, expect_records + 1) << "cut at " << cut;
  }
}

TEST(RecoveryTest, BitFlipInFinalSegmentTruncatesThere) {
  ScopedDir dir("flip_final");
  const auto batches = build_wal(dir.path, 10, 4);
  const auto dump = wal_dump(dir.path);
  ASSERT_EQ(dump.segments.size(), 1u);
  // Flip one payload byte of record 7 (seq 7): records 1-6 survive, the
  // tail from record 7 on is truncated.
  const auto& victim = dump.records[6];
  {
    std::fstream f(dump.segments[0].path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(victim.offset + 8 + 1));
    char b = 0;
    f.seekg(static_cast<std::streamoff>(victim.offset + 8 + 1));
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(victim.offset + 8 + 1));
    f.write(&b, 1);
  }
  std::vector<RepresentativeFov> restored;
  auto open = recover_collect(dir.path, restored);
  ASSERT_TRUE(open.result.ok) << open.result.error;
  EXPECT_TRUE(open.result.tail_torn);
  EXPECT_EQ(open.result.wal_records_replayed, 6u);
  EXPECT_EQ(restored.size(), 6u * 4u);
}

TEST(RecoveryTest, BitFlipInMiddleSegmentFailsLoudly) {
  ScopedDir dir("flip_middle");
  build_wal(dir.path, 60, 4, /*segment_bytes=*/512);
  const auto dump = wal_dump(dir.path);
  ASSERT_GT(dump.segments.size(), 2u);
  // Corrupt a record in the FIRST segment — acked data in the middle of
  // the chain. Recovery must refuse, not silently skip.
  const auto& victim = dump.records[1];
  ASSERT_EQ(victim.segment, 0u);
  {
    std::fstream f(dump.segments[0].path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(victim.offset + 8));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(static_cast<std::streamoff>(victim.offset + 8));
    f.write(&b, 1);
  }
  std::vector<RepresentativeFov> restored;
  auto open = recover_collect(dir.path, restored);
  EXPECT_FALSE(open.result.ok);
  EXPECT_EQ(open.wal, nullptr);
  EXPECT_NE(open.result.error.find("non-final"), std::string::npos)
      << open.result.error;
}

TEST(RecoveryTest, MissingMiddleSegmentFailsLoudly) {
  ScopedDir dir("missing_middle");
  build_wal(dir.path, 60, 4, /*segment_bytes=*/512);
  auto dump = wal_dump(dir.path);
  ASSERT_GT(dump.segments.size(), 2u);
  std::filesystem::remove(dump.segments[1].path);

  std::vector<RepresentativeFov> restored;
  auto open = recover_collect(dir.path, restored);
  EXPECT_FALSE(open.result.ok);
  EXPECT_EQ(open.wal, nullptr);
  EXPECT_NE(open.result.error.find("missing"), std::string::npos)
      << open.result.error;

  // wal_dump diagnoses the same break.
  dump = wal_dump(dir.path);
  EXPECT_FALSE(dump.error.empty());
}

TEST(RecoveryTest, CorruptNewestSnapshotFallsBackToOlder) {
  ScopedDir dir("snap_fallback");
  const auto reps = sample_reps(100, 23);

  // Older, valid checkpoint covering seq 0 (no WAL yet).
  ASSERT_TRUE(
      save_snapshot_file(reps, checkpoint_path(dir.path, 0)));
  // Newer checkpoint, corrupted on disk.
  const auto newer = checkpoint_path(dir.path, 5);
  ASSERT_TRUE(save_snapshot_file(reps, newer, 5));
  {
    std::fstream f(newer, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(20);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x80);
    f.seekp(20);
    f.write(&b, 1);
  }

  std::vector<RepresentativeFov> restored;
  auto open = recover_collect(dir.path, restored);
  ASSERT_TRUE(open.result.ok) << open.result.error;
  EXPECT_EQ(open.result.snapshots_skipped, 1u);
  EXPECT_EQ(open.result.snapshot_seq, 0u);
  EXPECT_EQ(keys_of(restored), keys_of(reps));
}

// Checkpoint/ingest race: with a checkpoint every ~1ms racing concurrent
// ingest, a record must never be BOTH in a snapshot and replayed from the
// WAL (duplicate) nor in neither (loss). Exact multiset equality after
// restart catches both.
TEST(RecoveryTest, CheckpointRaceNeverDuplicatesOrLosesRecords) {
  ScopedDir dir("race");
  const auto all = sample_reps(600, 31);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 100;
  {
    svg::net::ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    dcfg.fsync = FsyncPolicy::kNone;  // stress scheduling, not the disk
    dcfg.checkpoint_interval_ms = 1;
    svg::net::CloudServer server({}, {}, dcfg);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          svg::net::UploadMessage msg;
          msg.video_id = static_cast<std::uint64_t>(t) * 1000 + i;
          msg.segments = {all[static_cast<std::size_t>(t * kPerThread + i)]};
          server.ingest(msg);
        }
      });
    }
    for (auto& th : threads) th.join();
    server.sync_wal();
  }
  std::vector<RepresentativeFov> restored;
  auto open = recover_collect(dir.path, restored);
  ASSERT_TRUE(open.result.ok) << open.result.error;
  EXPECT_EQ(restored.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(keys_of(restored), keys_of(all));
}

// A server recovered from checkpoint + WAL replay answers exactly as the
// paper's R-tree over the same records, restored through the same codec.
TEST(RecoveryTest, RecoveredServerMatchesFovIndexOracle) {
  ScopedDir dir("oracle");
  // A wide radius of view, so every query keeps a few dozen cameras.
  svg::retrieval::RetrievalConfig cfg;
  cfg.camera = {30.0, 1000.0};
  cfg.top_n = 25;
  {
    svg::net::ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    dcfg.segment_bytes = 2048;  // several segments
    svg::net::CloudServer server({}, cfg, dcfg);
    const auto all = sample_reps(400, 41);
    for (std::size_t i = 0; i < all.size(); i += 20) {
      // Checkpoint halfway: recovery loads the snapshot, then replays.
      if (i == all.size() / 2) {
        ASSERT_TRUE(server.checkpoint_now());
      }
      svg::net::UploadMessage msg;
      msg.video_id = i;
      msg.segments.assign(all.begin() + static_cast<std::ptrdiff_t>(i),
                          all.begin() + static_cast<std::ptrdiff_t>(i + 20));
      server.ingest(msg);
    }
    server.sync_wal();
  }

  // The oracle's records come from recovering a copy of the directory.
  std::vector<RepresentativeFov> restored;
  std::uint64_t next_seq = 0;
  {
    ScopedDir copy("oracle_copy");
    copy_dir(dir.path, copy.path);
    auto open = recover_collect(copy.path, restored);
    ASSERT_TRUE(open.result.ok) << open.result.error;
    next_seq = open.result.next_seq;
  }
  svg::index::FovIndex oracle_index;
  for (const auto& r : restored) oracle_index.insert(r);
  svg::retrieval::RetrievalEngine<svg::index::FovIndex> oracle(oracle_index,
                                                               cfg);

  svg::net::ServerDurabilityConfig dcfg;
  dcfg.data_dir = dir.path;
  svg::net::CloudServer server({}, cfg, dcfg);
  ASSERT_TRUE(server.recovery().ok);
  EXPECT_GT(server.recovery().wal_records_replayed, 0u);
  EXPECT_EQ(server.recovery().next_seq, next_seq);
  ASSERT_EQ(server.indexed_segments(), 400u);
  ASSERT_EQ(oracle_index.size(), 400u);

  const svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(43);
  std::size_t hits = 0;
  for (int i = 0; i < 16; ++i) {
    svg::retrieval::Query q;
    q.center = city.random_point(rng);
    q.radius_m = rng.uniform(100.0, 800.0);
    q.t_start = 1'400'000'000'000 +
                static_cast<svg::core::TimestampMs>(rng.bounded(43'200'000));
    q.t_end = q.t_start + 43'200'000;
    const auto want = oracle.search(q);
    const auto got = server.search(q);
    ASSERT_EQ(got.size(), want.size()) << "query " << i;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].rep.video_id, want[j].rep.video_id) << i << "/" << j;
      EXPECT_EQ(got[j].rep.segment_id, want[j].rep.segment_id) << i << "/" << j;
      EXPECT_EQ(got[j].rep.t_start, want[j].rep.t_start) << i << "/" << j;
      EXPECT_EQ(got[j].rep.t_end, want[j].rep.t_end) << i << "/" << j;
      EXPECT_EQ(got[j].rep.fov, want[j].rep.fov) << i << "/" << j;
      EXPECT_EQ(got[j].distance_m, want[j].distance_m) << i << "/" << j;
      EXPECT_EQ(got[j].relevance, want[j].relevance) << i << "/" << j;
    }
    hits += want.size();
  }
  EXPECT_GT(hits, 0u) << "every query came back empty";
}

TEST(RecoveryTest, SummaryMentionsWhatWasRestored) {
  ScopedDir dir("summary");
  build_wal(dir.path, 5, 3);
  std::vector<RepresentativeFov> restored;
  auto open = recover_collect(dir.path, restored);
  ASSERT_TRUE(open.result.ok) << open.result.error;
  const auto s = open.result.summary();
  EXPECT_NE(s.find("recovered 15 records"), std::string::npos) << s;
  EXPECT_NE(s.find("next seq 6"), std::string::npos) << s;
}

}  // namespace
