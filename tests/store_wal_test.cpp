#include "store/wal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "store/snapshot.hpp"
#include "util/bytes.hpp"

namespace {

using namespace svg::store;

/// Fresh empty directory for one test, removed on destruction.
struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_wal_test_" + tag + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::vector<std::uint8_t> payload_of(std::uint64_t i, std::size_t len = 32) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t j = 0; j < len; ++j) {
    p[j] = static_cast<std::uint8_t>(i * 131 + j);
  }
  return p;
}

/// Replay everything in dir into (seq, payload) pairs.
std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> replay_all(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> out;
  WalOptions opts;
  opts.dir = dir;
  auto open = wal_open(opts, 0,
                       [&](std::uint64_t seq,
                           std::span<const std::uint8_t> payload) {
                         out.emplace_back(seq, std::vector<std::uint8_t>(
                                                   payload.begin(),
                                                   payload.end()));
                       });
  EXPECT_TRUE(open.wal != nullptr) << open.error;
  return out;
}

TEST(WalTest, AppendCloseReplayRoundTrip) {
  ScopedDir dir("roundtrip");
  WalOptions opts;
  opts.dir = dir.path;
  opts.fsync = FsyncPolicy::kAlways;
  {
    auto open = wal_open(opts, 0, nullptr);
    ASSERT_TRUE(open.wal != nullptr) << open.error;
    for (std::uint64_t i = 1; i <= 50; ++i) {
      EXPECT_EQ(open.wal->append(payload_of(i)), i);
    }
    EXPECT_EQ(open.wal->last_seq(), 50u);
    EXPECT_EQ(open.wal->durable_seq(), 50u);  // kAlways: acked == durable
  }
  const auto records = replay_all(dir.path);
  ASSERT_EQ(records.size(), 50u);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    EXPECT_EQ(records[i - 1].first, i);
    EXPECT_EQ(records[i - 1].second, payload_of(i));
  }
}

TEST(WalTest, EmptyLogOpensCleanly) {
  ScopedDir dir("empty");
  WalOptions opts;
  opts.dir = dir.path;
  std::size_t replayed = 0;
  auto open = wal_open(opts, 0, [&](std::uint64_t,
                                    std::span<const std::uint8_t>) {
    ++replayed;
  });
  ASSERT_TRUE(open.wal != nullptr) << open.error;
  EXPECT_EQ(replayed, 0u);
  EXPECT_EQ(open.stats.segments_scanned, 0u);
  EXPECT_EQ(open.stats.next_seq, 1u);
  EXPECT_FALSE(open.stats.tail_torn);
  EXPECT_EQ(open.wal->append(payload_of(1)), 1u);
}

TEST(WalTest, EmptyPayloadIsRejected) {
  ScopedDir dir("emptypayload");
  WalOptions opts;
  opts.dir = dir.path;
  auto open = wal_open(opts, 0, nullptr);
  ASSERT_TRUE(open.wal != nullptr) << open.error;
  EXPECT_EQ(open.wal->append({}), 0u);
  EXPECT_TRUE(open.wal->ok());
  EXPECT_EQ(open.wal->append(payload_of(7)), 1u);
}

TEST(WalTest, RotationAtSegmentBoundary) {
  ScopedDir dir("rotation");
  WalOptions opts;
  opts.dir = dir.path;
  opts.segment_bytes = 256;  // a few records per segment
  opts.fsync = FsyncPolicy::kAlways;
  {
    auto open = wal_open(opts, 0, nullptr);
    ASSERT_TRUE(open.wal != nullptr) << open.error;
    for (std::uint64_t i = 1; i <= 40; ++i) {
      ASSERT_EQ(open.wal->append(payload_of(i, 64)), i);
    }
    EXPECT_GT(open.wal->segment_files().size(), 1u);
  }
  const auto dump = wal_dump(dir.path);
  EXPECT_TRUE(dump.error.empty()) << dump.error;
  EXPECT_GT(dump.segments.size(), 1u);
  // Segment first_seqs must partition 1..40 contiguously.
  std::uint64_t expected = 1;
  for (const auto& s : dump.segments) {
    EXPECT_EQ(s.first_seq, expected);
    expected += s.records;
  }
  EXPECT_EQ(expected, 41u);
  const auto records = replay_all(dir.path);
  ASSERT_EQ(records.size(), 40u);
  for (std::uint64_t i = 1; i <= 40; ++i) {
    EXPECT_EQ(records[i - 1].second, payload_of(i, 64));
  }
}

TEST(WalTest, ConcurrentAppendersGetUniqueContiguousSeqs) {
  ScopedDir dir("concurrent");
  WalOptions opts;
  opts.dir = dir.path;
  opts.fsync = FsyncPolicy::kAlways;  // every ack is a durability promise
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::vector<std::uint64_t>> seqs(kThreads);
  {
    auto open = wal_open(opts, 0, nullptr);
    ASSERT_TRUE(open.wal != nullptr) << open.error;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const auto seq = open.wal->append(
              payload_of(static_cast<std::uint64_t>(t) * 1000 + i));
          ASSERT_NE(seq, 0u);
          seqs[t].push_back(seq);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  std::set<std::uint64_t> all;
  for (const auto& v : seqs) {
    // Per-thread acks must be monotonically increasing.
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    all.insert(v.begin(), v.end());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(*all.begin(), 1u);
  EXPECT_EQ(*all.rbegin(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(replay_all(dir.path).size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(WalTest, SyncPromotesDurableSeqUnderBatchPolicy) {
  ScopedDir dir("sync");
  WalOptions opts;
  opts.dir = dir.path;
  opts.fsync = FsyncPolicy::kBatch;
  opts.batch_flush_bytes = 1ull << 30;       // never by size
  opts.batch_flush_interval_ms = 60'000;     // never by time (in this test)
  auto open = wal_open(opts, 0, nullptr);
  ASSERT_TRUE(open.wal != nullptr) << open.error;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    EXPECT_EQ(open.wal->append(payload_of(i)), i);
  }
  EXPECT_EQ(open.wal->last_seq(), 10u);
  open.wal->sync();
  EXPECT_EQ(open.wal->durable_seq(), 10u);
}

TEST(WalTest, ReopenResumesAppendingIntoLastSegment) {
  ScopedDir dir("resume");
  WalOptions opts;
  opts.dir = dir.path;
  {
    auto open = wal_open(opts, 0, nullptr);
    ASSERT_TRUE(open.wal != nullptr) << open.error;
    for (std::uint64_t i = 1; i <= 5; ++i) {
      ASSERT_EQ(open.wal->append(payload_of(i)), i);
    }
  }
  {
    auto open = wal_open(opts, 0, nullptr);
    ASSERT_TRUE(open.wal != nullptr) << open.error;
    EXPECT_EQ(open.stats.next_seq, 6u);
    for (std::uint64_t i = 6; i <= 10; ++i) {
      ASSERT_EQ(open.wal->append(payload_of(i)), i);
    }
    // Plenty of room in the first segment, so the chain is still one file.
    EXPECT_EQ(open.wal->segment_files().size(), 1u);
  }
  const auto records = replay_all(dir.path);
  ASSERT_EQ(records.size(), 10u);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    EXPECT_EQ(records[i - 1].first, i);
    EXPECT_EQ(records[i - 1].second, payload_of(i));
  }
}

TEST(WalTest, RetireThroughDeletesCoveredSegmentsOnly) {
  ScopedDir dir("retire");
  WalOptions opts;
  opts.dir = dir.path;
  opts.segment_bytes = 256;
  auto open = wal_open(opts, 0, nullptr);
  ASSERT_TRUE(open.wal != nullptr) << open.error;
  for (std::uint64_t i = 1; i <= 40; ++i) {
    ASSERT_EQ(open.wal->append(payload_of(i, 64)), i);
  }
  const auto before = open.wal->segment_files();
  ASSERT_GT(before.size(), 2u);

  // Nothing covered → nothing retired.
  EXPECT_EQ(open.wal->retire_through(0), 0u);

  // Retire through the middle of the chain; the cut must land on a
  // segment boundary (a segment survives unless ALL its records are
  // covered) and the active segment must always survive.
  const std::size_t removed = open.wal->retire_through(20);
  const auto after = open.wal->segment_files();
  EXPECT_EQ(after.size(), before.size() - removed);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(after.back(), before.back());
  for (const auto& path : after) {
    EXPECT_TRUE(std::filesystem::exists(path));
  }

  // Everything covered: all but the active segment go.
  open.wal->retire_through(40);
  EXPECT_EQ(open.wal->segment_files().size(), 1u);

  // Replay from the covering watermark still works on the trimmed chain.
  WalOptions ropts = opts;
  std::size_t replayed = 0;
  auto reopen = wal_open(ropts, 40, [&](std::uint64_t,
                                        std::span<const std::uint8_t>) {
    ++replayed;
  });
  EXPECT_TRUE(reopen.wal != nullptr) << reopen.error;
  EXPECT_EQ(replayed, 0u);
  EXPECT_EQ(reopen.stats.next_seq, 41u);
}

TEST(WalTest, DumpReportsFrameOffsetsAndSizes) {
  ScopedDir dir("dump");
  WalOptions opts;
  opts.dir = dir.path;
  {
    auto open = wal_open(opts, 0, nullptr);
    ASSERT_TRUE(open.wal != nullptr) << open.error;
    for (std::uint64_t i = 1; i <= 4; ++i) {
      ASSERT_EQ(open.wal->append(payload_of(i, 16 * i)), i);
    }
  }
  const auto dump = wal_dump(dir.path);
  ASSERT_TRUE(dump.error.empty()) << dump.error;
  ASSERT_EQ(dump.records.size(), 4u);
  std::uint64_t off = 16;  // segment header
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const auto& r = dump.records[i - 1];
    EXPECT_EQ(r.seq, i);
    EXPECT_EQ(r.offset, off);
    EXPECT_EQ(r.payload_bytes, 16 * i);
    off += 8 + r.payload_bytes;  // frame header + payload
  }
  EXPECT_EQ(dump.segments.at(0).file_bytes, off);
}

std::vector<svg::core::RepresentativeFov> codec_reps() {
  std::vector<svg::core::RepresentativeFov> reps;
  for (std::uint32_t i = 0; i < 5; ++i) {
    svg::core::RepresentativeFov r;
    r.video_id = 100 + i;
    r.segment_id = i;
    r.fov.p.lat = 39.9 + 0.001 * i;  // exactly representable at 1e-7°
    r.fov.p.lng = 116.4 - 0.002 * i;
    r.fov.theta_deg = 10.0 * i;  // exactly representable at centi-degrees
    r.t_start = 1'400'000'000'000 + 5'000 * i;
    r.t_end = r.t_start + 3'000;
    reps.push_back(r);
  }
  return reps;
}

TEST(WalRecordCodecTest, IdlessRecordsShareTheOneLayout) {
  const auto reps = codec_reps();
  const auto bytes = encode_upload_record(reps);  // default upload_id = 0
  ASSERT_GE(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], kWalRecUpload);
  EXPECT_EQ(bytes[1], 0u);  // the id varint, 0 = no dedup id
  const auto rec = decode_upload_record(bytes);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->upload_id, 0u);
  ASSERT_EQ(rec->reps.size(), reps.size());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ(rec->reps[i].video_id, reps[i].video_id);
    EXPECT_EQ(rec->reps[i].segment_id, reps[i].segment_id);
    EXPECT_DOUBLE_EQ(rec->reps[i].fov.p.lat, reps[i].fov.p.lat);
    EXPECT_DOUBLE_EQ(rec->reps[i].fov.p.lng, reps[i].fov.p.lng);
    EXPECT_EQ(rec->reps[i].t_start, reps[i].t_start);
    EXPECT_EQ(rec->reps[i].t_end, reps[i].t_end);
  }
  // The id-less type-1 layout (u8 1 | count | records) does not decode.
  svg::util::ByteWriter w;
  w.put_u8(1);
  w.put_varint(reps.size());
  put_rep_records(w, reps);
  EXPECT_FALSE(decode_upload_record(w.bytes()).has_value());
}

TEST(WalRecordCodecTest, V2RoundTripsUploadId) {
  const auto reps = codec_reps();
  const auto bytes = encode_upload_record(reps, 0xABCDEF0123456789ULL);
  EXPECT_EQ(bytes[0], kWalRecUpload);
  // The record layout, pinned byte for byte.
  const std::vector<std::uint8_t> pinned{
      0x02, 0x89, 0xCF, 0x95, 0x9A, 0x92, 0xE0, 0xFB, 0xE6, 0xAB, 0x01, 0x05,
      0x64, 0x00, 0x80, 0x87, 0xC2, 0xFC, 0x02, 0x80, 0xEC, 0x89, 0xD6, 0x08,
      0x00, 0x00, 0x80, 0xC0, 0x85, 0xE8, 0xBE, 0x51, 0xB8, 0x17, 0x65, 0x01,
      0xA0, 0x9C, 0x01, 0xBF, 0xB8, 0x02, 0xE8, 0x03, 0x90, 0x4E, 0xB8, 0x17,
      0x66, 0x02, 0xA0, 0x9C, 0x01, 0xBF, 0xB8, 0x02, 0xD0, 0x07, 0x90, 0x4E,
      0xB8, 0x17, 0x67, 0x03, 0xA0, 0x9C, 0x01, 0xBF, 0xB8, 0x02, 0xB8, 0x0B,
      0x90, 0x4E, 0xB8, 0x17, 0x68, 0x04, 0xA0, 0x9C, 0x01, 0xBF, 0xB8, 0x02,
      0xA0, 0x0F, 0x90, 0x4E, 0xB8, 0x17};
  EXPECT_EQ(bytes, pinned);
  const auto rec = decode_upload_record(bytes);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->upload_id, 0xABCDEF0123456789ULL);
  EXPECT_EQ(rec->reps.size(), reps.size());
}

TEST(WalRecordCodecTest, RejectsUnknownTypeTruncationAndTrailingBytes) {
  const auto reps = codec_reps();
  const auto bytes = encode_upload_record(reps, 42);
  {
    auto bad = bytes;
    bad[0] = 99;  // unknown record type
    EXPECT_FALSE(decode_upload_record(bad).has_value());
  }
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_upload_record({bytes.data(), cut}).has_value())
        << "cut at " << cut;
  }
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(decode_upload_record(trailing).has_value());
}

}  // namespace
