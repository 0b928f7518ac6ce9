// Idempotent ingest: the server absorbs retransmits by upload_id, and the
// dedup set survives WAL replay and checkpointing — a crashed server that
// replays its log still indexes each upload exactly once.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "net/wire.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;
using svg::core::RepresentativeFov;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_idem_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

UploadMessage sample_upload(std::uint64_t upload_id, std::uint64_t video_id,
                            std::size_t n, std::uint64_t seed) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(seed);
  UploadMessage msg;
  msg.upload_id = upload_id;
  msg.video_id = video_id;
  msg.segments = svg::sim::random_representative_fovs(
      n, city, 1'400'000'000'000, 3'600'000, rng);
  return msg;
}

TEST(IdempotentIngestTest, SameEncodedUploadNTimesIndexesOnce) {
  CloudServer server;
  const auto msg = sample_upload(777, 1, 10, 3);
  const auto bytes = encode_upload(msg);
  for (int i = 0; i < 25; ++i) {
    EXPECT_TRUE(server.handle_upload(bytes));  // dedup is success, not error
  }
  EXPECT_EQ(server.indexed_segments(), 10u);
  const auto s = server.stats();
  EXPECT_EQ(s.uploads_accepted, 1u);
  EXPECT_EQ(s.uploads_deduped, 24u);
  EXPECT_EQ(s.uploads_rejected, 0u);
  EXPECT_EQ(server.known_upload_ids(), 1u);
}

TEST(IdempotentIngestTest, AckedPathReportsDuplicateStatus) {
  CloudServer server;
  const auto bytes = encode_upload(sample_upload(42, 2, 6, 5));

  const auto first = server.handle_upload_acked(bytes);
  ASSERT_TRUE(first.has_value());
  const auto ack1 = decode_upload_ack(*first);
  ASSERT_TRUE(ack1.has_value());
  EXPECT_EQ(ack1->upload_id, 42u);
  EXPECT_EQ(ack1->status, UploadAckStatus::kAccepted);
  EXPECT_EQ(ack1->segments_indexed, 6u);

  const auto second = server.handle_upload_acked(bytes);
  ASSERT_TRUE(second.has_value());
  const auto ack2 = decode_upload_ack(*second);
  ASSERT_TRUE(ack2.has_value());
  EXPECT_EQ(ack2->status, UploadAckStatus::kDuplicate);
  EXPECT_EQ(server.indexed_segments(), 6u);
}

TEST(IdempotentIngestTest, LegacyIdlessUploadsBypassDedup) {
  CloudServer server;
  const auto msg = sample_upload(0, 3, 4, 7);  // upload_id 0 = legacy v1
  const auto bytes = encode_upload(msg);
  EXPECT_TRUE(server.handle_upload(bytes));
  EXPECT_TRUE(server.handle_upload(bytes));
  // No id, no dedup: indexed twice, exactly the pre-upload_id behaviour.
  EXPECT_EQ(server.indexed_segments(), 8u);
  EXPECT_EQ(server.stats().uploads_deduped, 0u);
  EXPECT_EQ(server.known_upload_ids(), 0u);
}

TEST(IdempotentIngestDurabilityTest, DedupSurvivesWalReplay) {
  ScopedDir dir("wal");
  const auto bytes = encode_upload(sample_upload(1001, 1, 8, 11));
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server({}, {}, dcfg);
    EXPECT_TRUE(server.handle_upload(bytes));
    EXPECT_TRUE(server.handle_upload(bytes));
    EXPECT_EQ(server.indexed_segments(), 8u);
    server.sync_wal();
  }
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server({}, {}, dcfg);
    EXPECT_EQ(server.indexed_segments(), 8u);
    EXPECT_EQ(server.known_upload_ids(), 1u);
    // A late retransmit after the crash is still absorbed.
    EXPECT_TRUE(server.handle_upload(bytes));
    EXPECT_EQ(server.indexed_segments(), 8u);
    EXPECT_EQ(server.stats().uploads_deduped, 1u);
  }
}

TEST(IdempotentIngestDurabilityTest, DedupSurvivesCheckpointAndRestart) {
  ScopedDir dir("ckpt");
  std::vector<std::vector<std::uint8_t>> uploads;
  for (std::uint64_t i = 0; i < 6; ++i) {
    uploads.push_back(
        encode_upload(sample_upload(2000 + i, i + 1, 5, 20 + i)));
  }
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server({}, {}, dcfg);
    // First half before the checkpoint…
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_TRUE(server.handle_upload(uploads[i]));
    ASSERT_TRUE(server.checkpoint_now());
    // …second half after it, so recovery merges snapshot ids + WAL ids.
    for (std::size_t i = 3; i < uploads.size(); ++i)
      EXPECT_TRUE(server.handle_upload(uploads[i]));
    server.sync_wal();
    EXPECT_EQ(server.known_upload_ids(), 6u);
  }
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server({}, {}, dcfg);
    EXPECT_EQ(server.indexed_segments(), 30u);
    EXPECT_EQ(server.known_upload_ids(), 6u);
    // Every original upload replayed post-restart dedups — exactly once.
    for (const auto& u : uploads) EXPECT_TRUE(server.handle_upload(u));
    EXPECT_EQ(server.indexed_segments(), 30u);
    EXPECT_EQ(server.stats().uploads_deduped, 6u);
  }
}

}  // namespace
