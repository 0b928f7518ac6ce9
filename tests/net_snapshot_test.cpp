#include "store/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "index/fov_index.hpp"
#include "net/server.hpp"
#include "sim/crowd.hpp"
#include "store/env.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::store;
using svg::core::RepresentativeFov;
using svg::net::UploadMessage;

std::vector<RepresentativeFov> sample_reps(std::size_t n,
                                           std::uint64_t seed = 1) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(seed);
  return svg::sim::random_representative_fovs(n, city, 1'400'000'000'000,
                                              86'400'000, rng);
}

TEST(SnapshotCodecTest, RoundTripPreservesRecords) {
  const auto reps = sample_reps(500);
  const auto back = decode_snapshot(encode_snapshot(reps));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), reps.size());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ((*back)[i].video_id, reps[i].video_id);
    EXPECT_EQ((*back)[i].segment_id, reps[i].segment_id);
    EXPECT_NEAR((*back)[i].fov.p.lat, reps[i].fov.p.lat, 1e-6);
    EXPECT_NEAR((*back)[i].fov.p.lng, reps[i].fov.p.lng, 1e-6);
    EXPECT_NEAR((*back)[i].fov.theta_deg, reps[i].fov.theta_deg, 0.011);
    EXPECT_EQ((*back)[i].t_start, reps[i].t_start);
    EXPECT_EQ((*back)[i].t_end, reps[i].t_end);
  }
}

TEST(SnapshotCodecTest, EmptySnapshot) {
  const auto back = decode_snapshot(encode_snapshot({}));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(SnapshotCodecTest, CompactSize) {
  const auto reps = sample_reps(10'000);
  const auto bytes = encode_snapshot(reps);
  // Delta coding should keep this around 20-25 B/record even for randomly
  // ordered records.
  EXPECT_LT(bytes.size(), 30u * reps.size());
}

TEST(SnapshotCodecTest, RejectsBadMagicVersionAndTruncation) {
  const auto reps = sample_reps(10);
  auto bytes = encode_snapshot(reps);
  {
    auto bad = bytes;
    bad[0] = 'x';
    EXPECT_FALSE(decode_snapshot(bad).has_value());
  }
  {
    auto bad = bytes;
    bad[4] = 0xFF;  // version
    EXPECT_FALSE(decode_snapshot(bad).has_value());
  }
  {
    auto bad = bytes;
    bad.resize(bad.size() / 2);
    EXPECT_FALSE(decode_snapshot(bad).has_value());
  }
  EXPECT_FALSE(decode_snapshot({}).has_value());
}

TEST(SnapshotCodecTest, CrcTrailerDetectsBitFlipAnywhere) {
  const auto reps = sample_reps(50, 6);
  const auto bytes = encode_snapshot(reps);
  ASSERT_TRUE(decode_snapshot(bytes).has_value());
  // Flip one bit in a sampling of positions across header, body, and the
  // CRC trailer itself — every flip must turn into a clean decode failure.
  for (std::size_t i = 6; i < bytes.size(); i += 7) {
    auto bad = bytes;
    bad[i] ^= 0x10;
    EXPECT_FALSE(decode_snapshot(bad).has_value()) << "flip at byte " << i;
  }
}

TEST(SnapshotCodecTest, CrcTrailerDetectsTruncation) {
  const auto reps = sample_reps(50, 7);
  const auto bytes = encode_snapshot(reps);
  // Any shortened prefix long enough to carry magic+version must fail on
  // the CRC, including cuts inside the trailer itself.
  for (std::size_t keep = 6; keep < bytes.size(); ++keep) {
    EXPECT_FALSE(
        decode_snapshot({bytes.data(), keep}).has_value())
        << "truncated to " << keep;
  }
}

TEST(SnapshotCodecTest, LastSeqRoundTripsThroughV2) {
  const auto reps = sample_reps(20, 8);
  const auto full = decode_snapshot_full(encode_snapshot(reps, 12345));
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->last_seq, 12345u);
  EXPECT_EQ(full->reps.size(), reps.size());
}

TEST(SnapshotCodecTest, PreV3LayoutsAreRejected) {
  const auto reps = sample_reps(30, 9);
  const std::uint8_t magic[4] = {'S', 'V', 'G', 'X'};
  // v1: magic | u16 version=1 | varint count | records — no last_seq, no
  // CRC trailer.
  svg::util::ByteWriter v1;
  v1.put_bytes(magic);
  v1.put_u16(1);
  v1.put_varint(reps.size());
  put_rep_records(v1, reps);
  EXPECT_FALSE(decode_snapshot_full(v1.bytes()).has_value());
  // v2: v3 without the upload_id section, sealed with a valid CRC.
  svg::util::ByteWriter v2;
  v2.put_bytes(magic);
  v2.put_u16(2);
  v2.put_u64(777);
  v2.put_varint(reps.size());
  put_rep_records(v2, reps);
  EXPECT_FALSE(decode_snapshot_full(svg::util::seal(v2)).has_value());
}

TEST(SnapshotCodecTest, UploadIdsRoundTripThroughV3) {
  const auto reps = sample_reps(20, 10);
  const std::vector<std::uint64_t> ids{
      0xDEADBEEFULL, 3, 0xFFFFFFFFFFFFFFFFULL, 42, 7'000'000'000ULL};
  const auto full = decode_snapshot_full(encode_snapshot(reps, 99, ids));
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->last_seq, 99u);
  EXPECT_EQ(full->reps.size(), reps.size());
  auto want = ids;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(full->upload_ids, want);  // stored sorted (delta-encoded)

  // The file layout, pinned byte for byte.
  std::vector<RepresentativeFov> two(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    two[i].video_id = 100 + i;
    two[i].segment_id = i;
    two[i].fov.p = {39.9 + 0.001 * i, 116.4 - 0.002 * i};
    two[i].fov.theta_deg = 10.0 * i;
    two[i].t_start = 1'400'000'000'000 + 5'000 * i;
    two[i].t_end = two[i].t_start + 3'000;
  }
  const std::vector<std::uint8_t> pinned{
      0x53, 0x56, 0x47, 0x58, 0x03, 0x00, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x02, 0x64, 0x00, 0x80, 0x87, 0xC2, 0xFC, 0x02, 0x80, 0xEC,
      0x89, 0xD6, 0x08, 0x00, 0x00, 0x80, 0xC0, 0x85, 0xE8, 0xBE, 0x51, 0xB8,
      0x17, 0x65, 0x01, 0xA0, 0x9C, 0x01, 0xBF, 0xB8, 0x02, 0xE8, 0x03, 0x90,
      0x4E, 0xB8, 0x17, 0x02, 0x03, 0x27, 0x13, 0xBA, 0xFA, 0x45};
  EXPECT_EQ(encode_snapshot(two, 99, {42, 3}), pinned);
}

TEST(SnapshotCodecTest, AbsurdUploadIdCountRejectedBeforeAllocation) {
  // A corrupted id_count must fail the remaining-bytes guard, not reserve
  // gigabytes. Build a v3 buffer with no reps and a huge claimed count.
  svg::util::ByteWriter w;
  const std::uint8_t magic[4] = {'S', 'V', 'G', 'X'};
  w.put_bytes(magic);
  w.put_u16(3);
  w.put_u64(0);
  w.put_varint(0);            // no reps
  w.put_varint(1ULL << 40);   // claimed: a trillion upload ids
  w.put_varint(1);            // ...one byte of them present
  EXPECT_FALSE(decode_snapshot_full(svg::util::seal(w)).has_value());
}

// --- snapshot files under injected I/O faults -------------------------------
//
// A snapshot file must load through the pluggable Env — and must fail
// CLEANLY (nullopt, no crash, no partial data) when the read is injected
// to fail or the file comes back short.

std::vector<std::uint8_t> snapshot_bytes(
    const std::vector<RepresentativeFov>& reps) {
  return encode_snapshot(reps, 99, {5, 7, 11});
}

std::string write_snapshot_file(const std::string& tag,
                                const std::vector<std::uint8_t>& bytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("svg_snap_compat_" + tag))
          .string();
  auto f = svg::store::Env::posix().open(path,
                                         svg::store::OpenMode::kTruncate);
  EXPECT_TRUE(f != nullptr);
  EXPECT_TRUE(f->write(bytes));
  return path;
}

TEST(SnapshotFileTest, CompatMatrixEveryVersionLoadsThroughEnv) {
  const auto reps = sample_reps(25, 12);
  svg::store::FaultyEnv env{svg::store::StoreFaultPlan{}};
  const auto path = write_snapshot_file("v3", snapshot_bytes(reps));
  const auto full = svg::store::load_snapshot_file_full(path, &env);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->reps.size(), reps.size());
  EXPECT_EQ(full->last_seq, 99u);
  EXPECT_EQ(full->upload_ids.size(), 3u);
  std::remove(path.c_str());
  EXPECT_EQ(env.stats().injected, 0u);
}

TEST(SnapshotFileTest, CompatMatrixInjectedReadFailureIsClean) {
  const auto reps = sample_reps(25, 13);
  svg::store::StoreFaultPlan plan;
  plan.read_error = 1.0;
  svg::store::FaultyEnv env{plan};
  const auto path = write_snapshot_file("rf_v3", snapshot_bytes(reps));
  EXPECT_FALSE(svg::store::load_snapshot_file_full(path, &env).has_value());
  // The file itself is untouched — a later healthy read still works.
  EXPECT_TRUE(svg::store::load_snapshot_file_full(path).has_value());
  std::remove(path.c_str());
  EXPECT_GE(env.stats().injected, 1u);
}

TEST(SnapshotFileTest, CompatMatrixTruncatedFilesRejectedAtEveryCut) {
  const auto reps = sample_reps(12, 14);
  svg::store::FaultyEnv env{svg::store::StoreFaultPlan{}};
  const auto bytes = snapshot_bytes(reps);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const auto path = write_snapshot_file(
        "tr_v3",
        {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep)});
    EXPECT_FALSE(svg::store::load_snapshot_file_full(path, &env).has_value())
        << "truncated to " << keep;
    std::remove(path.c_str());
  }
}

TEST(SnapshotFileTest, SaveLoadRoundTrip) {
  const auto reps = sample_reps(200, 2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "svg_snapshot_test.bin")
          .string();
  ASSERT_TRUE(save_snapshot_file(reps, path));
  const auto back = load_snapshot_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), reps.size());
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_snapshot_file("/nonexistent/dir/snap.bin").has_value());
}

TEST(SnapshotFileTest, RebuildIndexFromSnapshot) {
  const auto reps = sample_reps(1000, 3);
  svg::index::FovIndex original;
  for (const auto& r : reps) original.insert(r);

  const auto snap = original.snapshot();
  EXPECT_EQ(snap.size(), 1000u);
  const auto bytes = encode_snapshot(snap);
  const auto restored_reps = decode_snapshot(bytes);
  ASSERT_TRUE(restored_reps.has_value());
  const auto rebuilt = svg::index::FovIndex::bulk_load(*restored_reps);
  EXPECT_EQ(rebuilt.size(), original.size());
  rebuilt.check_invariants();

  // Queries agree (within quantization) between original and rebuilt.
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(4);
  for (int q = 0; q < 20; ++q) {
    const auto c = city.random_point(rng);
    // Pad the box by more than the 1e-7 deg quantization so boundary
    // entries cannot flip sides.
    const svg::index::GeoTimeRange range{
        c.lng - 0.01, c.lng + 0.01, c.lat - 0.01, c.lat + 0.01,
        1'400'000'000'000, 1'400'000'000'000 + 86'400'000};
    EXPECT_EQ(original.query_collect(range).size(),
              rebuilt.query_collect(range).size());
  }
}

TEST(SnapshotFileTest, ServerRestartRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "svg_server_snap.bin")
          .string();
  const auto reps = sample_reps(300, 9);

  svg::retrieval::Query q;
  q.center = svg::sim::CityModel{}.center;
  q.radius_m = 500.0;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 86'400'000;

  std::size_t expected_hits = 0;
  {
    svg::net::CloudServer server;
    UploadMessage msg;
    msg.video_id = 1;
    msg.segments = reps;
    server.ingest(msg);
    expected_hits = server.search(q).size();
    ASSERT_TRUE(server.save_snapshot(path));
  }
  {
    svg::net::CloudServer restarted;
    const auto loaded = restarted.load_snapshot(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, reps.size());
    EXPECT_EQ(restarted.indexed_segments(), reps.size());
    EXPECT_EQ(restarted.search(q).size(), expected_hits);
  }
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, ServerLoadMissingSnapshotFails) {
  svg::net::CloudServer server;
  EXPECT_FALSE(server.load_snapshot("/nonexistent/snap.bin").has_value());
  EXPECT_EQ(server.indexed_segments(), 0u);
}

}  // namespace
