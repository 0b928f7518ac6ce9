// Scrub of data at rest (store/scrub.hpp): a healthy
// directory scrubs clean, every seeded bit flip in a cold artifact is
// detected and quarantined (and the quarantine rename hides the artifact
// from the WAL/recovery listings), torn tails on the live segment are
// tolerated while complete-frame corruption there is still reported, the
// FaultyEnv bit-rot fault is silent and deterministic, and the
// cluster-level bit-rot → scrub → quarantine → restore-from-peer cycle
// converges back to the pre-corruption content byte-for-byte.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "sim/crowd.hpp"
#include "store/env.hpp"
#include "store/scrub.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::store;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_scrub_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A durable server over `dir` with tiny segments, filled with enough
/// uploads that the WAL spans several cold segments.
void fill_durable_dir(const std::string& dir, std::uint64_t seed,
                      std::size_t uploads = 48) {
  net::ServerDurabilityConfig d;
  d.data_dir = dir;
  d.fsync = FsyncPolicy::kNone;
  d.segment_bytes = 512;  // force frequent rotation
  d.checkpoint_interval_ms = 0;
  net::CloudServer server({}, {}, d);
  util::Xoshiro256 rng(seed);
  sim::CityModel city;
  for (std::size_t u = 0; u < uploads; ++u) {
    net::UploadMessage msg;
    msg.upload_id = seed * 10'000 + u + 1;
    msg.video_id = u + 1;
    msg.segments = sim::random_representative_fovs(
        3, city, 1'400'000'000'000, 3'600'000, rng);
    for (std::size_t i = 0; i < msg.segments.size(); ++i) {
      msg.segments[i].video_id = msg.video_id;
      msg.segments[i].segment_id = static_cast<std::uint32_t>(i);
    }
    ASSERT_TRUE(server.ingest(msg));
    // Group commit drains the whole pending buffer as one batch and the
    // WAL only rotates at batch boundaries — sync periodically so the
    // corpus actually spans several cold segments.
    if (u % 4 == 3) server.sync_wal();
  }
  server.sync_wal();
}

std::vector<std::string> wal_segments_sorted(const std::string& dir) {
  std::vector<std::string> segs;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name.size() == 24 &&
        name.substr(20) == ".log") {
      segs.push_back(e.path().string());
    }
  }
  std::sort(segs.begin(), segs.end());
  return segs;
}

TEST(ScrubTest, HealthyDirectoryScrubsClean) {
  ScopedDir dir("clean");
  fill_durable_dir(dir.path, 1);
  ASSERT_GT(wal_segments_sorted(dir.path).size(), 2u);

  const ScrubReport report = scrub_directory(dir.path);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.wal_segments, 2u);
  EXPECT_GT(report.frames_verified, 0u);
  EXPECT_GT(report.bytes_verified, 0u);
  EXPECT_EQ(report.torn_tail_segments, 0u);
}

TEST(ScrubTest, EverySeededBitFlipInColdSegmentsIsCaughtAndQuarantined) {
  // 100% detection: across ≥50 seeds, flip one random bit anywhere in a
  // random cold segment (header or frames alike) — the scrub must find
  // it every single time, and with quarantine on the artifact is renamed
  // out of the WAL listing.
  ScopedDir dir("flip");
  fill_durable_dir(dir.path, 2);
  const auto segs = wal_segments_sorted(dir.path);
  ASSERT_GT(segs.size(), 2u);

  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Xoshiro256 rng(seed);
    // Any segment but the last (the live appender's file).
    const std::string victim = segs[rng.bounded(segs.size() - 1)];
    const auto original = read_bytes(victim);
    ASSERT_FALSE(original.empty());
    auto corrupted = original;
    const std::size_t byte = rng.bounded(corrupted.size());
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
    write_bytes(victim, corrupted);

    ScrubOptions report_only;
    report_only.quarantine = false;
    const ScrubReport report = scrub_directory(dir.path, report_only);
    ASSERT_EQ(report.findings.size(), 1u)
        << "seed " << seed << " byte " << byte;
    EXPECT_EQ(report.findings.front().path, victim);
    EXPECT_FALSE(report.findings.front().quarantined);

    write_bytes(victim, original);  // heal for the next seed
  }

  // Once more with quarantine on: the artifact is renamed and the next
  // pass no longer sees it.
  auto corrupted = read_bytes(segs.front());
  corrupted[corrupted.size() / 2] ^= 0x10;
  write_bytes(segs.front(), corrupted);
  const ScrubReport report = scrub_directory(dir.path);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings.front().quarantined);
  EXPECT_FALSE(std::filesystem::exists(segs.front()));
  EXPECT_TRUE(std::filesystem::exists(segs.front() + ".quarantine"));
  const ScrubReport after = scrub_directory(dir.path);
  EXPECT_EQ(after.wal_segments, report.wal_segments - 1);

  bool saw_quarantined = false;
  bool saw_pass = false;
  for (const auto& rec : obs::Journal::global().tail()) {
    if (rec.event == obs::JournalEvent::kArtifactQuarantined) {
      saw_quarantined = true;
    }
    if (rec.event == obs::JournalEvent::kScrubPass) saw_pass = true;
  }
  EXPECT_TRUE(saw_quarantined);
  EXPECT_TRUE(saw_pass);
}

TEST(ScrubTest, TornTailIsLegalButCompleteFrameCorruptionIsNotReportOnly) {
  ScopedDir dir("tail");
  fill_durable_dir(dir.path, 3);
  const auto segs = wal_segments_sorted(dir.path);
  ASSERT_GT(segs.size(), 1u);
  const std::string last = segs.back();

  // Chop one byte off the live segment: a torn trailing frame, exactly
  // what a crash mid-append leaves. Legal — scrub stays clean.
  const auto original = read_bytes(last);
  ASSERT_GT(original.size(), 1u);
  const std::vector<std::uint8_t> torn(original.begin(), original.end() - 1);
  write_bytes(last, torn);
  const ScrubReport torn_report = scrub_directory(dir.path);
  EXPECT_TRUE(torn_report.clean());
  EXPECT_EQ(torn_report.torn_tail_segments, 1u);

  // A COMPLETE frame in the live segment with a flipped payload bit is
  // corruption (a torn write cannot damage bytes it never covered) — but
  // the live segment is never quarantined, only reported.
  auto corrupted = original;
  corrupted[20] ^= 0x01;  // first frame's payload area (header is 16 bytes)
  write_bytes(last, corrupted);
  const ScrubReport report = scrub_directory(dir.path);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_FALSE(report.findings.front().quarantined);
  EXPECT_TRUE(std::filesystem::exists(last));
}

TEST(ScrubTest, CorruptSnapshotIsQuarantined) {
  ScopedDir dir("snap");
  const std::vector<core::RepresentativeFov> reps;
  auto bytes = encode_snapshot(reps, 7);
  const std::string path = dir.path + "/snapshot-0000000000000007.svgx";
  write_bytes(path, bytes);
  EXPECT_TRUE(scrub_directory(dir.path).clean());

  bytes[bytes.size() / 2] ^= 0x40;
  write_bytes(path, bytes);
  const ScrubReport report = scrub_directory(dir.path);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings.front().kind, ScrubFinding::Kind::kSnapshot);
  EXPECT_TRUE(report.findings.front().quarantined);
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
}

TEST(ScrubTest, FaultyEnvBitFlipIsSilentAndDeterministic) {
  ScopedDir dir("env");
  fill_durable_dir(dir.path, 4, 24);
  const auto segs = wal_segments_sorted(dir.path);
  // Need at least one COLD segment: a flip in the live segment's header
  // or a frame length field is legally classified as a torn tail, but on
  // a cold segment every flipped bit is proven corruption.
  ASSERT_GT(segs.size(), 1u);

  StoreFaultPlan plan;
  plan.seed = 99;
  plan.bit_flip_read = 1.0;
  FaultyEnv env_a(plan);
  FaultyEnv env_b(plan);
  const auto clean = read_bytes(segs.front());
  const auto flipped_a = env_a.read_file(segs.front());
  const auto flipped_b = env_b.read_file(segs.front());
  ASSERT_TRUE(flipped_a.has_value());
  ASSERT_TRUE(flipped_b.has_value());
  // Silent: the read "succeeds", same length, exactly one bit differs —
  // and the damage is a pure function of (seed, op ordinal).
  EXPECT_EQ(flipped_a->size(), clean.size());
  EXPECT_NE(*flipped_a, clean);
  EXPECT_EQ(*flipped_a, *flipped_b);
  std::size_t diff_bits = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    diff_bits +=
        static_cast<std::size_t>(__builtin_popcount((*flipped_a)[i] ^ clean[i]));
  }
  EXPECT_EQ(diff_bits, 1u);
  EXPECT_EQ(env_a.stats().bit_flips, 1u);
  EXPECT_EQ(env_a.stats().injected, 1u);

  // A scrub through the rotting env sees CRC damage on every artifact it
  // reads, even though the disk is clean.
  ScrubOptions opts;
  opts.env = &env_a;
  opts.quarantine = false;
  const ScrubReport report = scrub_directory(dir.path, opts);
  EXPECT_FALSE(report.clean());
  // The disk itself still scrubs clean.
  EXPECT_TRUE(scrub_directory(dir.path).clean());
}

TEST(ScrubTest, ClusterBitRotQuarantineRestoreCycle) {
  // The end-to-end self-healing walkthrough: bit rot lands on one node's
  // cold segment; the scrub detects and quarantines it; the node is
  // rebuilt from its ring follower's replicated copy; the cluster's
  // canonical content is byte-identical to what it was before the rot.
  ScopedDir dir("cycle");
  cluster::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.partition.bounds = sim::CityModel{}.bounds_deg();
  cfg.partition.cells_per_side = 16;
  cfg.data_dir = dir.path + "/c";
  cfg.segment_bytes = 2048;
  cluster::Cluster cluster(cfg);

  util::Xoshiro256 rng(6);
  sim::CityModel city;
  net::UploadQueue queue({}, 17);
  for (std::size_t u = 0; u < 24; ++u) {
    net::UploadMessage msg;
    msg.video_id = u + 1;
    msg.segments = sim::random_representative_fovs(
        4, city, 1'400'000'000'000, 3'600'000, rng);
    for (std::size_t i = 0; i < msg.segments.size(); ++i) {
      msg.segments[i].video_id = msg.video_id;
      msg.segments[i].segment_id = static_cast<std::uint32_t>(i);
    }
    queue.enqueue(msg);
  }
  ASSERT_TRUE(queue.drain(cluster.router().upload_channel()));
  cluster.replicate_until_quiescent();
  const auto want = cluster.canonical_bytes(dir.path);
  ASSERT_TRUE(want.has_value());

  // Rot a cold segment on node 0.
  for (std::size_t i = 0; i < cluster.size(); ++i) cluster.node(i)->sync_wal();
  const auto segs = wal_segments_sorted(cluster.wal_dir(0));
  ASSERT_GT(segs.size(), 1u) << "need a cold segment to rot";
  auto bytes = read_bytes(segs.front());
  bytes[bytes.size() / 2] ^= 0x08;
  write_bytes(segs.front(), bytes);

  const store::ScrubReport report = cluster.scrub_node(0);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings.front().quarantined);

  // Repair from the replica and verify byte-identical convergence.
  const std::uint64_t restores_before =
      obs::cluster_repair_metrics().peer_restores.value();
  ASSERT_TRUE(cluster.restore_node_from_peer(0));
  EXPECT_EQ(obs::cluster_repair_metrics().peer_restores.value(),
            restores_before + 1);
  cluster.replicate_until_quiescent();
  const auto got = cluster.canonical_bytes(dir.path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, *want);

  bool saw_restore = false;
  for (const auto& rec : obs::Journal::global().tail()) {
    if (rec.event == obs::JournalEvent::kPeerRestore) saw_restore = true;
  }
  EXPECT_TRUE(saw_restore);
}

}  // namespace
