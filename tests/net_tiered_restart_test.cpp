// Restart tests for the server's tiered index: WAL replay must rebuild not
// just the same indexed set but the SAME runs. Sealing is purely
// size-triggered (no wall clock), so replaying the upload stream in order
// reproduces every run boundary — rows, ts_min, ts_max — exactly.
// Compaction timing is the one nondeterministic input, so these servers run
// with compaction off (compact_interval_ms = 0 and no checkpointer cadence
// to inherit).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "net/server.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;
using svg::core::RepresentativeFov;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_tiered_restart_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

ServerIndexConfig tiered_config(std::size_t memtable) {
  ServerIndexConfig icfg;
  icfg.memtable = memtable;
  return icfg;
}

std::vector<RepresentativeFov> sample_reps(std::size_t n, std::uint64_t seed) {
  svg::sim::CityModel city;
  // Dense enough that some cameras stand within radius-of-view of the
  // centre — the orientation filter rejects everything farther out, and a
  // restart test whose queries all return empty proves nothing.
  city.extent_m = 600.0;
  svg::util::Xoshiro256 rng(seed);
  return svg::sim::random_representative_fovs(n, city, 1'400'000'000'000,
                                              86'400'000, rng);
}

void ingest_in_batches(CloudServer& server,
                       const std::vector<RepresentativeFov>& reps,
                       std::size_t batch) {
  for (std::size_t i = 0; i < reps.size(); i += batch) {
    UploadMessage msg;
    msg.video_id = i;
    const auto end = std::min(i + batch, reps.size());
    msg.segments.assign(reps.begin() + static_cast<std::ptrdiff_t>(i),
                        reps.begin() + static_cast<std::ptrdiff_t>(end));
    server.ingest(msg);
  }
}

svg::retrieval::Query wide_query() {
  svg::retrieval::Query q;
  q.center = svg::sim::CityModel{}.center;
  q.radius_m = 800.0;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 86'400'000;
  return q;
}

// Canonical view of a result set: sorted (video_id, segment_id) pairs, so
// equality is insensitive to backend-internal visit order.
std::vector<std::pair<std::uint64_t, std::uint32_t>> canonical_hits(
    const CloudServer& server, const svg::retrieval::Query& q) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (const auto& r : server.search(q)) {
    out.emplace_back(r.rep.video_id, r.rep.segment_id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TieredRestartTest, WalReplayRebuildsIdenticalRuns) {
  ScopedDir dir("wal");
  const auto reps = sample_reps(500, 21);
  const auto q = wide_query();

  svg::index::TieredStats before{};
  std::vector<std::pair<std::uint64_t, std::uint32_t>> hits_before;
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    // Small memtable → many sealed runs from 500 rows.
    CloudServer server(tiered_config(64), {}, dcfg);
    ingest_in_batches(server, reps, 23);  // batch != memtable: straddling seals
    const auto stats = server.tiered_run_stats();
    ASSERT_TRUE(stats.has_value());
    before = *stats;
    ASSERT_GT(before.runs.size(), 2u);  // the test is vacuous otherwise
    ASSERT_GT(before.memtable_rows, 0u);
    hits_before = canonical_hits(server, q);
    ASSERT_FALSE(hits_before.empty());
    server.sync_wal();
  }  // no checkpoint: reopen replays the WAL from scratch
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server(tiered_config(64), {}, dcfg);
    EXPECT_TRUE(server.recovery().ok);
    EXPECT_GT(server.recovery().wal_records_replayed, 0u);
    EXPECT_EQ(server.indexed_segments(), reps.size());

    const auto stats = server.tiered_run_stats();
    ASSERT_TRUE(stats.has_value());
    // Size-triggered sealing is deterministic: replay reproduces every run
    // boundary and its time tags, not merely the same row multiset.
    ASSERT_EQ(stats->runs.size(), before.runs.size());
    for (std::size_t i = 0; i < before.runs.size(); ++i) {
      EXPECT_EQ(stats->runs[i].rows, before.runs[i].rows) << "run " << i;
      EXPECT_EQ(stats->runs[i].ts_min, before.runs[i].ts_min) << "run " << i;
      EXPECT_EQ(stats->runs[i].ts_max, before.runs[i].ts_max) << "run " << i;
    }
    EXPECT_EQ(stats->memtable_rows, before.memtable_rows);
    EXPECT_EQ(canonical_hits(server, q), hits_before);
  }
}

TEST(TieredRestartTest, CheckpointRestartPreservesTheIndexedSet) {
  ScopedDir dir("checkpoint");
  const auto reps = sample_reps(400, 33);
  const auto q = wide_query();

  std::vector<std::pair<std::uint64_t, std::uint32_t>> hits_before;
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server(tiered_config(64), {}, dcfg);
    ingest_in_batches(server, reps, 25);
    hits_before = canonical_hits(server, q);
    ASSERT_FALSE(hits_before.empty());
    ASSERT_TRUE(server.checkpoint_now());
  }
  // Restart restores from the snapshot (zero WAL records to replay); the
  // indexed set — and therefore every query answer — is unchanged even
  // though run boundaries may legitimately differ from the live ordering.
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server(tiered_config(64), {}, dcfg);
    EXPECT_TRUE(server.recovery().ok);
    EXPECT_EQ(server.recovery().wal_records_replayed, 0u);
    EXPECT_EQ(server.indexed_segments(), reps.size());
    EXPECT_EQ(canonical_hits(server, q), hits_before);

    // Maintenance entry points still work on the recovered index, and a
    // full merge leaves answers untouched.
    EXPECT_TRUE(server.seal_index_now() || true);  // memtable may be empty
    while (server.compact_index_now(/*full=*/true) > 0) {
    }
    const auto stats = server.tiered_run_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_LE(stats->runs.size(), 1u);
    EXPECT_EQ(canonical_hits(server, q), hits_before);
  }
}

}  // namespace
