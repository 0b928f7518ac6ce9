// Chaos property test: across hundreds of random seed-driven fault plans,
// the post-run index must equal the fault-free run bit-for-bit — also
// across a mid-run crash with WAL recovery. "Equal" is canonical: every
// server's contents are dumped, sorted, and re-encoded through the
// snapshot codec, so the comparison is independent of ingest order and
// index internals.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/fault.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "sim/crowd.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::net;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_chaos_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// Order-independent fingerprint of everything a server has indexed.
std::vector<std::uint8_t> canonical_index(const CloudServer& server,
                                          const std::string& scratch) {
  EXPECT_TRUE(server.save_snapshot(scratch));
  const auto snap = store::load_snapshot_file_full(scratch);
  EXPECT_TRUE(snap.has_value());
  auto reps = snap->reps;
  std::sort(reps.begin(), reps.end(), [](const auto& a, const auto& b) {
    return std::tie(a.video_id, a.segment_id, a.t_start) <
           std::tie(b.video_id, b.segment_id, b.t_start);
  });
  return store::encode_snapshot(reps);
}

std::vector<UploadMessage> make_uploads(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sim::CityModel city;
  const std::size_t n_uploads = 3 + rng.bounded(4);  // 3..6
  std::vector<UploadMessage> uploads;
  for (std::size_t u = 0; u < n_uploads; ++u) {
    UploadMessage msg;
    msg.video_id = u + 1;
    msg.segments = sim::random_representative_fovs(
        6 + rng.bounded(7), city, 1'400'000'000'000, 3'600'000, rng);
    for (std::size_t i = 0; i < msg.segments.size(); ++i) {
      msg.segments[i].video_id = msg.video_id;
      msg.segments[i].segment_id = static_cast<std::uint32_t>(i);
    }
    uploads.push_back(std::move(msg));
  }
  return uploads;
}

FaultPlan make_plan(std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0xC0FFEE);
  FaultPlan plan;
  plan.seed = seed;
  plan.drop = rng.uniform() * 0.3;
  plan.duplicate = rng.uniform() * 0.2;
  plan.reorder = rng.uniform() * 0.2;
  plan.corrupt = rng.uniform() * 0.1;
  if (rng.chance(0.3)) {
    const double start = rng.uniform() * 2'000.0;
    plan.disconnects.push_back({start, start + rng.uniform() * 3'000.0});
  }
  return plan;
}

/// Drive `uploads` through a fresh faulty channel into `server`.
/// Returns true when every upload was acked.
bool run_faulty(CloudServer& server, const std::vector<UploadMessage>& uploads,
                const FaultPlan& plan, std::uint64_t queue_seed) {
  SimClock clock;
  Link link;
  FaultyLink faulty(link, plan, &clock);
  RetryPolicy policy;
  policy.max_attempts = 64;  // outlast even a 30% drop + disconnect plan
  UploadQueue queue(policy, queue_seed, &clock);
  for (const auto& m : uploads) queue.enqueue(m);
  return queue.drain(FaultyUploadChannel(faulty, server));
}

TEST(ChaosPropertyTest, FaultyRunsConvergeToFaultFreeIndexAcross200Seeds) {
  ScopedDir dir("seeds");
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto uploads = make_uploads(seed);
    const auto plan = make_plan(seed);
    const std::uint64_t queue_seed = seed * 31 + 7;

    // Fault-free baseline: same messages with the same ids, clean ingest.
    CloudServer baseline;
    ASSERT_TRUE(run_faulty(baseline, uploads, FaultPlan{}, queue_seed));
    const auto want = canonical_index(baseline, dir.path + "/baseline.snap");

    CloudServer faulty;
    ASSERT_TRUE(run_faulty(faulty, uploads, plan, queue_seed))
        << "seed " << seed;
    EXPECT_EQ(canonical_index(faulty, dir.path + "/faulty.snap"), want)
        << "index diverged at seed " << seed;
    EXPECT_EQ(faulty.known_upload_ids(), uploads.size());
    EXPECT_EQ(faulty.stats().uploads_accepted, uploads.size());
  }
}

TEST(ChaosPropertyTest, MidRunCrashAndWalRecoveryStaysExactlyOnce) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ScopedDir dir("crash_" + std::to_string(seed));
    const auto uploads = make_uploads(seed);
    const auto plan = make_plan(seed);
    const std::uint64_t queue_seed = seed * 131 + 3;

    CloudServer baseline;
    ASSERT_TRUE(run_faulty(baseline, uploads, FaultPlan{}, queue_seed));
    const auto want = canonical_index(baseline, dir.path + "/baseline.snap");

    // Phase 1: deliver only a prefix, then crash (destructor = crash for
    // the index; the WAL survives).
    const std::size_t prefix = 1 + uploads.size() / 2;
    {
      ServerDurabilityConfig dcfg;
      dcfg.data_dir = dir.path;
      CloudServer server({}, {}, dcfg);
      SimClock clock;
      Link link;
      FaultyLink faulty(link, plan, &clock);
      RetryPolicy policy;
      policy.max_attempts = 64;
      UploadQueue queue(policy, queue_seed, &clock);
      for (std::size_t i = 0; i < prefix; ++i) queue.enqueue(uploads[i]);
      ASSERT_TRUE(queue.drain(FaultyUploadChannel(faulty, server)));
      if (seed % 3 == 0) {
        ASSERT_TRUE(server.checkpoint_now());
      }
      server.sync_wal();
    }

    // Phase 2: the recovered client re-enqueues EVERYTHING with the same
    // queue seed, so the prefix reproduces its original upload_ids. The
    // recovered server must absorb those as duplicates.
    {
      ServerDurabilityConfig dcfg;
      dcfg.data_dir = dir.path;
      CloudServer server({}, {}, dcfg);
      EXPECT_EQ(server.known_upload_ids(), prefix) << "seed " << seed;
      ASSERT_TRUE(run_faulty(server, uploads, plan, queue_seed));
      EXPECT_EQ(canonical_index(server, dir.path + "/recovered.snap"), want)
          << "recovered index diverged at seed " << seed;
      EXPECT_GE(server.stats().uploads_deduped, prefix) << "seed " << seed;
      EXPECT_EQ(server.known_upload_ids(), uploads.size());
    }
  }
}

TEST(ChaosPropertyTest, ConcurrentChaosClientsStayExactlyOnce) {
  // Many clients hammer one server through independent faulty links at
  // once — the dedup set, WAL-less ingest path and index must stay
  // consistent under parallelism (this test runs under TSan in CI).
  const std::size_t kClients = 8;
  CloudServer server;

  std::vector<std::vector<UploadMessage>> per_client;
  std::size_t total_segments = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto uploads = make_uploads(c + 1);
    for (auto& m : uploads) {
      m.video_id += 1000 * (c + 1);  // distinct videos per client
      for (auto& s : m.segments) s.video_id = m.video_id;
      total_segments += m.segments.size();
    }
    per_client.push_back(std::move(uploads));
  }

  std::atomic<std::size_t> all_acked{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto plan = make_plan(c + 100);
      if (run_faulty(server, per_client[c], plan, 1000 + c)) {
        all_acked.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(all_acked.load(), kClients);
  EXPECT_EQ(server.indexed_segments(), total_segments);
  std::size_t total_uploads = 0;
  for (const auto& u : per_client) total_uploads += u.size();
  EXPECT_EQ(server.stats().uploads_accepted, total_uploads);
  EXPECT_EQ(server.known_upload_ids(), total_uploads);
}

}  // namespace
