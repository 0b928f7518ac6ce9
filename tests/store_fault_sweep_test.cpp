// The "every I/O operation fails once" property sweep (docs/ROBUSTNESS.md):
// run a fixed ingest+checkpoint workload against a CloudServer whose store
// I/O goes through a FaultyEnv, failing exactly one operation per run —
// every ordinal in turn, alternating hard failures and torn writes — then
// crash and recover with a healthy disk. The invariant: every acked upload
// is recovered exactly once, nothing is indexed twice, and recovery itself
// survives any single I/O fault (either by completing or by failing loudly
// and succeeding on the clean retry).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "sim/crowd.hpp"
#include "store/env.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::store;
using svg::net::CloudServer;
using svg::net::IngestStatus;
using svg::net::ServerDurabilityConfig;
using svg::net::UploadMessage;

constexpr std::size_t kUploads = 12;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_sweep_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

void copy_dir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

UploadMessage upload_of(std::size_t i) {
  static const auto reps = [] {
    svg::sim::CityModel city;
    svg::util::Xoshiro256 rng(11);
    return svg::sim::random_representative_fovs(
        kUploads, city, 1'400'000'000'000, 86'400'000, rng);
  }();
  UploadMessage msg;
  msg.upload_id = 1000 + i;
  msg.video_id = i;
  msg.segments = {reps[i]};
  return msg;
}

ServerDurabilityConfig durable_cfg(const std::string& dir, Env* env) {
  ServerDurabilityConfig cfg;
  cfg.data_dir = dir;
  cfg.fsync = FsyncPolicy::kAlways;
  // Small segments: the 12-record workload rotates several times, so the
  // sweep also lands faults on rotation and retirement I/O.
  cfg.segment_bytes = 256;
  cfg.env = env;
  return cfg;
}

/// The fixed workload: ingest kUploads one-rep uploads with a manual
/// checkpoint halfway through. Returns which uploads were acked.
std::vector<bool> run_workload(CloudServer& server) {
  std::vector<bool> acked(kUploads, false);
  for (std::size_t i = 0; i < kUploads; ++i) {
    if (i == kUploads / 2) (void)server.checkpoint_now();
    const auto st = server.ingest_status(upload_of(i));
    EXPECT_NE(st, IngestStatus::kDuplicate) << "fresh id read as duplicate";
    acked[i] = st == IngestStatus::kAccepted;
  }
  return acked;
}

/// Check the recovered server against the acks of the crashed run: acked
/// uploads must be present (never ack-then-lose); nothing may be indexed
/// twice; re-offering every upload converges to all-present-exactly-once.
void verify_recovered(CloudServer& server, const std::vector<bool>& acked,
                      const std::string& ctx) {
  const std::size_t before = server.indexed_segments();
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < kUploads; ++i) {
    const auto st = server.ingest_status(upload_of(i));
    ASSERT_NE(st, IngestStatus::kRetryLater) << ctx << " upload " << i;
    if (st == IngestStatus::kDuplicate) {
      ++duplicates;
    } else if (acked[i]) {
      ADD_FAILURE() << ctx << ": acked upload " << i << " lost by recovery";
    }
  }
  // Each upload carries exactly one rep, so the pre-re-offer index size
  // equals the number of uploads recovery restored — any double-indexed
  // record breaks one of these two counts.
  EXPECT_EQ(before, duplicates) << ctx;
  EXPECT_EQ(server.indexed_segments(), kUploads) << ctx;
}

/// Count the store I/O ops the workload issues after construction.
std::uint64_t probe_workload_ops() {
  ScopedDir dir("probe");
  FaultyEnv env{StoreFaultPlan{}};
  std::uint64_t base = 0;
  {
    CloudServer server({}, {}, durable_cfg(dir.path, &env));
    base = env.ops();
    run_workload(server);
  }
  EXPECT_EQ(env.stats().injected, 0u);
  return env.ops() - base;
}

TEST(FaultSweepTest, IngestEveryIoFailsOnce) {
  const std::uint64_t n = probe_workload_ops();
  ASSERT_GT(n, 20u);  // the workload must actually exercise the disk

  for (std::uint64_t k = 0; k < n; ++k) {
    const std::string ctx = "fault at workload op " + std::to_string(k);
    ScopedDir dir("ing_" + std::to_string(k));
    FaultyEnv env{StoreFaultPlan{}};
    std::vector<bool> acked;
    {
      CloudServer server({}, {}, durable_cfg(dir.path, &env));
      ASSERT_TRUE(server.recovery().ok) << ctx;
      env.fail_once_at(env.ops() + k, /*torn=*/(k % 2) == 1);
      acked = run_workload(server);
    }  // crash
    ASSERT_EQ(env.stats().injected, 1u) << ctx;

    // The disk comes back healthy; recovery must restore the acked prefix.
    CloudServer recovered({}, {}, durable_cfg(dir.path, nullptr));
    ASSERT_TRUE(recovered.recovery().ok) << ctx;
    verify_recovered(recovered, acked, ctx);
  }
}

TEST(FaultSweepTest, RecoveryEveryIoFailsOnce) {
  // Prepare one clean crashed directory: full workload, checkpoint taken,
  // everything acked.
  ScopedDir prep("rec_prep");
  {
    CloudServer server({}, {}, durable_cfg(prep.path, nullptr));
    const auto acked = run_workload(server);
    for (std::size_t i = 0; i < kUploads; ++i) ASSERT_TRUE(acked[i]);
  }
  const std::vector<bool> all_acked(kUploads, true);

  // Count recovery's I/O ops.
  std::uint64_t n = 0;
  {
    ScopedDir dir("rec_probe");
    copy_dir(prep.path, dir.path);
    FaultyEnv env{StoreFaultPlan{}};
    CloudServer server({}, {}, durable_cfg(dir.path, &env));
    n = env.ops();
  }
  ASSERT_GT(n, 3u);

  for (std::uint64_t k = 0; k < n; ++k) {
    const std::string ctx = "fault at recovery op " + std::to_string(k);
    ScopedDir dir("rec_" + std::to_string(k));
    copy_dir(prep.path, dir.path);
    FaultyEnv env{StoreFaultPlan{}};
    env.fail_once_at(k, /*torn=*/(k % 2) == 1);
    bool survived = false;
    try {
      CloudServer server({}, {}, durable_cfg(dir.path, &env));
      // Recovery claimed success under the fault: it must be complete.
      ASSERT_TRUE(server.recovery().ok) << ctx;
      verify_recovered(server, all_acked, ctx);
      survived = true;
    } catch (const std::runtime_error&) {
      // Failing loudly is the other acceptable outcome — but the fault
      // must not have corrupted anything: a clean retry has to succeed.
    }
    if (!survived) {
      CloudServer retry({}, {}, durable_cfg(dir.path, nullptr));
      ASSERT_TRUE(retry.recovery().ok) << ctx << " (clean retry)";
      verify_recovered(retry, all_acked, ctx + " (clean retry)");
    }
  }
}

}  // namespace
