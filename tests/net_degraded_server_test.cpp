// Degraded read-only mode (docs/ROBUSTNESS.md): when the durable log dies
// mid-flight the server stops accepting ingest — answering kRetryLater,
// never ack-then-lose — while queries keep serving from the in-memory
// index. The retrying client backs off on the deferral instead of burning
// its ack timeout, and try_recover_storage() brings the server back to
// accepting writes once the disk heals, preserving exactly-once across
// the whole outage.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "geo/geodesy.hpp"

#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "sim/crowd.hpp"
#include "store/env.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;
using svg::core::RepresentativeFov;
using svg::store::Env;
using svg::store::FaultyEnv;
using svg::store::FsyncPolicy;
using svg::store::StoreFaultPlan;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_degraded_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

const std::vector<RepresentativeFov>& all_reps() {
  static const auto reps = [] {
    svg::sim::CityModel city;
    svg::util::Xoshiro256 rng(19);
    return svg::sim::random_representative_fovs(64, city, 1'400'000'000'000,
                                                86'400'000, rng);
  }();
  return reps;
}

UploadMessage upload_of(std::size_t i, std::uint64_t upload_id) {
  UploadMessage msg;
  msg.upload_id = upload_id;
  msg.video_id = i;
  msg.segments = {all_reps()[(2 * i) % 64], all_reps()[(2 * i + 1) % 64]};
  return msg;
}

ServerDurabilityConfig durable_cfg(const std::string& dir, Env* env) {
  ServerDurabilityConfig cfg;
  cfg.data_dir = dir;
  cfg.fsync = FsyncPolicy::kAlways;
  cfg.env = env;
  return cfg;
}

/// A small circle dead ahead of `rep`'s camera — guaranteed coverable.
svg::retrieval::Query query_at(const RepresentativeFov& rep) {
  const double theta = rep.fov.theta_deg * 3.14159265358979323846 / 180.0;
  svg::retrieval::Query q;
  q.center = svg::geo::offset_m(rep.fov.p, 20.0 * std::sin(theta),
                                20.0 * std::cos(theta));
  q.radius_m = 5.0;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 86'400'000;
  return q;
}

StoreFaultPlan dead_disk() {
  StoreFaultPlan plan;
  plan.write_error = 1.0;
  plan.fsync_error = 1.0;
  return plan;
}

TEST(DegradedServerTest, WriteFaultEntersDegradedQueriesKeepServing) {
  ScopedDir dir("enter");
  FaultyEnv env{StoreFaultPlan{}};
  CloudServer server({}, {}, durable_cfg(dir.path, &env));
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(server.ingest_status(upload_of(i, 100 + i)),
              IngestStatus::kAccepted);
  }
  ASSERT_EQ(server.health(), ServerHealth::kOk);
  const auto q = query_at(all_reps()[0]);  // upload 0's first rep
  const auto served_before = server.search(q).size();
  ASSERT_GT(served_before, 0u);

  env.set_plan(dead_disk());
  EXPECT_EQ(server.ingest_status(upload_of(5, 105)),
            IngestStatus::kRetryLater);
  EXPECT_EQ(server.health(), ServerHealth::kDegraded);
  EXPECT_GE(server.stats().uploads_deferred, 1u);
  // Degraded is sticky until an explicit recovery, even for retries.
  EXPECT_EQ(server.ingest_status(upload_of(5, 105)),
            IngestStatus::kRetryLater);
  // Nothing was indexed or remembered for the refused upload…
  EXPECT_EQ(server.indexed_segments(), 10u);
  // …and the read path is untouched: same answers as before the fault.
  EXPECT_EQ(server.search(q).size(), served_before);
}

TEST(DegradedServerTest, DegradedServerAcksRetryLaterOnTheWire) {
  ScopedDir dir("wire");
  FaultyEnv env{StoreFaultPlan{}};
  CloudServer server({}, {}, durable_cfg(dir.path, &env));
  env.set_plan(dead_disk());

  const auto bytes = encode_upload(upload_of(0, 777));
  const auto ack_bytes = server.handle_upload_acked(bytes);
  ASSERT_TRUE(ack_bytes.has_value());
  const auto ack = decode_upload_ack(*ack_bytes);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->upload_id, 777u);
  EXPECT_EQ(ack->status, UploadAckStatus::kRetryLater);
  EXPECT_EQ(ack->segments_indexed, 0u);  // a deferral indexes nothing
}

TEST(DegradedServerTest, HandleUploadReportsADeferralAsFailure) {
  // handle_upload is the bool view of the acked path: true only for what
  // the ack would call kAccepted or kDuplicate.
  ScopedDir dir("bool");
  FaultyEnv env{StoreFaultPlan{}};
  CloudServer server({}, {}, durable_cfg(dir.path, &env));
  const auto logged = encode_upload(upload_of(0, 500));
  ASSERT_TRUE(server.handle_upload(logged));
  env.set_plan(dead_disk());
  EXPECT_FALSE(server.handle_upload(encode_upload(upload_of(1, 501))));
  EXPECT_EQ(server.health(), ServerHealth::kDegraded);
  EXPECT_FALSE(server.handle_upload(encode_upload(upload_of(2, 502))));
  EXPECT_EQ(server.stats().uploads_deferred, 2u);
  EXPECT_EQ(server.indexed_segments(), 2u);
  // A retransmit of the logged upload is still in the index: success.
  EXPECT_TRUE(server.handle_upload(logged));
}

TEST(DegradedServerTest, WireCodecRoundTripsRetryLater) {
  UploadAck ack;
  ack.upload_id = 42;
  ack.status = UploadAckStatus::kRetryLater;
  ack.segments_indexed = 0;
  const auto back = decode_upload_ack(encode_upload_ack(ack));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->upload_id, 42u);
  EXPECT_EQ(back->status, UploadAckStatus::kRetryLater);
}

TEST(DegradedServerTest, TryRecoverStorageRestoresIngestAfterHeal) {
  ScopedDir dir("recover");
  FaultyEnv env{StoreFaultPlan{}};
  CloudServer server({}, {}, durable_cfg(dir.path, &env));
  ASSERT_EQ(server.ingest_status(upload_of(0, 500)), IngestStatus::kAccepted);

  env.set_plan(dead_disk());
  ASSERT_EQ(server.ingest_status(upload_of(1, 501)),
            IngestStatus::kRetryLater);
  ASSERT_EQ(server.health(), ServerHealth::kDegraded);

  // Still broken: recovery reports failure and the server stays degraded.
  StoreFaultPlan still_bad;
  still_bad.open_error = 1.0;
  env.set_plan(still_bad);
  EXPECT_FALSE(server.try_recover_storage());
  EXPECT_EQ(server.health(), ServerHealth::kDegraded);
  EXPECT_EQ(server.ingest_status(upload_of(1, 501)),
            IngestStatus::kRetryLater);

  // Disk healed: recovery succeeds and the deferred upload's retry is
  // accepted — its id was never claimed, so this is NOT a duplicate.
  env.set_plan(StoreFaultPlan{});
  EXPECT_TRUE(server.try_recover_storage());
  EXPECT_EQ(server.health(), ServerHealth::kOk);
  EXPECT_EQ(server.ingest_status(upload_of(1, 501)), IngestStatus::kAccepted);
  // …and a real retransmit is still absorbed.
  EXPECT_EQ(server.ingest_status(upload_of(1, 501)),
            IngestStatus::kDuplicate);

  // try_recover_storage on a healthy server is a no-op success.
  EXPECT_TRUE(server.try_recover_storage());
}

TEST(DegradedServerTest, FailedRecoveryAttemptDoesNotBrickAfterRetirement) {
  ScopedDir dir("rebrick");
  FaultyEnv env{StoreFaultPlan{}};
  ServerDurabilityConfig cfg = durable_cfg(dir.path, &env);
  cfg.segment_bytes = 1;  // rotate every append: one record per segment
  CloudServer server({}, {}, cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(server.ingest_status(upload_of(i, 600 + i)),
              IngestStatus::kAccepted);
  }
  // Checkpoint and retire: the chain no longer reaches back to seq 1.
  ASSERT_TRUE(server.checkpoint_now());
  ASSERT_EQ(server.ingest_status(upload_of(3, 603)), IngestStatus::kAccepted);

  env.set_plan(dead_disk());
  ASSERT_EQ(server.ingest_status(upload_of(4, 604)),
            IngestStatus::kRetryLater);
  ASSERT_EQ(server.health(), ServerHealth::kDegraded);

  // The expected operator pattern: the probe fires while the disk is
  // still bad. This failed attempt destroys the checkpointer — recovery
  // after the heal must still find the checkpoint watermark (a server
  // that re-derived it as 0 would demand a chain back to seq 1 and stay
  // bricked on "missing earlier segment" forever).
  StoreFaultPlan still_bad;
  still_bad.read_error = 1.0;
  env.set_plan(still_bad);
  ASSERT_FALSE(server.try_recover_storage());
  ASSERT_EQ(server.health(), ServerHealth::kDegraded);

  env.set_plan(StoreFaultPlan{});
  EXPECT_TRUE(server.try_recover_storage());
  EXPECT_EQ(server.health(), ServerHealth::kOk);
  EXPECT_EQ(server.ingest_status(upload_of(4, 604)), IngestStatus::kAccepted);
}

TEST(DegradedServerTest, RecoveryRefusesChainMissingAckedRecords) {
  ScopedDir dir("lost");
  FaultyEnv env{StoreFaultPlan{}};
  ServerDurabilityConfig cfg = durable_cfg(dir.path, &env);
  cfg.segment_bytes = 1;  // rotate every append: one record per segment
  CloudServer server({}, {}, cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(server.ingest_status(upload_of(i, 700 + i)),
              IngestStatus::kAccepted);
  }
  env.set_plan(dead_disk());
  ASSERT_EQ(server.ingest_status(upload_of(3, 703)),
            IngestStatus::kRetryLater);
  ASSERT_EQ(server.health(), ServerHealth::kDegraded);

  // The outage eats the tail of the log: the acked record at seq 3 is
  // gone (plus whatever partial segment the failed append left behind).
  ASSERT_TRUE(
      std::filesystem::remove(svg::store::wal_segment_path(dir.path, 3)));
  std::filesystem::remove(svg::store::wal_segment_path(dir.path, 4));

  // The disk "heals", but acked data is lost: recovery must refuse to
  // declare the log healthy rather than reopen over the hole (verifying
  // from the acked seq itself would make the check a tautology).
  env.set_plan(StoreFaultPlan{});
  EXPECT_FALSE(server.try_recover_storage());
  EXPECT_EQ(server.health(), ServerHealth::kDegraded);
}

TEST(DegradedServerTest, DegradedRetransmitOfAckedUploadIsDuplicate) {
  ScopedDir dir("dupdeg");
  FaultyEnv env{StoreFaultPlan{}};
  CloudServer server({}, {}, durable_cfg(dir.path, &env));
  ASSERT_EQ(server.ingest_status(upload_of(0, 800)), IngestStatus::kAccepted);

  env.set_plan(dead_disk());
  ASSERT_EQ(server.ingest_status(upload_of(1, 801)),
            IngestStatus::kRetryLater);
  ASSERT_EQ(server.health(), ServerHealth::kDegraded);

  // A retransmit of a durably acked id is absorbed as kDuplicate even
  // while degraded — the data is already indexed, and a deferral would
  // burn the client's bounded attempt budget on data the server holds.
  EXPECT_EQ(server.ingest_status(upload_of(0, 800)), IngestStatus::kDuplicate);
  EXPECT_EQ(server.indexed_segments(), 2u);
  // Genuinely new uploads keep deferring.
  EXPECT_EQ(server.ingest_status(upload_of(2, 802)),
            IngestStatus::kRetryLater);
}

TEST(DegradedServerTest, StandaloneSnapshotsGoThroughConfiguredEnv) {
  ScopedDir dir("snapenv");
  FaultyEnv env{StoreFaultPlan{}};
  CloudServer server({}, {}, durable_cfg(dir.path, &env));
  ASSERT_EQ(server.ingest_status(upload_of(0, 850)), IngestStatus::kAccepted);
  const std::string snap = dir.path + "/standalone.svgx";
  ASSERT_TRUE(server.save_snapshot(snap));

  // save/load must see the configured env like every other storage path.
  env.set_plan(dead_disk());
  EXPECT_FALSE(server.save_snapshot(snap));
  StoreFaultPlan unreadable;
  unreadable.read_error = 1.0;
  env.set_plan(unreadable);
  EXPECT_FALSE(server.load_snapshot(snap).has_value());
  env.set_plan(StoreFaultPlan{});
  EXPECT_TRUE(server.load_snapshot(snap).has_value());
}

TEST(DegradedServerTest, OutageIsExactlyOnceAcrossRestart) {
  ScopedDir dir("restart");
  FaultyEnv env{StoreFaultPlan{}};
  {
    CloudServer server({}, {}, durable_cfg(dir.path, &env));
    ASSERT_EQ(server.ingest_status(upload_of(0, 900)),
              IngestStatus::kAccepted);
    env.set_plan(dead_disk());
    ASSERT_EQ(server.ingest_status(upload_of(1, 901)),
              IngestStatus::kRetryLater);
    env.set_plan(StoreFaultPlan{});
    ASSERT_TRUE(server.try_recover_storage());
    ASSERT_EQ(server.ingest_status(upload_of(1, 901)),
              IngestStatus::kAccepted);
    ASSERT_EQ(server.ingest_status(upload_of(2, 902)),
              IngestStatus::kAccepted);
  }
  // Everything acked (and only that) survives the process restart.
  CloudServer restarted({}, {}, durable_cfg(dir.path, nullptr));
  ASSERT_TRUE(restarted.recovery().ok);
  EXPECT_EQ(restarted.indexed_segments(), 6u);  // uploads 0, 1, 2 × 2 reps
  EXPECT_EQ(restarted.known_upload_ids(), 3u);
  EXPECT_EQ(restarted.ingest_status(upload_of(1, 901)),
            IngestStatus::kDuplicate);
}

TEST(DegradedServerTest, UploadQueueBacksOffOnDeferralsAndConverges) {
  ScopedDir dir("queue");
  FaultyEnv env{StoreFaultPlan{}};
  CloudServer server({}, {}, durable_cfg(dir.path, &env));
  env.set_plan(dead_disk());  // degraded from the first attempted upload

  SimClock clock;
  RetryPolicy policy;
  policy.max_attempts = 8;
  UploadQueue queue(policy, /*seed=*/7, &clock);
  constexpr std::size_t kUploads = 6;
  for (std::size_t i = 0; i < kUploads; ++i) {
    UploadMessage msg;
    msg.video_id = i;
    msg.segments = {all_reps()[i]};
    queue.enqueue(msg);
  }

  // The disk heals (and an operator runs recovery) mid-drain.
  std::size_t attempts = 0;
  const auto attempt =
      [&](const std::vector<std::uint8_t>& bytes) -> std::optional<UploadAck> {
    if (++attempts == 10) {
      env.set_plan(StoreFaultPlan{});
      EXPECT_TRUE(server.try_recover_storage());
    }
    const auto ack_bytes = server.handle_upload_acked(bytes);
    if (!ack_bytes) return std::nullopt;
    return decode_upload_ack(*ack_bytes);
  };
  EXPECT_TRUE(queue.drain(attempt));

  const auto& qs = queue.stats();
  EXPECT_EQ(qs.acked, kUploads);
  EXPECT_EQ(qs.exhausted, 0u);
  EXPECT_EQ(qs.duplicate_acks, 0u);
  EXPECT_GE(qs.deferred, 9u);  // every pre-heal attempt was a deferral
  EXPECT_GT(qs.retries, 0u);
  // Deferrals charge backoff, not the 2s ack timeout: had the client
  // treated them as timeouts, 9 pre-heal attempts would cost ≥ 18s.
  EXPECT_GT(clock.now_ms(), 0.0);
  EXPECT_LT(clock.now_ms(), 9 * policy.attempt_timeout_ms);

  EXPECT_EQ(server.indexed_segments(), kUploads);
  EXPECT_EQ(server.stats().uploads_deferred, qs.deferred);
}

}  // namespace
