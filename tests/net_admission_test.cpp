// Overload control (docs/ROBUSTNESS.md): the AdmissionController in front
// of CloudServer's ingest/query paths — per-client token buckets, bounded
// virtual admission queues with deadline-aware shedding, and the
// kRetryLater retry-after-ms wire hint the client's UploadQueue paces
// itself by. Every suite here starts with "Admission" so the sanitizer CI
// lanes (-R Admission...) pick them up.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "geo/geodesy.hpp"

#include "net/admission.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;
using svg::core::RepresentativeFov;

const std::vector<RepresentativeFov>& all_reps() {
  static const auto reps = [] {
    svg::sim::CityModel city;
    svg::util::Xoshiro256 rng(23);
    return svg::sim::random_representative_fovs(64, city, 1'400'000'000'000,
                                                86'400'000, rng);
  }();
  return reps;
}

UploadMessage upload_of(std::uint64_t video_id, std::uint64_t upload_id) {
  UploadMessage msg;
  msg.upload_id = upload_id;
  msg.video_id = video_id;
  msg.segments = {all_reps()[(2 * video_id) % 64],
                  all_reps()[(2 * video_id + 1) % 64]};
  return msg;
}

/// Ingest-lane-only controller: rate-limit per client, no virtual queue.
AdmissionConfig bucket_only(double rate, double burst, SimClock* clock,
                            std::size_t buckets = 256) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.per_client.rate_per_sec = rate;
  cfg.per_client.burst = burst;
  cfg.client_buckets = buckets;
  cfg.clock = clock;
  return cfg;
}

// --- token bucket edge cases ------------------------------------------------

TEST(AdmissionTokenBucketTest, BurstAvailableAfterIdle) {
  SimClock clock;
  AdmissionController ctl(bucket_only(10.0, 5.0, &clock));

  // A never-seen client starts with a full bucket: the whole burst admits.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ctl.admit_ingest(7).admitted) << "burst admit " << i;
  }
  const auto throttled = ctl.admit_ingest(7);
  EXPECT_FALSE(throttled.admitted);
  EXPECT_EQ(throttled.outcome, AdmissionOutcome::kThrottled);
  // Next token accrues in 1/rate seconds = 100 ms.
  EXPECT_NEAR(throttled.retry_after_ms, 100.0, 1e-9);

  // A long idle refills the bucket — but only to the burst cap, never
  // beyond: 10 seconds at 10/s would accrue 100 tokens, yet exactly 5
  // admit before the throttle returns.
  clock.advance(10'000.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ctl.admit_ingest(7).admitted) << "post-idle admit " << i;
  }
  EXPECT_FALSE(ctl.admit_ingest(7).admitted);

  const auto s = ctl.stats();
  EXPECT_EQ(s.ingest.admitted, 10U);
  EXPECT_EQ(s.ingest.throttled, 2U);
}

TEST(AdmissionTokenBucketTest, ZeroCapacityBucketAdmitsNothing) {
  SimClock clock;
  // burst == 0 is the shut-this-uploader-out knob: a bucket that can
  // never hold a whole token.
  AdmissionController ctl(bucket_only(10.0, 0.0, &clock));
  for (int i = 0; i < 3; ++i) {
    const auto d = ctl.admit_ingest(42);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.outcome, AdmissionOutcome::kThrottled);
    EXPECT_GT(d.retry_after_ms, 0.0);  // still hints, so probes stay paced
    clock.advance(10'000.0);           // refill time changes nothing
  }
  EXPECT_EQ(ctl.stats().ingest.admitted, 0U);
}

TEST(AdmissionTokenBucketTest, StandingClockNeverRefills) {
  SimClock clock;  // never advanced: sim time stands still
  AdmissionController ctl(bucket_only(1000.0, 3.0, &clock));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ctl.admit_ingest(1).admitted);
  }
  // With time frozen no token ever accrues, no matter how many attempts.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(ctl.admit_ingest(1).admitted);
  }
  EXPECT_EQ(ctl.stats().ingest.throttled, 50U);
}

TEST(AdmissionTokenBucketTest, DistinctClientsDistinctBudgets) {
  SimClock clock;
  AdmissionController ctl(bucket_only(10.0, 2.0, &clock, 256));
  EXPECT_TRUE(ctl.admit_ingest(1).admitted);
  EXPECT_TRUE(ctl.admit_ingest(1).admitted);
  EXPECT_FALSE(ctl.admit_ingest(1).admitted);  // client 1 exhausted
  EXPECT_TRUE(ctl.admit_ingest(2).admitted);   // client 2 unaffected
  EXPECT_TRUE(ctl.admit_ingest(2).admitted);
  EXPECT_FALSE(ctl.admit_ingest(2).admitted);
}

TEST(AdmissionTokenBucketTest, ConcurrentSameBucketIsExactAndClean) {
  // client_buckets = 1: every key hashes to the one bucket, so 4 threads
  // with different ids contend on the same token budget. With the clock
  // standing still the admitted total is exactly the burst — the
  // deterministic invariant TSan runs this under.
  SimClock clock;
  AdmissionController ctl(bucket_only(100.0, 8.0, &clock, 1));
  constexpr int kThreads = 4;
  constexpr int kAttempts = 16;
  std::vector<std::uint64_t> admitted(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAttempts; ++i) {
        if (ctl.admit_ingest(static_cast<std::uint64_t>(t) * 97 + 5)
                .admitted) {
          ++admitted[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t total = 0;
  for (const auto a : admitted) total += a;
  EXPECT_EQ(total, 8U);  // min(burst, attempts) with no queue configured
  const auto s = ctl.stats();
  EXPECT_EQ(s.ingest.admitted, 8U);
  EXPECT_EQ(s.ingest.throttled, kThreads * kAttempts - 8U);
}

// --- virtual admission queue + deadlines ------------------------------------

AdmissionConfig queue_only(double capacity_rps, std::size_t depth,
                           double deadline_ms, SimClock* clock) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.ingest.capacity_rps = capacity_rps;
  cfg.ingest.queue_depth = depth;
  cfg.ingest.default_deadline_ms = deadline_ms;
  cfg.clock = clock;
  return cfg;
}

TEST(AdmissionQueueTest, QueueFullShedsWithDrainHint) {
  SimClock clock;
  // 1000 rps → 1 ms service; depth 4 → at most 4 ms of wait admitted.
  AdmissionController ctl(queue_only(1000.0, 4, 0.0, &clock));
  for (int i = 0; i < 4; ++i) {
    const auto d = ctl.admit_ingest(1);
    EXPECT_TRUE(d.admitted);
    EXPECT_NEAR(d.wait_ms, static_cast<double>(i), 1e-9);
  }
  const auto shed = ctl.admit_ingest(1);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.outcome, AdmissionOutcome::kShedQueueFull);
  // The backlog drains one request per service_ms: one service time from
  // now there is room again, and the hint says exactly that.
  EXPECT_NEAR(shed.retry_after_ms, 1.0, 1e-9);

  clock.advance(shed.retry_after_ms);
  EXPECT_TRUE(ctl.admit_ingest(1).admitted);  // the hint was honest
}

TEST(AdmissionQueueTest, DeadlineShedsBeforeQueueing) {
  SimClock clock;
  AdmissionController ctl(queue_only(1000.0, 64, 3.0, &clock));
  // Three requests fit under the 3 ms default deadline (finish at 1,2,3).
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ctl.admit_ingest(1).admitted);
  }
  // The fourth would finish at 4 ms — 1 ms past its deadline. Shed now,
  // hint by how much it missed.
  const auto shed = ctl.admit_ingest(1);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.outcome, AdmissionOutcome::kShedDeadline);
  EXPECT_NEAR(shed.retry_after_ms, 1.0, 1e-9);

  // A per-request deadline overrides the lane default: the same arrival
  // with a 10 ms budget is happy to wait.
  EXPECT_TRUE(ctl.admit_ingest(1, 10.0).admitted);
  EXPECT_EQ(ctl.stats().ingest.shed_deadline, 1U);
}

TEST(AdmissionQueueTest, QueryLaneIsImmuneToIngestFlood) {
  SimClock clock;
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.ingest.capacity_rps = 1000.0;
  cfg.ingest.queue_depth = 2;
  cfg.query.capacity_rps = 1000.0;
  cfg.query.queue_depth = 8;
  cfg.clock = &clock;
  AdmissionController ctl(cfg);

  // Saturate ingest far past its depth...
  for (int i = 0; i < 32; ++i) (void)ctl.admit_ingest(1);
  const auto s1 = ctl.stats();
  EXPECT_EQ(s1.ingest.admitted, 2U);
  EXPECT_EQ(s1.ingest.shed_queue_full, 30U);
  EXPECT_TRUE(s1.ingest.shedding);

  // ...and the query lane still admits with zero queue wait: its
  // capacity is reserved, not shared.
  const auto q = ctl.admit_query();
  EXPECT_TRUE(q.admitted);
  EXPECT_NEAR(q.wait_ms, 0.0, 1e-9);
  EXPECT_FALSE(ctl.stats().query.shedding);
}

TEST(AdmissionQueueTest, BacklogDecaysAndShedEpisodeCloses) {
  SimClock clock;
  AdmissionController ctl(queue_only(1000.0, 4, 0.0, &clock));
  for (int i = 0; i < 8; ++i) (void)ctl.admit_ingest(1);
  auto s = ctl.stats();
  EXPECT_NEAR(s.ingest.backlog, 4.0, 1e-9);
  EXPECT_TRUE(s.ingest.shedding);

  clock.advance(10.0);  // queue fully drains
  s = ctl.stats();
  EXPECT_NEAR(s.ingest.backlog, 0.0, 1e-9);
  // The first post-drain admit closes the shed episode.
  EXPECT_TRUE(ctl.admit_ingest(1).admitted);
  EXPECT_FALSE(ctl.stats().ingest.shedding);
}

TEST(AdmissionQueueTest, UnconfiguredLanesAdmitEverything) {
  SimClock clock;
  AdmissionConfig cfg;
  cfg.enabled = true;  // enabled but all knobs at their zero defaults
  cfg.clock = &clock;
  AdmissionController ctl(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ctl.admit_ingest(static_cast<std::uint64_t>(i)).admitted);
    EXPECT_TRUE(ctl.admit_query().admitted);
  }
  EXPECT_EQ(ctl.stats().ingest.admitted, 100U);
  EXPECT_EQ(ctl.stats().query.admitted, 100U);
}

// --- the retry-after wire hint ----------------------------------------------

TEST(AdmissionWireTest, AckHintRoundTrips) {
  UploadAck ack;
  ack.upload_id = 77;
  ack.status = UploadAckStatus::kRetryLater;
  ack.segments_indexed = 0;
  ack.retry_after_ms = 1234;
  const auto bytes = encode_upload_ack(ack);
  const auto decoded = decode_upload_ack(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->upload_id, 77U);
  EXPECT_EQ(decoded->status, UploadAckStatus::kRetryLater);
  EXPECT_EQ(decoded->retry_after_ms, 1234U);
}

TEST(AdmissionWireTest, HintlessAcksKeepLegacyShape) {
  UploadAck ack;
  ack.upload_id = 9;
  ack.status = UploadAckStatus::kAccepted;
  ack.segments_indexed = 3;
  const auto legacy = encode_upload_ack(ack);  // retry_after_ms == 0

  // The hint-less encoding carries exactly tag + status + two varints +
  // crc: no phantom zero field (that is what keeps it byte-identical to
  // pre-hint encoders).
  EXPECT_EQ(legacy.size(), 2U + 1U + 1U + 4U);
  const std::vector<std::uint8_t> pinned{0x07, 0x01, 0x09, 0x03,
                                         0x48, 0xC9, 0xC0, 0x69};
  EXPECT_EQ(legacy, pinned);
  const auto decoded = decode_upload_ack(legacy);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->retry_after_ms, 0U);

  ack.retry_after_ms = 5;
  EXPECT_GT(encode_upload_ack(ack).size(), legacy.size());
}

TEST(AdmissionWireTest, CorruptedHintedAcksNeverMisdecode) {
  UploadAck ack;
  ack.upload_id = 0xDEADBEEF;
  ack.status = UploadAckStatus::kRetryLater;
  ack.retry_after_ms = 250;
  const auto bytes = encode_upload_ack(ack);
  // Flip every single byte position in turn: each corruption must be
  // rejected outright or decode to the identical message (a flip inside
  // the crc that still matches is astronomically unlikely, but the
  // contract is "never a different message").
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0x41;
    const auto decoded = decode_upload_ack(mutated);
    if (decoded.has_value()) {
      EXPECT_EQ(decoded->upload_id, ack.upload_id);
      EXPECT_EQ(decoded->retry_after_ms, ack.retry_after_ms);
    }
  }
}

// --- server + client end to end ---------------------------------------------

TEST(AdmissionServerTest, OverloadedServerDefersWithHint) {
  SimClock clock;
  AdmissionConfig admission = queue_only(1000.0, 1, 0.0, &clock);
  CloudServer server({}, {}, {}, admission);

  const auto first = server.handle_upload_acked(encode_upload(upload_of(1, 101)));
  ASSERT_TRUE(first.has_value());
  const auto ack1 = decode_upload_ack(*first);
  ASSERT_TRUE(ack1.has_value());
  EXPECT_EQ(ack1->status, UploadAckStatus::kAccepted);

  // Same instant: the lane is busy and the queue depth is 1 → shed with
  // a hint, nothing indexed, dedup NOT consulted.
  const auto second =
      server.handle_upload_acked(encode_upload(upload_of(2, 202)));
  ASSERT_TRUE(second.has_value());
  const auto ack2 = decode_upload_ack(*second);
  ASSERT_TRUE(ack2.has_value());
  EXPECT_EQ(ack2->status, UploadAckStatus::kRetryLater);
  EXPECT_GE(ack2->retry_after_ms, 1U);
  EXPECT_EQ(ack2->segments_indexed, 0U);
  EXPECT_EQ(server.stats().uploads_shed, 1U);

  // The retry after the hinted wait is admitted as a plain new ingest —
  // kAccepted, not kDuplicate (the shed attempt never claimed the id).
  clock.advance(static_cast<double>(ack2->retry_after_ms));
  const auto third =
      server.handle_upload_acked(encode_upload(upload_of(2, 202)));
  ASSERT_TRUE(third.has_value());
  const auto ack3 = decode_upload_ack(*third);
  ASSERT_TRUE(ack3.has_value());
  EXPECT_EQ(ack3->status, UploadAckStatus::kAccepted);
}

TEST(AdmissionServerTest, UploadQueueHonorsRetryAfterHint) {
  SimClock clock;
  AdmissionConfig admission = queue_only(10.0, 1, 0.0, &clock);  // 100 ms svc
  CloudServer server({}, {}, {}, admission);

  RetryPolicy policy;
  policy.base_backoff_ms = 10'000.0;  // blind backoff would wait 10 s
  policy.jitter = 0.0;
  UploadQueue queue(policy, /*seed=*/3, &clock);
  ClientStats mirror;
  queue.attach_client_stats(&mirror);

  queue.enqueue(upload_of(1, 0));
  queue.enqueue(upload_of(2, 0));
  queue.enqueue(upload_of(3, 0));
  const bool all = queue.drain([&](const std::vector<std::uint8_t>& bytes) {
    const auto ack = server.handle_upload_acked(bytes);
    return ack ? decode_upload_ack(*ack) : std::nullopt;
  });
  EXPECT_TRUE(all);

  const auto& qs = queue.stats();
  EXPECT_EQ(qs.acked, 3U);
  EXPECT_GE(qs.retry_after_hints, 1U);
  EXPECT_GT(qs.hinted_wait_ms, 0.0);
  // Hints beat the 10 s blind backoff: the whole drain finishes in sim
  // time bounded by a few service times, not policy.base_backoff_ms.
  EXPECT_LT(clock.now_ms(), 1'000.0);
  // Mirrored into the attached client stats block.
  EXPECT_EQ(mirror.retry_after_hints, qs.retry_after_hints);
  EXPECT_NEAR(mirror.retry_after_wait_ms, qs.hinted_wait_ms, 1e-9);
}

TEST(AdmissionServerTest, QueryLaneShedsWireAndInProcess) {
  SimClock clock;
  AdmissionConfig admission;
  admission.enabled = true;
  admission.query.capacity_rps = 1000.0;
  admission.query.queue_depth = 1;
  admission.clock = &clock;
  CloudServer server({}, {}, {}, admission);
  ASSERT_TRUE(server.handle_upload(encode_upload(upload_of(1, 11))));

  // A small circle dead ahead of an uploaded camera — guaranteed
  // coverable (queries match FoV coverage, not proximity).
  const auto& rep = all_reps()[2];
  const double theta = rep.fov.theta_deg * 3.14159265358979323846 / 180.0;
  QueryMessage wire_q;
  wire_q.t_start = 1'400'000'000'000;
  wire_q.t_end = wire_q.t_start + 86'400'000;
  wire_q.center = svg::geo::offset_m(rep.fov.p, 20.0 * std::sin(theta),
                                     20.0 * std::cos(theta));
  wire_q.radius_m = 5.0;
  const auto encoded = encode_query(wire_q);

  EXPECT_TRUE(server.handle_query(encoded).has_value());
  // Lane busy, depth 1 → the second query this instant is shed: silence
  // on the wire (the querier's lossy-link retry covers it)...
  EXPECT_FALSE(server.handle_query(encoded).has_value());

  // ...and full decision detail in-process.
  svg::retrieval::Query q;
  q.t_start = wire_q.t_start;
  q.t_end = wire_q.t_end;
  q.center = wire_q.center;
  q.radius_m = wire_q.radius_m;
  const auto shed = server.search_admitted(q);
  EXPECT_FALSE(shed.decision.admitted);
  EXPECT_TRUE(shed.results.empty());
  EXPECT_GT(shed.decision.retry_after_ms, 0.0);

  clock.advance(10.0);
  const auto ok = server.search_admitted(q);
  EXPECT_TRUE(ok.decision.admitted);
  EXPECT_FALSE(ok.results.empty());
}

TEST(AdmissionServerTest, DisabledAdmissionChangesNothing) {
  CloudServer server;  // default config: admission off
  EXPECT_EQ(server.admission(), nullptr);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto ack_bytes =
        server.handle_upload_acked(encode_upload(upload_of(i, 1000 + i)));
    ASSERT_TRUE(ack_bytes.has_value());
    const auto ack = decode_upload_ack(*ack_bytes);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->status, UploadAckStatus::kAccepted);
    EXPECT_EQ(ack->retry_after_ms, 0U);
  }
  EXPECT_EQ(server.stats().uploads_shed, 0U);
  // In-process admitted entry points degrade to plain calls.
  const auto d = server.ingest_admitted(upload_of(60, 2000));
  EXPECT_TRUE(d.decision.admitted);
  EXPECT_EQ(d.status, IngestStatus::kAccepted);
}

}  // namespace
