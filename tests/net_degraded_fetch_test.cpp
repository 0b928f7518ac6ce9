// Degraded clip fetch: per-request deadlines and retries over faulty links,
// partial FetchReports with every unfetchable clip explicitly flagged.

#include <gtest/gtest.h>

#include <vector>

#include "net/clip_fetch.hpp"
#include "net/fault.hpp"

namespace {

using namespace svg::net;
using svg::media::RecordedVideo;
using svg::media::VideoStore;

VideoStore store_with(std::uint64_t id, svg::core::TimestampMs start,
                      svg::core::TimestampMs end) {
  VideoStore s;
  s.add(RecordedVideo(id, start, end));
  return s;
}

svg::retrieval::RankedResult result_for(std::uint64_t vid,
                                        svg::core::TimestampMs t0,
                                        svg::core::TimestampMs t1) {
  svg::retrieval::RankedResult r;
  r.rep.video_id = vid;
  r.rep.t_start = t0;
  r.rep.t_end = t1;
  return r;
}

TEST(DegradedFetchTest, CleanFaultyLinkBehavesLikeReliableFetch) {
  const auto store = store_with(1, 1'000'000, 1'060'000);
  Link link;
  FaultyLink faulty(link, FaultPlan{});
  FetchCoordinator coord;
  coord.register_provider(1, &store, &faulty);
  MissingClip miss;
  const auto clip =
      coord.fetch(result_for(1, 1'010'000, 1'016'000), {}, &miss);
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->video_id, 1u);
  EXPECT_EQ(coord.stats().attempts, 1u);
  EXPECT_EQ(coord.stats().retries, 0u);
}

TEST(DegradedFetchTest, RetrySucceedsUnderHeavyDrops) {
  const auto store = store_with(2, 1'000'000, 1'060'000);
  SimClock clock;
  FaultPlan plan;
  plan.seed = 77;
  plan.drop = 0.5;
  Link link;
  FaultyLink faulty(link, plan, &clock);
  FetchCoordinator coord;
  coord.register_provider(2, &store, &faulty);

  FetchPolicy policy;
  policy.max_attempts = 16;
  policy.deadline_ms = 0;  // attempts alone bound the work
  std::size_t fetched = 0;
  for (int i = 0; i < 10; ++i) {
    if (coord.fetch(result_for(2, 1'010'000, 1'012'000), policy)) {
      ++fetched;
    }
  }
  EXPECT_EQ(fetched, 10u);  // 16 tries at 50% loss: failure odds ~2^-16
  EXPECT_GT(coord.stats().retries, 0u);
  EXPECT_GT(coord.stats().timeouts, 0u);
}

TEST(DegradedFetchTest, UnknownProviderFlaggedWithoutLinkTraffic) {
  FetchCoordinator coord;
  MissingClip miss;
  EXPECT_FALSE(coord.fetch(result_for(9, 0, 1000), {}, &miss));
  EXPECT_EQ(miss.reason, FetchFailure::kUnknownProvider);
  EXPECT_EQ(miss.video_id, 9u);
  EXPECT_EQ(miss.attempts, 0u);
}

TEST(DegradedFetchTest, NotFoundIsTerminalNotRetried) {
  const auto store = store_with(3, 1'000'000, 1'060'000);
  SimClock clock;
  Link link;
  FaultyLink faulty(link, FaultPlan{}, &clock);
  FetchCoordinator coord;
  coord.register_provider(4, &store, &faulty);  // store lacks video 4
  MissingClip miss;
  FetchPolicy policy;
  policy.max_attempts = 5;
  EXPECT_FALSE(
      coord.fetch(result_for(4, 1'000'000, 1'001'000), policy, &miss));
  EXPECT_EQ(miss.reason, FetchFailure::kNotFound);
  // A definitive "I don't have it" must not burn the retry budget.
  EXPECT_EQ(miss.attempts, 1u);
}

TEST(DegradedFetchTest, DeadLinkTimesOutWithAttemptCount) {
  const auto store = store_with(5, 1'000'000, 1'060'000);
  SimClock clock;
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 1.0;
  Link link;
  FaultyLink faulty(link, plan, &clock);
  FetchCoordinator coord;
  coord.register_provider(5, &store, &faulty);
  MissingClip miss;
  FetchPolicy policy;
  policy.max_attempts = 4;
  policy.deadline_ms = 0;
  EXPECT_FALSE(
      coord.fetch(result_for(5, 1'000'000, 1'002'000), policy, &miss));
  EXPECT_EQ(miss.reason, FetchFailure::kTimedOut);
  EXPECT_EQ(miss.attempts, 4u);
  EXPECT_GT(clock.now_ms(), 3 * policy.attempt_timeout_ms);
}

TEST(DegradedFetchTest, DeadlineCutsRetriesShort) {
  const auto store = store_with(6, 1'000'000, 1'060'000);
  SimClock clock;
  FaultPlan plan;
  plan.seed = 6;
  plan.drop = 1.0;
  Link link;
  FaultyLink faulty(link, plan, &clock);
  FetchCoordinator coord;
  coord.register_provider(6, &store, &faulty);
  MissingClip miss;
  FetchPolicy policy;
  policy.max_attempts = 100;
  policy.attempt_timeout_ms = 1'000.0;
  policy.deadline_ms = 3'000.0;
  EXPECT_FALSE(
      coord.fetch(result_for(6, 1'000'000, 1'002'000), policy, &miss));
  EXPECT_EQ(miss.reason, FetchFailure::kTimedOut);
  EXPECT_LT(miss.attempts, 100u);  // deadline, not attempt budget, stopped it
}

TEST(DegradedFetchTest, PartialReportFlagsOnlyTheUnreachableClips) {
  const auto good_store = store_with(1, 1'000'000, 1'060'000);
  const auto gone_store = store_with(99, 1'000'000, 1'060'000);
  SimClock clock;
  Link good_link, dead_link, gone_link;
  FaultyLink good(good_link, FaultPlan{}, &clock);
  FaultPlan dead_plan;
  dead_plan.seed = 1;
  dead_plan.drop = 1.0;
  FaultyLink dead(dead_link, dead_plan, &clock);
  FaultyLink gone(gone_link, FaultPlan{}, &clock);

  const auto dead_store = store_with(2, 1'000'000, 1'060'000);
  FetchCoordinator coord;
  coord.register_provider(1, &good_store, &good);
  coord.register_provider(2, &dead_store, &dead);
  coord.register_provider(3, &gone_store, &gone);  // store lacks video 3
  // video 4 never registered at all

  const std::vector<svg::retrieval::RankedResult> results{
      result_for(1, 1'010'000, 1'012'000), result_for(2, 1'010'000, 1'012'000),
      result_for(3, 1'010'000, 1'012'000), result_for(4, 1'010'000, 1'012'000)};
  FetchPolicy policy;
  policy.max_attempts = 3;
  policy.deadline_ms = 0;
  const auto report = coord.fetch_all(results, policy);

  EXPECT_FALSE(report.complete());
  ASSERT_EQ(report.clips.size(), 1u);
  EXPECT_EQ(report.clips[0].video_id, 1u);
  ASSERT_EQ(report.missing.size(), 3u);
  for (const auto& miss : report.missing) {
    switch (miss.video_id) {
      case 2:
        EXPECT_EQ(miss.reason, FetchFailure::kTimedOut);
        break;
      case 3:
        EXPECT_EQ(miss.reason, FetchFailure::kNotFound);
        break;
      case 4:
        EXPECT_EQ(miss.reason, FetchFailure::kUnknownProvider);
        break;
      default:
        ADD_FAILURE() << "unexpected missing video " << miss.video_id;
    }
  }
}

TEST(DegradedFetchTest, CorruptedExchangeIsRetriedNotMistakenForNotFound) {
  // 100% corruption: requests arrive mangled (provider stays silent) or
  // responses arrive mangled (querier discards). Either way every attempt
  // must read as a timeout — never as an authoritative "not found".
  const auto store = store_with(7, 1'000'000, 1'060'000);
  SimClock clock;
  FaultPlan plan;
  plan.seed = 7;
  plan.corrupt = 1.0;
  Link link;
  FaultyLink faulty(link, plan, &clock);
  FetchCoordinator coord;
  coord.register_provider(7, &store, &faulty);
  MissingClip miss;
  FetchPolicy policy;
  policy.max_attempts = 3;
  policy.deadline_ms = 0;
  EXPECT_FALSE(
      coord.fetch(result_for(7, 1'000'000, 1'002'000), policy, &miss));
  EXPECT_EQ(miss.reason, FetchFailure::kTimedOut);
  EXPECT_EQ(miss.attempts, 3u);
}

}  // namespace
