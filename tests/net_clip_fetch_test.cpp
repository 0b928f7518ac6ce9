#include "net/clip_fetch.hpp"

#include <gtest/gtest.h>

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

TEST(ClipRequestCodecTest, RoundTrip) {
  const ClipRequest req{42, 1'000'000, 1'006'000};
  const auto back = decode_clip_request(encode_clip_request(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->video_id, 42u);
  EXPECT_EQ(back->t_start, 1'000'000);
  EXPECT_EQ(back->t_end, 1'006'000);
}

TEST(ClipRequestCodecTest, MalformedRejected) {
  EXPECT_FALSE(decode_clip_request({}).has_value());
  auto bytes = encode_clip_request({1, 0, 100});
  bytes[0] = kMsgQuery;
  EXPECT_FALSE(decode_clip_request(bytes).has_value());
}

TEST(ClipResponseCodecTest, RoundTripWithPayload) {
  ClipResponse resp;
  resp.found = true;
  resp.clip.video_id = 7;
  resp.clip.t_start = 500;
  resp.clip.t_end = 2500;
  resp.clip.payload = {1, 2, 3, 250, 0};
  const auto back = decode_clip_response(encode_clip_response(resp));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->found);
  EXPECT_EQ(back->clip.video_id, 7u);
  EXPECT_EQ(back->clip.t_start, 500);
  EXPECT_EQ(back->clip.t_end, 2500);
  EXPECT_EQ(back->clip.payload, resp.clip.payload);
}

TEST(ClipResponseCodecTest, NotFoundRoundTrip) {
  ClipResponse resp;
  resp.found = false;
  const auto back = decode_clip_response(encode_clip_response(resp));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->found);
}

TEST(ClipResponseCodecTest, TruncatedPayloadRejected) {
  ClipResponse resp;
  resp.found = true;
  resp.clip.payload.assign(100, 9);
  auto bytes = encode_clip_response(resp);
  bytes.resize(bytes.size() - 50);
  EXPECT_FALSE(decode_clip_response(bytes).has_value());
}

TEST(ServeClipRequestTest, ReturnsClipForKnownVideo) {
  const auto store = store_with(1, 1'000'000, 1'060'000);
  const auto resp_bytes = serve_clip_request(
      store, encode_clip_request({1, 1'010'000, 1'012'000}));
  const auto resp = decode_clip_response(resp_bytes);
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->found);
  EXPECT_EQ(resp->clip.video_id, 1u);
  EXPECT_GT(resp->clip.size_bytes(), 0u);
}

TEST(ServeClipRequestTest, UnknownVideoNotFound) {
  const auto store = store_with(1, 1'000'000, 1'060'000);
  const auto resp = decode_clip_response(serve_clip_request(
      store, encode_clip_request({99, 1'010'000, 1'012'000})));
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->found);
}

TEST(ServeClipRequestTest, GarbageRequestNotFound) {
  const auto store = store_with(1, 0, 1000);
  const std::vector<std::uint8_t> garbage{0xFF, 0x01};
  const auto resp = decode_clip_response(serve_clip_request(store, garbage));
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->found);
}

TEST(FetchCoordinatorTest, FetchesMatchedSegmentOnly) {
  const auto store = store_with(5, 1'000'000, 1'120'000);  // 2 min video
  Link link;
  FetchCoordinator coord;
  coord.register_provider(5, &store, &link);

  const auto clip = coord.fetch(result_for(5, 1'030'000, 1'036'000));
  ASSERT_TRUE(clip.has_value());
  EXPECT_EQ(clip->video_id, 5u);

  const auto& stats = coord.stats();
  EXPECT_EQ(stats.clips_fetched, 1u);
  EXPECT_EQ(stats.clips_missing, 0u);
  EXPECT_GT(stats.clip_bytes, 0u);
  // The matched 6 s clip is a small fraction of the 2 min recording.
  EXPECT_LT(static_cast<double>(stats.clip_bytes),
            0.1 * static_cast<double>(stats.full_video_bytes));
  // Traffic crossed the registered link.
  EXPECT_GT(link.stats().bytes_up, stats.clip_bytes);  // payload + framing
  EXPECT_GT(stats.fetch_time_ms, 0.0);
}

TEST(FetchCoordinatorTest, UnknownProviderCountsMissing) {
  FetchCoordinator coord;
  EXPECT_FALSE(coord.fetch(result_for(1, 0, 1000)).has_value());
  EXPECT_EQ(coord.stats().clips_missing, 1u);
}

TEST(FetchCoordinatorTest, ProviderWithoutVideoCountsMissing) {
  const auto store = store_with(5, 1'000'000, 1'060'000);
  Link link;
  FetchCoordinator coord;
  coord.register_provider(6, &store, &link);  // store lacks video 6
  EXPECT_FALSE(coord.fetch(result_for(6, 1'000'000, 1'001'000)).has_value());
  EXPECT_EQ(coord.stats().clips_missing, 1u);
}

TEST(FetchCoordinatorTest, FetchAllHonoursLimit) {
  const auto s1 = store_with(1, 1'000'000, 1'060'000);
  const auto s2 = store_with(2, 1'000'000, 1'060'000);
  const auto s3 = store_with(3, 1'000'000, 1'060'000);
  Link link;
  FetchCoordinator coord;
  coord.register_provider(1, &s1, &link);
  coord.register_provider(2, &s2, &link);
  coord.register_provider(3, &s3, &link);

  const std::vector<svg::retrieval::RankedResult> results{
      result_for(1, 1'000'000, 1'002'000),
      result_for(2, 1'000'000, 1'002'000),
      result_for(3, 1'000'000, 1'002'000)};
  EXPECT_EQ(coord.fetch_all(results, {}, 2).clips.size(), 2u);
  EXPECT_EQ(coord.stats().clips_fetched, 2u);
  EXPECT_EQ(coord.fetch_all(results).clips.size(), 3u);
}

}  // namespace
