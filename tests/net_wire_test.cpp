#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;
using svg::core::RepresentativeFov;
using svg::util::ByteReader;
using svg::util::ByteWriter;

TEST(VarintTest, RoundTripBoundaries) {
  ByteWriter w;
  const std::vector<std::uint64_t> values{
      0, 1, 127, 128, 16'383, 16'384, 0xFFFFFFFFULL,
      0xFFFFFFFFFFFFFFFFULL};
  for (auto v : values) w.put_varint(v);
  ByteReader r(w.bytes());
  for (auto v : values) {
    const auto got = r.get_varint();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, v);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(VarintTest, SignedZigzagRoundTrip) {
  ByteWriter w;
  const std::vector<std::int64_t> values{0,  -1, 1,  -2, 2,
                                         -1'000'000, 1'000'000,
                                         INT64_MIN,  INT64_MAX};
  for (auto v : values) w.put_svarint(v);
  ByteReader r(w.bytes());
  for (auto v : values) {
    ASSERT_EQ(r.get_svarint().value(), v);
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  ByteWriter w;
  w.put_varint(100);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(200);
  EXPECT_EQ(w.size(), 3u);  // 200 needs two bytes
}

TEST(FixedWidthTest, RoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8().value(), 0xAB);
  EXPECT_EQ(r.get_u16().value(), 0xBEEF);
  EXPECT_EQ(r.get_u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64().value(), 0x0123456789ABCDEFULL);
}

TEST(ByteReaderTest, TruncationYieldsNullopt) {
  ByteWriter w;
  w.put_u32(1234);
  const auto bytes = w.bytes();
  const std::span<const std::uint8_t> cut(bytes.data(), 2);
  ByteReader r(cut);
  EXPECT_FALSE(r.get_u32().has_value());
}

TEST(ByteReaderTest, UnterminatedVarintYieldsNullopt) {
  const std::vector<std::uint8_t> bad{0x80, 0x80, 0x80};  // never ends
  ByteReader r(bad);
  EXPECT_FALSE(r.get_varint().has_value());
}

RepresentativeFov sample_rep(std::uint32_t seg, double lat, double lng,
                             double theta, std::int64_t t0, std::int64_t t1) {
  RepresentativeFov rep;
  rep.segment_id = seg;
  rep.fov.p = {lat, lng};
  rep.fov.theta_deg = theta;
  rep.t_start = t0;
  rep.t_end = t1;
  return rep;
}

TEST(UploadCodecTest, RoundTripPreservesFields) {
  UploadMessage m;
  m.video_id = 777;
  m.segments.push_back(
      sample_rep(0, 39.9042, 116.4074, 123.45, 1'400'000'000'000,
                 1'400'000'030'000));
  m.segments.push_back(
      sample_rep(1, 39.9050, 116.4100, 359.99, 1'400'000'030'000,
                 1'400'000'042'000));
  const auto bytes = encode_upload(m);
  const auto back = decode_upload(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->video_id, 777u);
  ASSERT_EQ(back->segments.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back->segments[i].segment_id, m.segments[i].segment_id);
    EXPECT_EQ(back->segments[i].video_id, 777u);
    EXPECT_NEAR(back->segments[i].fov.p.lat, m.segments[i].fov.p.lat, 1e-7);
    EXPECT_NEAR(back->segments[i].fov.p.lng, m.segments[i].fov.p.lng, 1e-7);
    EXPECT_NEAR(back->segments[i].fov.theta_deg,
                m.segments[i].fov.theta_deg, 0.01);
    EXPECT_EQ(back->segments[i].t_start, m.segments[i].t_start);
    EXPECT_EQ(back->segments[i].t_end, m.segments[i].t_end);
  }
}

TEST(UploadCodecTest, RandomizedRoundTrips) {
  svg::util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    UploadMessage m;
    m.video_id = rng.next();
    const std::size_t n = rng.bounded(20);
    std::int64_t t = 1'400'000'000'000 +
                     static_cast<std::int64_t>(rng.bounded(1'000'000'000));
    for (std::size_t i = 0; i < n; ++i) {
      const double lat = rng.uniform(-89.0, 89.0);
      const double lng = rng.uniform(-179.0, 179.0);
      const double theta = rng.uniform(0.0, 360.0);
      const auto dur = static_cast<std::int64_t>(rng.bounded(120'000));
      m.segments.push_back(sample_rep(static_cast<std::uint32_t>(i), lat,
                                      lng, theta, t, t + dur));
      t += dur + static_cast<std::int64_t>(rng.bounded(10'000));
    }
    const auto back = decode_upload(encode_upload(m));
    ASSERT_TRUE(back.has_value()) << trial;
    ASSERT_EQ(back->segments.size(), m.segments.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(back->segments[i].fov.p.lat, m.segments[i].fov.p.lat,
                  1e-6);
      ASSERT_NEAR(back->segments[i].fov.p.lng, m.segments[i].fov.p.lng,
                  1e-6);
      ASSERT_NEAR(back->segments[i].fov.theta_deg,
                  m.segments[i].fov.theta_deg, 0.011);
      ASSERT_EQ(back->segments[i].t_start, m.segments[i].t_start);
      ASSERT_EQ(back->segments[i].t_end, m.segments[i].t_end);
    }
  }
}

TEST(UploadCodecTest, CompactEncoding) {
  // The traffic claim: tens of bytes per segment, not kilobytes.
  UploadMessage m;
  m.video_id = 1;
  std::int64_t t = 1'400'000'000'000;
  for (std::uint32_t i = 0; i < 100; ++i) {
    m.segments.push_back(sample_rep(i, 39.9042 + i * 1e-4,
                                    116.4074 + i * 1e-4, i * 3.6, t,
                                    t + 20'000));
    t += 20'000;
  }
  const auto bytes = encode_upload(m);
  const double per_segment =
      static_cast<double>(bytes.size()) / 100.0;
  EXPECT_LT(per_segment, 25.0);
  EXPECT_GT(per_segment, 5.0);
}

TEST(UploadCodecTest, MalformedInputRejected) {
  EXPECT_FALSE(decode_upload({}).has_value());
  const std::vector<std::uint8_t> wrong_tag{kMsgQuery, 0, 0};
  EXPECT_FALSE(decode_upload(wrong_tag).has_value());
  // Truncated after the header.
  UploadMessage m;
  m.video_id = 5;
  m.segments.push_back(sample_rep(0, 10, 20, 30, 1000, 2000));
  auto bytes = encode_upload(m);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(decode_upload(bytes).has_value());
}

TEST(QueryCodecTest, RoundTrip) {
  QueryMessage q;
  q.t_start = 1'400'000'000'000;
  q.t_end = 1'400'000'600'000;
  q.center = {39.9042, 116.4074};
  q.radius_m = 75.0;
  q.top_n = 25;
  const auto back = decode_query(encode_query(q));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->t_start, q.t_start);
  EXPECT_EQ(back->t_end, q.t_end);
  EXPECT_NEAR(back->center.lat, q.center.lat, 1e-7);
  EXPECT_NEAR(back->center.lng, q.center.lng, 1e-7);
  EXPECT_DOUBLE_EQ(back->radius_m, 75.0);
  EXPECT_EQ(back->top_n, 25u);
}

TEST(QueryCodecTest, TinyOnTheWire) {
  QueryMessage q;
  q.t_start = 1'400'000'000'000;
  q.t_end = 1'400'000'600'000;
  q.center = {39.9042, 116.4074};
  q.radius_m = 75.0;
  EXPECT_LT(encode_query(q).size(), 32u);
}

TEST(ResultsCodecTest, RoundTrip) {
  ResultsMessage m;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ResultEntry e;
    e.video_id = i * 100;
    e.segment_id = static_cast<std::uint32_t>(i);
    e.t_start = 1'400'000'000'000 + static_cast<std::int64_t>(i) * 1000;
    e.t_end = e.t_start + 5000;
    e.distance_m = static_cast<float>(i) * 7.5F;
    m.entries.push_back(e);
  }
  const auto back = decode_results(encode_results(m));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->entries.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(back->entries[i].video_id, m.entries[i].video_id);
    EXPECT_EQ(back->entries[i].segment_id, m.entries[i].segment_id);
    EXPECT_EQ(back->entries[i].t_start, m.entries[i].t_start);
    EXPECT_EQ(back->entries[i].t_end, m.entries[i].t_end);
    EXPECT_NEAR(back->entries[i].distance_m, m.entries[i].distance_m, 0.1);
  }
}

TEST(ResultsCodecTest, MalformedRejected) {
  EXPECT_FALSE(decode_results({}).has_value());
  ResultsMessage m;
  m.entries.push_back({1, 2, 1000, 2000, 3.0F});
  auto bytes = encode_results(m);
  bytes.resize(3);
  EXPECT_FALSE(decode_results(bytes).has_value());
}

}  // namespace
