// Wire-format tests for trace-context propagation (the upload's
// kTagTraceId/kTagParentSpan extensions): untraced encodings stay
// byte-identical to pre-trace builds, traced encodings round-trip, and
// corrupted fields are rejected — including under randomized fuzzing.
// The extension block's tag rules are covered for every message by
// net_wire_fuzz_test's codec table.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;
using svg::core::RepresentativeFov;

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

UploadMessage sample_message(std::uint64_t upload_id) {
  UploadMessage m;
  m.upload_id = upload_id;
  m.video_id = 42;
  m.segments.push_back(
      sample_rep(0, 39.9042, 116.4074, 123.45, 1'400'000'000'000,
                 1'400'000'030'000));
  m.segments.push_back(
      sample_rep(1, 39.9050, 116.4100, 250.0, 1'400'000'030'000,
                 1'400'000'042'000));
  return m;
}

std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

TEST(TraceWireTest, UntracedV2IsByteIdenticalToPreTraceEncoding) {
  // trace_id == 0 must not change the bytes at all: an encoder that
  // appended empty trace fields would break pre-trace decoders and the
  // dedup-by-bytes tests alike.
  UploadMessage untraced = sample_message(7);
  const auto baseline = encode_upload(untraced);
  UploadMessage traced = sample_message(7);
  traced.trace_id = 0xFEED;
  traced.parent_span_id = 0x1234;
  const auto traced_bytes = encode_upload(traced);
  ASSERT_NE(baseline, traced_bytes);
  // Untraced == traced minus exactly the two (tag, value) pairs.
  EXPECT_EQ(traced_bytes.size(), baseline.size() + 2 + varint_len(0xFEED) +
                                     varint_len(0x1234));
  // Same payload prefix before the extension block / crc trailer.
  for (std::size_t i = 0; i + 4 < baseline.size(); ++i) {
    ASSERT_EQ(baseline[i], traced_bytes[i]) << "prefix diverged at " << i;
  }
  // The untraced bytes, pinned as the pre-trace encoder wrote them.
  const std::vector<std::uint8_t> pinned{
      0x06, 0x07, 0x2A, 0x02, 0x00, 0xA0, 0x97, 0xC7, 0xFC, 0x02, 0xA0, 0xF0,
      0x92, 0xD6, 0x08, 0x39, 0x30, 0x80, 0xC0, 0x85, 0xE8, 0xBE, 0x51, 0xB0,
      0xEA, 0x01, 0x01, 0x80, 0x7D, 0xA0, 0x96, 0x03, 0xA8, 0x61, 0xE0, 0xD4,
      0x03, 0xE0, 0x5D, 0x42, 0x11, 0x41, 0x74};
  EXPECT_EQ(baseline, pinned);
  const auto back = decode_upload(baseline);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_id, 0u);
  EXPECT_EQ(back->parent_span_id, 0u);
}

TEST(TraceWireTest, TracedV2RoundTripsBothIds) {
  UploadMessage m = sample_message(9);
  m.trace_id = 0xDEADBEEFCAFEULL;
  m.parent_span_id = 0xF00DULL;
  const auto back = decode_upload(encode_upload(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->upload_id, 9u);
  EXPECT_EQ(back->trace_id, m.trace_id);
  EXPECT_EQ(back->parent_span_id, m.parent_span_id);
  ASSERT_EQ(back->segments.size(), 2u);
  EXPECT_EQ(back->segments[1].segment_id, 1u);
}

TEST(TraceWireTest, ParentSpanZeroStillRoundTrips) {
  // A traced root with no upstream caller: trace_id set, parent 0.
  UploadMessage m = sample_message(3);
  m.trace_id = 0x77;
  m.parent_span_id = 0;
  const auto back = decode_upload(encode_upload(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_id, 0x77u);
  EXPECT_EQ(back->parent_span_id, 0u);
}

TEST(TraceWireTest, EpochStampRoundTripsAndIsAbsentByDefault) {
  UploadMessage m = sample_message(6);
  const auto plain = encode_upload(m);
  m.route_epoch = 0;  // epoch 0 is a valid table
  const auto stamped = encode_upload(m);
  EXPECT_GT(stamped.size(), plain.size());
  const auto back = decode_upload(stamped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->route_epoch, std::optional<std::uint64_t>(0));
  const auto unstamped = decode_upload(plain);
  ASSERT_TRUE(unstamped.has_value());
  EXPECT_FALSE(unstamped->route_epoch.has_value());
}

TEST(TraceWireTest, CorruptedTraceFieldFailsTheChecksum) {
  UploadMessage m = sample_message(11);
  m.trace_id = 0xAABBCCDD;
  m.parent_span_id = 0x42;
  auto bytes = encode_upload(m);
  // Flip a bit inside the trailing trace field (just before the crc).
  bytes[bytes.size() - 6] ^= 0x40;
  EXPECT_FALSE(decode_upload(bytes).has_value());
}

TEST(TraceWireTest, FuzzRoundTripRandomTraceContexts) {
  svg::util::Xoshiro256 rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    UploadMessage m;
    m.upload_id = 1 + rng.bounded(1'000'000);
    m.video_id = rng.next();
    const std::size_t n = rng.bounded(8);
    std::int64_t t = 1'400'000'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      const auto dur = static_cast<std::int64_t>(rng.bounded(60'000));
      m.segments.push_back(sample_rep(
          static_cast<std::uint32_t>(i), rng.uniform(-89.0, 89.0),
          rng.uniform(-179.0, 179.0), rng.uniform(0.0, 360.0), t, t + dur));
      t += dur;
    }
    // Half the trials traced (any 64-bit ids), half untraced.
    if (trial % 2 == 0) {
      m.trace_id = rng.next() | 1;  // never 0
      m.parent_span_id = rng.next();
    }
    const auto back = decode_upload(encode_upload(m));
    ASSERT_TRUE(back.has_value()) << trial;
    EXPECT_EQ(back->upload_id, m.upload_id);
    EXPECT_EQ(back->trace_id, m.trace_id);
    EXPECT_EQ(back->parent_span_id, m.parent_span_id);
    EXPECT_EQ(back->segments.size(), m.segments.size());
  }
}

TEST(TraceWireTest, FuzzBitFlipsNeverYieldWrongTraceIds) {
  // Any single bit flip in a traced v2 message must be rejected outright
  // (crc) — never decoded into a message with different ids.
  svg::util::Xoshiro256 rng(7);
  UploadMessage m = sample_message(77);
  m.trace_id = 0x123456789ABCULL;
  m.parent_span_id = 0xDEF0ULL;
  const auto bytes = encode_upload(m);
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = bytes;
    const std::size_t pos = rng.bounded(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1U << rng.bounded(8));
    const auto back = decode_upload(mutated);
    if (back.has_value()) {
      // Only possible if the flip produced a self-consistent message —
      // with crc32c over the whole body this must never happen here.
      ADD_FAILURE() << "bit flip at " << pos << " decoded";
    }
  }
}

}  // namespace
