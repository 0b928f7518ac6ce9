// Robustness fuzzing: the server decodes attacker-controlled bytes, so no
// corruption, truncation, or random garbage may crash, hang, or allocate
// absurdly — decoders return nullopt (or a valid message) and nothing else.
//
// The codec table runs one set of checks over every encoder that shares
// the util frame (util/bytes.hpp), plus the WAL record in its frame:
// round trip, every truncation, every single-bit flip, a trailing byte,
// and unknown / repeated / descending extension tags.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>

#include "cluster/wire.hpp"
#include "net/clip_fetch.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "sim/crowd.hpp"
#include "store/env.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;
using svg::store::decode_snapshot;
using svg::store::encode_snapshot;
using svg::util::ByteWriter;

std::vector<std::uint8_t> valid_upload_bytes(std::uint64_t seed) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(seed);
  UploadMessage msg;
  msg.video_id = seed;
  for (const auto& r : svg::sim::random_representative_fovs(
           16, city, 1'400'000'000'000, 3'600'000, rng)) {
    msg.segments.push_back(r);
  }
  return encode_upload(msg);
}

TEST(WireFuzzTest, UploadDecoderSurvivesTruncationAtEveryOffset) {
  const auto bytes = valid_upload_bytes(1);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    // Must not crash; result is nullopt or (for prefixes that happen to
    // be self-consistent) a valid message.
    (void)decode_upload(prefix);
  }
  SUCCEED();
}

TEST(WireFuzzTest, UploadDecoderSurvivesSingleByteCorruption) {
  const auto original = valid_upload_bytes(2);
  svg::util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.bounded(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    const auto out = decode_upload(bytes);
    if (out) {
      // If it still decodes, the structure must be sane.
      ASSERT_LE(out->segments.size(), 1'000'000u);
      for (const auto& s : out->segments) {
        ASSERT_LE(s.t_start, s.t_end);
      }
    }
  }
}

TEST(WireFuzzTest, AllDecodersSurviveRandomGarbage) {
  svg::util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.bounded(200));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.bounded(256));
    }
    (void)decode_upload(garbage);
    (void)decode_query(garbage);
    (void)decode_results(garbage);
    (void)decode_clip_request(garbage);
    (void)decode_clip_response(garbage);
    (void)decode_snapshot(garbage);
  }
  SUCCEED();
}

TEST(WireFuzzTest, SnapshotSurvivesCorruption) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(5);
  const auto reps = svg::sim::random_representative_fovs(
      64, city, 1'400'000'000'000, 3'600'000, rng);
  const auto original = encode_snapshot(reps);
  for (int trial = 0; trial < 1000; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.bounded(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    const auto out = decode_snapshot(bytes);
    if (out) {
      for (const auto& r : *out) {
        ASSERT_LE(r.t_start, r.t_end);
      }
    }
  }
}

TEST(WireFuzzTest, ClipResponseLengthFieldCannotOverallocate) {
  // A response claiming a multi-GB payload with a short body must be
  // rejected before any allocation of that size.
  ByteWriter w;
  w.put_u8(kMsgClipResponse);
  w.put_u8(1);                       // found
  w.put_varint(1);                   // video id
  w.put_svarint(0);                  // t_start
  w.put_varint(1000);                // duration
  w.put_varint(1ULL << 40);          // claimed payload: 1 TB
  w.put_u8(0);                       // ...but only one byte follows
  const auto out = decode_clip_response(svg::util::seal(w));
  EXPECT_FALSE(out.has_value());
}

std::vector<std::uint8_t> valid_upload_v2_bytes(std::uint64_t seed,
                                                std::uint64_t upload_id) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(seed);
  UploadMessage msg;
  msg.upload_id = upload_id;
  msg.video_id = seed;
  for (const auto& r : svg::sim::random_representative_fovs(
           16, city, 1'400'000'000'000, 3'600'000, rng)) {
    msg.segments.push_back(r);
  }
  return encode_upload(msg);
}

TEST(WireFuzzTest, UploadV2DecoderSurvivesTruncationAtEveryOffset) {
  const auto bytes = valid_upload_v2_bytes(12, 0xDEADBEEF);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    // The CRC trailer means no strict prefix can decode.
    EXPECT_FALSE(
        decode_upload(std::span<const std::uint8_t>(bytes.data(), cut))
            .has_value());
  }
}

TEST(WireFuzzTest, UploadV2CrcRejectsEveryBitFlip) {
  // v2 is the retry path: a retransmitted-and-corrupted upload that still
  // decoded would poison the index *and* be deduped against its honest
  // twin. The CRC trailer must reject all of these.
  const auto original = valid_upload_v2_bytes(13, 7777);
  svg::util::Xoshiro256 rng(14);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    const std::size_t flips = 1 + rng.bounded(3);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.bounded(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    if (bytes == original) continue;  // flips may cancel out
    EXPECT_FALSE(decode_upload(bytes).has_value()) << "trial " << trial;
  }
}

TEST(WireFuzzTest, UploadAckSurvivesTruncationCorruptionAndGarbage) {
  UploadAck ack;
  ack.upload_id = 123456789;
  ack.status = UploadAckStatus::kAccepted;
  ack.segments_indexed = 42;
  const auto original = encode_upload_ack(ack);

  const auto back = decode_upload_ack(original);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->upload_id, ack.upload_id);
  EXPECT_EQ(back->status, ack.status);
  EXPECT_EQ(back->segments_indexed, ack.segments_indexed);

  for (std::size_t cut = 0; cut < original.size(); ++cut) {
    EXPECT_FALSE(
        decode_upload_ack(
            std::span<const std::uint8_t>(original.data(), cut))
            .has_value());
  }
  svg::util::Xoshiro256 rng(15);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    bytes[rng.bounded(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.bounded(255));
    EXPECT_FALSE(decode_upload_ack(bytes).has_value());
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.bounded(64));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.bounded(256));
    (void)decode_upload_ack(garbage);
  }
}

TEST(WireFuzzTest, AckedIngestPathSurvivesFuzzedUploads) {
  CloudServer server;
  const auto good = valid_upload_v2_bytes(16, 555);
  svg::util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = good;
    const std::size_t flips = 1 + rng.bounded(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.bounded(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.bounded(255));
    }
    if (const auto ack_bytes = server.handle_upload_acked(bytes)) {
      const auto ack = decode_upload_ack(*ack_bytes);
      ASSERT_TRUE(ack.has_value());  // whatever we emit must decode
    }
  }
  // The genuine upload still lands exactly once afterwards.
  const auto ack_bytes = server.handle_upload_acked(good);
  ASSERT_TRUE(ack_bytes.has_value());
  const auto ack = decode_upload_ack(*ack_bytes);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, UploadAckStatus::kAccepted);
  EXPECT_EQ(server.indexed_segments(), 16u);
}

TEST(WireFuzzTest, ServerHandlesFuzzedUploadsWithoutStateCorruption) {
  CloudServer server;
  const auto good = valid_upload_bytes(6);
  svg::util::Xoshiro256 rng(7);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = good;
    const std::size_t flips = 1 + rng.bounded(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.bounded(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.bounded(255));
    }
    if (server.handle_upload(bytes)) ++accepted;
  }
  // Regardless of what was accepted, the server still works.
  ASSERT_TRUE(server.handle_upload(good));
  const auto stats = server.stats();
  EXPECT_EQ(stats.uploads_accepted, accepted + 1);
  EXPECT_EQ(stats.uploads_rejected, 500 - accepted);
}

// --- the codec table --------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;
namespace cluster = svg::cluster;
namespace store = svg::store;

std::vector<svg::core::RepresentativeFov> table_reps(std::size_t n,
                                                     std::uint64_t seed) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(seed);
  return svg::sim::random_representative_fovs(n, city, 1'400'000'000'000,
                                              3'600'000, rng);
}

/// One encoder's row: a valid encoding, the decoder (re-encoding what it
/// decoded, nullopt when it rejects), how to wrap a body in the row's
/// integrity envelope, and the extension tags the message accepts.
struct CodecRow {
  std::string name;
  Bytes bytes;
  std::function<std::optional<Bytes>(std::span<const std::uint8_t>)>
      reencode;
  /// The body the envelope covers, and the envelope around a body.
  std::function<Bytes(std::span<const std::uint8_t>)> body_of;
  std::function<Bytes(Bytes)> wrap;
  std::vector<std::uint64_t> tags;
  bool has_ext = false;  ///< the encoding already carries extensions
};

/// A decoder lifted to "re-encode whatever decoded".
template <typename Decode, typename Encode>
auto via(Decode decode, Encode encode) {
  return [decode, encode](std::span<const std::uint8_t> b)
             -> std::optional<Bytes> {
    const auto m = decode(b);
    if (!m) return std::nullopt;
    return encode(*m);
  };
}

Bytes sealed_body(std::span<const std::uint8_t> b) {
  return {b.begin(), b.end() - 4};
}

Bytes seal_body(Bytes body) {
  ByteWriter w;
  w.put_bytes(body);
  return svg::util::seal(w);
}

/// A one-record WAL segment holding `payload`, as store::Wal writes it.
Bytes wal_segment_of(std::span<const std::uint8_t> payload) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("svg_codec_table_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  store::WalOptions opts;
  opts.dir = dir.string();
  opts.fsync = store::FsyncPolicy::kNone;
  {
    auto opened = store::wal_open(opts, 0, nullptr);
    EXPECT_TRUE(opened.wal != nullptr) << opened.error;
    if (opened.wal) {
      EXPECT_EQ(opened.wal->append(payload), 1u);
    }
  }
  auto bytes =
      store::Env::posix().read_file(store::wal_segment_path(opts.dir, 1));
  std::filesystem::remove_all(dir);
  return bytes.value_or(Bytes{});
}

/// The upload record held by a one-record WAL segment.
std::optional<store::UploadRecord> wal_record_in(
    std::span<const std::uint8_t> segment) {
  if (!store::wal_segment_header_ok(segment, 1)) return std::nullopt;
  std::vector<Bytes> payloads;
  const auto walk = store::walk_wal_frames(
      segment, [&](std::uint64_t, std::span<const std::uint8_t> p) {
        payloads.emplace_back(p.begin(), p.end());
      });
  if (walk.stop != store::WalStop::kClean || payloads.size() != 1) {
    return std::nullopt;
  }
  return store::decode_upload_record(payloads.front());
}

CodecRow sealed_row(std::string name, Bytes bytes,
                    std::function<std::optional<Bytes>(
                        std::span<const std::uint8_t>)> reencode,
                    std::vector<std::uint64_t> tags = {},
                    bool has_ext = false) {
  return {std::move(name), std::move(bytes), std::move(reencode),
          sealed_body,     seal_body,        std::move(tags),
          has_ext};
}

std::vector<CodecRow> codec_table() {
  std::vector<CodecRow> rows;
  const std::vector<std::uint64_t> upload_tags{kTagTraceId, kTagParentSpan,
                                               kTagEpoch};
  const auto upload_rt = via(decode_upload, encode_upload);
  UploadMessage up;
  up.upload_id = 0xDEADBEEF;
  up.video_id = 77;
  up.segments = table_reps(6, 1);
  for (auto& s : up.segments) s.video_id = up.video_id;
  rows.push_back(sealed_row("upload", encode_upload(up), upload_rt,
                            upload_tags));
  UploadMessage idless = up;
  idless.upload_id = 0;
  rows.push_back(sealed_row("upload without id", encode_upload(idless),
                            upload_rt, upload_tags));
  UploadMessage traced = up;
  traced.trace_id = 0x1234567;
  rows.push_back(sealed_row("upload + trace id", encode_upload(traced),
                            upload_rt, upload_tags, true));
  UploadMessage parent = up;
  parent.parent_span_id = 0x99;
  rows.push_back(sealed_row("upload + parent span", encode_upload(parent),
                            upload_rt, upload_tags, true));
  UploadMessage stamped = up;
  stamped.route_epoch = 0;
  rows.push_back(sealed_row("upload + epoch", encode_upload(stamped),
                            upload_rt, upload_tags, true));
  UploadMessage all = traced;
  all.parent_span_id = 0x99;
  all.route_epoch = 12;
  rows.push_back(sealed_row("upload + every tag", encode_upload(all),
                            upload_rt, upload_tags, true));

  const std::vector<std::uint64_t> ack_tags{kTagEpoch, kTagRetryAfterMs};
  const auto ack_rt = via(decode_upload_ack, encode_upload_ack);
  for (const auto status :
       {UploadAckStatus::kRejected, UploadAckStatus::kAccepted,
        UploadAckStatus::kDuplicate, UploadAckStatus::kRetryLater,
        UploadAckStatus::kStaleEpoch}) {
    UploadAck ack;
    ack.upload_id = 0xDEADBEEF;
    ack.status = status;
    ack.segments_indexed = 6;
    rows.push_back(sealed_row(
        "ack status " + std::to_string(static_cast<int>(status)),
        encode_upload_ack(ack), ack_rt, ack_tags));
  }
  UploadAck hinted;
  hinted.upload_id = 5;
  hinted.status = UploadAckStatus::kRetryLater;
  hinted.retry_after_ms = 250;
  rows.push_back(sealed_row("ack + retry-after", encode_upload_ack(hinted),
                            ack_rt, ack_tags, true));
  UploadAck fenced;
  fenced.upload_id = 5;
  fenced.status = UploadAckStatus::kStaleEpoch;
  fenced.node_epoch = 0;
  rows.push_back(sealed_row("ack + node epoch", encode_upload_ack(fenced),
                            ack_rt, ack_tags, true));
  fenced.retry_after_ms = 9;
  rows.push_back(sealed_row("ack + both tags", encode_upload_ack(fenced),
                            ack_rt, ack_tags, true));

  QueryMessage q;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 600'000;
  q.center = {39.9042, 116.4074};
  q.radius_m = 75.0;
  q.top_n = 25;
  rows.push_back(
      sealed_row("query", encode_query(q), via(decode_query, encode_query)));
  ResultsMessage res;
  for (std::uint64_t i = 0; i < 4; ++i) {
    res.entries.push_back({i * 100, static_cast<std::uint32_t>(i),
                           1'400'000'000'000 + static_cast<std::int64_t>(i),
                           1'400'000'005'000, static_cast<float>(i) * 7.5F});
  }
  const auto results_rt = via(decode_results, encode_results);
  rows.push_back(sealed_row("results", encode_results(res), results_rt));
  rows.push_back(sealed_row("results, empty", encode_results({}), results_rt));

  rows.push_back(sealed_row("clip request",
                            encode_clip_request({7, 1'000, 61'000}),
                            via(decode_clip_request, encode_clip_request)));
  const auto clip_rt = via(decode_clip_response, encode_clip_response);
  ClipResponse found;
  found.found = true;
  found.clip.video_id = 7;
  found.clip.t_start = 1'000;
  found.clip.t_end = 61'000;
  found.clip.payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  rows.push_back(sealed_row("clip response", encode_clip_response(found),
                            clip_rt));
  rows.push_back(sealed_row("clip response, not found",
                            encode_clip_response({}), clip_rt));

  cluster::QueryFanoutMessage fan;
  fan.epoch = 3;
  fan.t_start = q.t_start;
  fan.t_end = q.t_end;
  fan.center = q.center;
  fan.radius_m = 312.5;
  rows.push_back(sealed_row(
      "query fan-out", cluster::encode_query_fanout(fan),
      via(cluster::decode_query_fanout, cluster::encode_query_fanout)));
  cluster::FanoutResultsMessage fres;
  fres.node = 2;
  for (const auto& rep : table_reps(3, 2)) {
    fres.results.push_back({rep, 12.25, 0.875});
  }
  rows.push_back(sealed_row(
      "fan-out results", cluster::encode_fanout_results(fres),
      via(cluster::decode_fanout_results, cluster::encode_fanout_results)));
  const std::vector<std::uint64_t> epoch_tag{kTagEpoch};
  cluster::ReplicateBatchMessage batch;
  batch.primary = 1;
  batch.first_seq = 40;
  batch.payloads = {store::encode_upload_record(up.segments, 9),
                    store::encode_upload_record(up.segments, 10)};
  const auto batch_rt =
      via(cluster::decode_replicate_batch, cluster::encode_replicate_batch);
  rows.push_back(sealed_row("replicate batch",
                            cluster::encode_replicate_batch(batch), batch_rt,
                            epoch_tag));
  batch.epoch = 4;
  rows.push_back(sealed_row("replicate batch + epoch",
                            cluster::encode_replicate_batch(batch), batch_rt,
                            epoch_tag, true));
  cluster::ReplicateAckMessage rack;
  rack.follower = 2;
  rack.applied_seq = 41;
  const auto rack_rt =
      via(cluster::decode_replicate_ack, cluster::encode_replicate_ack);
  rows.push_back(sealed_row("replicate ack",
                            cluster::encode_replicate_ack(rack), rack_rt,
                            epoch_tag));
  rack.epoch = 0;
  rows.push_back(sealed_row("replicate ack + epoch",
                            cluster::encode_replicate_ack(rack), rack_rt,
                            epoch_tag, true));

  rows.push_back(sealed_row(
      "snapshot", encode_snapshot(table_reps(5, 3), 99, {3, 42, 7}),
      [](std::span<const std::uint8_t> b) -> std::optional<Bytes> {
        const auto snap = store::decode_snapshot_full(b);
        if (!snap) return std::nullopt;
        return encode_snapshot(snap->reps, snap->last_seq, snap->upload_ids);
      }));

  for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{0xFEED}}) {
    rows.push_back(
        {"WAL record, id " + std::to_string(id),
         wal_segment_of(store::encode_upload_record(up.segments, id)),
         [](std::span<const std::uint8_t> b) -> std::optional<Bytes> {
           const auto rec = wal_record_in(b);
           if (!rec) return std::nullopt;
           return wal_segment_of(
               store::encode_upload_record(rec->reps, rec->upload_id));
         },
         [](std::span<const std::uint8_t> b) {
           // header (16) | len (4) | crc (4) | payload
           return Bytes(b.begin() + 24, b.end());
         },
         [](Bytes payload) { return wal_segment_of(payload); },
         {},
         false});
  }
  return rows;
}

// --- record readers: what no encoder writes ----------------------------------

/// One delta-coded record's fields after its ids, as an upload body and
/// the store's records both carry them.
struct RawRecord {
  std::int64_t dlat = 0;
  std::int64_t dlng = 0;
  std::uint16_t theta = 0;
  std::int64_t dt = 0;
  std::uint64_t duration = 0;
};

struct CraftedRow {
  std::string name;
  std::vector<RawRecord> records;
  bool decodes = false;
};

std::vector<CraftedRow> crafted_record_rows() {
  constexpr std::int64_t kLat = 399'042'000;    // 39.9042° at 1e-7°
  constexpr std::int64_t kLng = 1'164'074'000;  // 116.4074°
  constexpr std::int64_t kT0 = 1'400'000'000'000;
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  const auto back = [](std::int64_t ms) {  // a negative duration
    return static_cast<std::uint64_t>(-ms);
  };
  return {
      {"in range", {{kLat, kLng, 4500, kT0, 1000}, {10, -10, 35999, 33, 0}},
       true},
      {"poles and antimeridian",
       {{900'000'000, 1'800'000'000, 0, kT0, 0},
        {-1'800'000'000, -3'600'000'000, 0, 0, 0}},
       true},
      {"clock stepped back", {{kLat, kLng, 0, kT0, back(1000)}}, true},
      {"latitude 200", {{2'000'000'000, kLng, 0, kT0, 0}}, false},
      {"latitude past -90", {{-900'000'001, kLng, 0, kT0, 0}}, false},
      {"longitude past 180", {{kLat, 1'800'000'001, 0, kT0, 0}}, false},
      {"theta code 36000", {{kLat, kLng, 36000, kT0, 0}}, false},
      {"theta code 65535", {{kLat, kLng, 65535, kT0, 0}}, false},
      {"latitude sum overflows",
       {{kLat, kLng, 0, kT0, 0}, {kMax, 0, 0, 0, 0}, {kMax, 0, 0, 0, 0}},
       false},
      {"longitude sum overflows",
       {{kLat, -1'800'000'000, 0, kT0, 0}, {0, kMin, 0, 0, 0}}, false},
      {"start time overflows",
       {{kLat, kLng, 0, kMax, 0}, {0, 0, 0, kMax, 0}}, false},
      {"end time overflows", {{kLat, kLng, 0, kMax - 5, 10}}, false},
      {"end time underflows", {{kLat, kLng, 0, kMin + 5, back(10)}}, false},
  };
}

void put_raw(ByteWriter& w, const RawRecord& rec) {
  w.put_svarint(rec.dlat);
  w.put_svarint(rec.dlng);
  w.put_u16(rec.theta);
  w.put_svarint(rec.dt);
  w.put_varint(rec.duration);
}

TEST(WireFuzzTest, UploadRecordsRejectWhatNoEncoderWrites) {
  // Sealed, so only the record check can reject them.
  for (const CraftedRow& row : crafted_record_rows()) {
    SCOPED_TRACE(row.name);
    ByteWriter w;
    w.put_u8(kMsgUpload);
    w.put_varint(1);  // upload id
    w.put_varint(5);  // video id
    w.put_varint(row.records.size());
    for (std::size_t i = 0; i < row.records.size(); ++i) {
      w.put_varint(i);  // segment id
      put_raw(w, row.records[i]);
    }
    const Bytes bytes = svg::util::seal(w);
    const auto msg = decode_upload(bytes);
    EXPECT_EQ(msg.has_value(), row.decodes);
    if (msg) {
      EXPECT_EQ(encode_upload(*msg), bytes);
    }
  }
}

TEST(WireFuzzTest, StoreRecordsRejectWhatNoEncoderWrites) {
  // The fan-out results message carries store::put_rep_records records,
  // the codec snapshots and WAL records share.
  for (const CraftedRow& row : crafted_record_rows()) {
    SCOPED_TRACE(row.name);
    ByteWriter w;
    w.put_u8(cluster::kMsgFanoutResults);
    w.put_varint(2);  // node
    w.put_varint(row.records.size());
    for (std::size_t i = 0; i < row.records.size(); ++i) {
      w.put_varint(5);  // video id
      w.put_varint(i);  // segment id
      put_raw(w, row.records[i]);
    }
    for (std::size_t i = 0; i < row.records.size(); ++i) {
      w.put_u64(std::bit_cast<std::uint64_t>(12.5));  // distance
      w.put_u64(std::bit_cast<std::uint64_t>(0.5));   // relevance
    }
    const Bytes bytes = svg::util::seal(w);
    const auto msg = cluster::decode_fanout_results(bytes);
    EXPECT_EQ(msg.has_value(), row.decodes);
    if (msg) {
      EXPECT_EQ(cluster::encode_fanout_results(*msg), bytes);
    }
  }
}

// --- query readers: what no encoder writes -----------------------------------

TEST(WireFuzzTest, QueryRejectsWhatNoEncoderWrites) {
  // kMsgQuery's fields in encoder order, sealed by hand so only the
  // field check can reject them.
  struct Row {
    std::string name;
    std::int64_t t_start = 1'400'000'000'000;
    std::uint64_t duration = 600'000;
    std::int64_t lat = 399'042'000;  // 39.9042° at 1e-7°
    std::int64_t lng = 1'164'074'000;
    std::uint64_t radius = 75;
    std::uint64_t top_n = 25;
    bool decodes = false;
  };
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::uint64_t k2to63 = std::uint64_t{1} << 63;
  const auto row = [](std::string name, bool decodes) {
    Row r;
    r.name = std::move(name);
    r.decodes = decodes;
    return r;
  };
  std::vector<Row> rows;
  rows.push_back(row("in range", true));
  rows.push_back(row("poles and antimeridian", true));
  rows.back().lat = -900'000'000;
  rows.back().lng = 1'800'000'000;
  rows.push_back(row("window ends at int64 max", true));
  rows.back().t_start = kMax - 10;
  rows.back().duration = 10;
  rows.push_back(row("top_n at uint32 max", true));
  rows.back().top_n = std::numeric_limits<std::uint32_t>::max();
  rows.push_back(row("end time overflows", false));
  rows.back().t_start = kMax;
  rows.back().duration = 1;
  rows.push_back(row("duration 2^63", false));
  rows.back().t_start = -10;
  rows.back().duration = k2to63;
  rows.push_back(row("duration 2^64 - 1", false));
  rows.back().duration = ~std::uint64_t{0};
  rows.push_back(row("latitude 900", false));
  rows.back().lat = 9'000'000'000;
  rows.push_back(row("latitude past -90", false));
  rows.back().lat = -900'000'001;
  rows.push_back(row("longitude past 180", false));
  rows.back().lng = 1'800'000'001;
  rows.push_back(row("top_n 2^32", false));
  rows.back().top_n = std::uint64_t{1} << 32;
  for (const Row& r : rows) {
    SCOPED_TRACE(r.name);
    ByteWriter w;
    w.put_u8(kMsgQuery);
    w.put_svarint(r.t_start);
    w.put_varint(r.duration);
    w.put_svarint(r.lat);
    w.put_svarint(r.lng);
    w.put_varint(r.radius);
    w.put_varint(r.top_n);
    const Bytes bytes = svg::util::seal(w);
    const auto msg = decode_query(bytes);
    EXPECT_EQ(msg.has_value(), r.decodes);
    if (msg) {
      EXPECT_EQ(encode_query(*msg), bytes);
    }
  }
}

TEST(WireFuzzTest, QueryFanoutRejectsWhatNoEncoderWrites) {
  // The fan-out leg's fields in encoder order: exact doubles for the
  // centre and radius, a signed duration.
  struct Row {
    std::string name;
    std::int64_t t_start = 1'400'000'000'000;
    std::int64_t duration = 600'000;
    double lat = 39.9042;
    double lng = 116.4074;
    double radius = 312.5;
    std::uint64_t top_n = 10;
    bool decodes = false;
  };
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto row = [](std::string name, bool decodes) {
    Row r;
    r.name = std::move(name);
    r.decodes = decodes;
    return r;
  };
  std::vector<Row> rows;
  rows.push_back(row("in range", true));
  rows.push_back(row("negative duration", true));
  rows.back().duration = -600'000;
  rows.push_back(row("negative radius", true));
  rows.back().radius = -5.0;
  rows.push_back(row("poles and antimeridian", true));
  rows.back().lat = 90.0;
  rows.back().lng = -180.0;
  rows.push_back(row("end time overflows", false));
  rows.back().t_start = kMax;
  rows.back().duration = 1;
  rows.push_back(row("end time underflows", false));
  rows.back().t_start = kMin;
  rows.back().duration = -1;
  rows.push_back(row("NaN latitude", false));
  rows.back().lat = nan;
  rows.push_back(row("latitude past 90", false));
  rows.back().lat = 90.000001;
  rows.push_back(row("longitude 1e300", false));
  rows.back().lng = 1e300;
  rows.push_back(row("infinite longitude", false));
  rows.back().lng = -kInf;
  rows.push_back(row("infinite radius", false));
  rows.back().radius = kInf;
  rows.push_back(row("NaN radius", false));
  rows.back().radius = nan;
  rows.push_back(row("top_n 2^32", false));
  rows.back().top_n = std::uint64_t{1} << 32;
  for (const Row& r : rows) {
    SCOPED_TRACE(r.name);
    ByteWriter w;
    w.put_u8(cluster::kMsgQueryFanout);
    w.put_varint(3);  // epoch
    w.put_svarint(r.t_start);
    w.put_svarint(r.duration);
    w.put_u64(std::bit_cast<std::uint64_t>(r.lat));
    w.put_u64(std::bit_cast<std::uint64_t>(r.lng));
    w.put_u64(std::bit_cast<std::uint64_t>(r.radius));
    w.put_varint(r.top_n);
    const Bytes bytes = svg::util::seal(w);
    const auto msg = cluster::decode_query_fanout(bytes);
    EXPECT_EQ(msg.has_value(), r.decodes);
    if (msg) {
      EXPECT_EQ(cluster::encode_query_fanout(*msg), bytes);
    }
  }
}

// --- interval readers: what no encoder writes --------------------------------

/// A (t_start, duration varint) pair as the results entry and both clip
/// messages carry it. Encoders write the duration as the u64 wrap of
/// t_end - t_start, so a negative difference is legal; an end past int64
/// is not.
struct IntervalRow {
  std::string name;
  std::int64_t t_start = 0;
  std::uint64_t duration = 0;
  bool decodes = false;
};

std::vector<IntervalRow> crafted_interval_rows() {
  constexpr std::int64_t kT0 = 1'400'000'000'000;
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  const auto back = [](std::int64_t ms) {  // a negative duration
    return static_cast<std::uint64_t>(-ms);
  };
  return {
      {"in range", kT0, 60'000, true},
      {"ends at int64 max", kMax - 10, 10, true},
      {"ends before it starts", kT0, back(5'000), true},
      {"ends at int64 min", kMin + 10, back(10), true},
      {"end time overflows", kMax, 1, false},
      {"end time overflows by more", kMax - 5, 10, false},
      {"end time underflows", kMin + 5, back(10), false},
      {"duration 2^64 - 1 at int64 min", kMin, ~std::uint64_t{0}, false},
  };
}

TEST(WireFuzzTest, ResultsRejectWhatNoEncoderWrites) {
  // One results entry in encoder order, sealed by hand so only the
  // interval check can reject it.
  for (const IntervalRow& row : crafted_interval_rows()) {
    SCOPED_TRACE(row.name);
    ByteWriter w;
    w.put_u8(kMsgResults);
    w.put_varint(1);  // entry count
    w.put_varint(7);  // video id
    w.put_varint(2);  // segment id
    w.put_svarint(row.t_start);
    w.put_varint(row.duration);
    w.put_varint(125);  // 12.5 m in decimetres
    const Bytes bytes = svg::util::seal(w);
    const auto msg = decode_results(bytes);
    EXPECT_EQ(msg.has_value(), row.decodes);
    if (msg) {
      EXPECT_EQ(encode_results(*msg), bytes);
    }
  }
}

TEST(WireFuzzTest, ClipMessagesRejectWhatNoEncoderWrites) {
  // The provider decodes the request and the querier the response; both
  // carry the clip's interval in the same two fields.
  for (const IntervalRow& row : crafted_interval_rows()) {
    SCOPED_TRACE(row.name);
    ByteWriter req;
    req.put_u8(kMsgClipRequest);
    req.put_varint(7);  // video id
    req.put_svarint(row.t_start);
    req.put_varint(row.duration);
    const Bytes req_bytes = svg::util::seal(req);
    const auto request = decode_clip_request(req_bytes);
    EXPECT_EQ(request.has_value(), row.decodes) << "request";
    if (request) {
      EXPECT_EQ(encode_clip_request(*request), req_bytes);
    }

    ByteWriter resp;
    resp.put_u8(kMsgClipResponse);
    resp.put_u8(1);  // found
    resp.put_varint(7);  // video id
    resp.put_svarint(row.t_start);
    resp.put_varint(row.duration);
    resp.put_varint(3);  // payload length
    resp.put_bytes(Bytes{1, 2, 3});
    const Bytes resp_bytes = svg::util::seal(resp);
    const auto response = decode_clip_response(resp_bytes);
    EXPECT_EQ(response.has_value(), row.decodes) << "response";
    if (response) {
      EXPECT_EQ(encode_clip_response(*response), resp_bytes);
    }
  }
}

/// `body` of the row with (tag, value) pairs appended, re-wrapped.
Bytes with_pairs(const CodecRow& row,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs) {
  ByteWriter w;
  w.put_bytes(row.body_of(row.bytes));
  for (const auto& [tag, value] : pairs) w.put_ext(tag, value);
  return row.wrap(w.take());
}

TEST(WireFuzzTest, CodecTableRoundTrips) {
  for (const CodecRow& row : codec_table()) {
    SCOPED_TRACE(row.name);
    ASSERT_FALSE(row.bytes.empty());
    const auto again = row.reencode(row.bytes);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, row.bytes);
    // The envelope helpers reproduce the row's own bytes.
    EXPECT_EQ(row.wrap(row.body_of(row.bytes)), row.bytes);
  }
}

TEST(WireFuzzTest, CodecTableRejectsEveryTruncation) {
  for (const CodecRow& row : codec_table()) {
    SCOPED_TRACE(row.name);
    for (std::size_t cut = 0; cut < row.bytes.size(); ++cut) {
      EXPECT_FALSE(row.reencode({row.bytes.data(), cut}).has_value())
          << "cut at " << cut;
    }
  }
}

TEST(WireFuzzTest, CodecTableRejectsEveryBitFlip) {
  for (const CodecRow& row : codec_table()) {
    SCOPED_TRACE(row.name);
    for (std::size_t bit = 0; bit < row.bytes.size() * 8; ++bit) {
      auto bytes = row.bytes;
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(row.reencode(bytes).has_value()) << "bit " << bit;
    }
  }
}

TEST(WireFuzzTest, CodecTableRejectsTrailingBytes) {
  for (const CodecRow& row : codec_table()) {
    SCOPED_TRACE(row.name);
    auto after = row.bytes;  // after the envelope
    after.push_back(0);
    EXPECT_FALSE(row.reencode(after).has_value());
    // Inside the envelope: a tag no message defines.
    EXPECT_FALSE(row.reencode(with_pairs(row, {{5, 1}})).has_value());
    EXPECT_FALSE(row.reencode(with_pairs(row, {{63, 1}})).has_value());
  }
}

TEST(WireFuzzTest, CodecTableRejectsRepeatedAndDescendingTags) {
  for (const CodecRow& row : codec_table()) {
    if (row.has_ext) continue;  // start from an extension-free encoding
    SCOPED_TRACE(row.name);
    for (std::uint64_t tag = 0; tag < 16; ++tag) {
      const bool known = std::find(row.tags.begin(), row.tags.end(), tag) !=
                         row.tags.end();
      EXPECT_EQ(row.reencode(with_pairs(row, {{tag, 1}})).has_value(), known)
          << "tag " << tag;
      EXPECT_FALSE(
          row.reencode(with_pairs(row, {{tag, 1}, {tag, 2}})).has_value())
          << "repeated tag " << tag;
    }
    for (std::size_t i = 0; i + 1 < row.tags.size(); ++i) {
      const auto lo = row.tags[i];
      const auto hi = row.tags[i + 1];
      EXPECT_TRUE(
          row.reencode(with_pairs(row, {{lo, 1}, {hi, 1}})).has_value())
          << "ascending " << lo << "," << hi;
      EXPECT_FALSE(
          row.reencode(with_pairs(row, {{hi, 1}, {lo, 1}})).has_value())
          << "descending " << hi << "," << lo;
    }
  }
}

}  // namespace
