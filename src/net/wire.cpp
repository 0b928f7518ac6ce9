#include "net/wire.hpp"

#include <cmath>
#include <limits>

#include "geo/angle.hpp"
#include "store/snapshot.hpp"
#include "util/bytes.hpp"

namespace svg::net {

namespace {

using util::ByteReader;
using util::ByteWriter;

constexpr double kDegScale = 1e7;    // 1e-7 degree fixed point
constexpr double kThetaScale = 100.0;  // 0.01 degree fixed point

std::int64_t quantize_deg(double deg) {
  return static_cast<std::int64_t>(std::llround(deg * kDegScale));
}
double dequantize_deg(std::int64_t q) {
  return static_cast<double>(q) / kDegScale;
}

/// Delta-encoded segment records — the body of an upload.
void put_segment_records(ByteWriter& w,
                         std::span<const core::RepresentativeFov> segments) {
  std::int64_t prev_lat = 0, prev_lng = 0;
  std::int64_t prev_t = 0;
  for (const auto& s : segments) {
    const std::int64_t lat = quantize_deg(s.fov.p.lat);
    const std::int64_t lng = quantize_deg(s.fov.p.lng);
    w.put_varint(s.segment_id);
    w.put_svarint(lat - prev_lat);
    w.put_svarint(lng - prev_lng);
    w.put_u16(static_cast<std::uint16_t>(
        std::llround(geo::wrap_deg(s.fov.theta_deg) * kThetaScale) % 36000));
    w.put_svarint(s.t_start - prev_t);
    w.put_varint(static_cast<std::uint64_t>(s.t_end - s.t_start));
    prev_lat = lat;
    prev_lng = lng;
    prev_t = s.t_start;
  }
}

bool get_segment_records(ByteReader& r, std::uint64_t count,
                         std::uint64_t video_id,
                         std::vector<core::RepresentativeFov>& out) {
  store::RepRecordSums sums;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto seg_id = r.get_varint();
    const auto dlat = r.get_svarint();
    const auto dlng = r.get_svarint();
    const auto theta = r.get_u16();
    const auto dt = r.get_svarint();
    const auto dur = r.get_varint();
    if (!seg_id || !dlat || !dlng || !theta || !dt || !dur) return false;
    core::RepresentativeFov rep;
    rep.video_id = video_id;
    rep.segment_id = static_cast<std::uint32_t>(*seg_id);
    if (!sums.next(*dlat, *dlng, *theta, *dt, *dur, rep)) return false;
    out.push_back(rep);
  }
  return true;
}

}  // namespace

// --- upload -----------------------------------------------------------------

std::vector<std::uint8_t> encode_upload(const UploadMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgUpload);
  w.put_varint(m.upload_id);
  w.put_varint(m.video_id);
  w.put_varint(m.segments.size());
  put_segment_records(w, m.segments);
  if (m.trace_id != 0) w.put_ext(kTagTraceId, m.trace_id);
  if (m.parent_span_id != 0) w.put_ext(kTagParentSpan, m.parent_span_id);
  if (m.route_epoch) w.put_ext(kTagEpoch, *m.route_epoch);
  return util::seal(w);
}

std::optional<UploadMessage> decode_upload(
    std::span<const std::uint8_t> bytes) {
  // The checksum gates everything: corrupted bytes must not decode into a
  // plausible-but-wrong message (the chaos tests rely on this).
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  const auto type = r.get_u8();
  const auto uid = r.get_varint();
  const auto vid = r.get_varint();
  const auto count = r.get_varint();
  if (type != kMsgUpload || !uid || !vid || !count) return std::nullopt;
  UploadMessage m;
  m.upload_id = *uid;
  m.video_id = *vid;
  if (!get_segment_records(r, *count, *vid, m.segments)) return std::nullopt;
  const auto ext = r.get_ext(util::ext_bit(kTagTraceId) |
                             util::ext_bit(kTagParentSpan) |
                             util::ext_bit(kTagEpoch));
  if (!ext) return std::nullopt;
  m.trace_id = ext->get(kTagTraceId).value_or(0);
  m.parent_span_id = ext->get(kTagParentSpan).value_or(0);
  m.route_epoch = ext->get(kTagEpoch);
  return m;
}

// --- upload ack -------------------------------------------------------------

std::vector<std::uint8_t> encode_upload_ack(const UploadAck& m) {
  ByteWriter w;
  w.put_u8(kMsgUploadAck);
  w.put_u8(static_cast<std::uint8_t>(m.status));
  w.put_varint(m.upload_id);
  w.put_varint(m.segments_indexed);
  if (m.node_epoch) w.put_ext(kTagEpoch, *m.node_epoch);
  if (m.retry_after_ms != 0) w.put_ext(kTagRetryAfterMs, m.retry_after_ms);
  return util::seal(w);
}

std::optional<UploadAck> decode_upload_ack(
    std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  const auto type = r.get_u8();
  const auto status = r.get_u8();
  const auto uid = r.get_varint();
  const auto segs = r.get_varint();
  if (type != kMsgUploadAck || !status || *status > 4 || !uid || !segs) {
    return std::nullopt;
  }
  const auto ext = r.get_ext(util::ext_bit(kTagEpoch) |
                             util::ext_bit(kTagRetryAfterMs));
  if (!ext) return std::nullopt;
  UploadAck m;
  m.status = static_cast<UploadAckStatus>(*status);
  m.upload_id = *uid;
  m.segments_indexed = *segs;
  m.node_epoch = ext->get(kTagEpoch);
  m.retry_after_ms = ext->get(kTagRetryAfterMs).value_or(0);
  return m;
}

// --- query ------------------------------------------------------------------

std::vector<std::uint8_t> encode_query(const QueryMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgQuery);
  w.put_svarint(m.t_start);
  w.put_varint(static_cast<std::uint64_t>(m.t_end - m.t_start));
  w.put_svarint(quantize_deg(m.center.lat));
  w.put_svarint(quantize_deg(m.center.lng));
  w.put_varint(static_cast<std::uint64_t>(std::llround(m.radius_m)));
  w.put_varint(m.top_n);
  return util::seal(w);
}

std::optional<QueryMessage> decode_query(std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  const auto type = r.get_u8();
  const auto ts = r.get_svarint();
  const auto dur = r.get_varint();
  const auto lat = r.get_svarint();
  const auto lng = r.get_svarint();
  const auto radius = r.get_varint();
  const auto top_n = r.get_varint();
  if (type != kMsgQuery || !ts || !dur || !lat || !lng || !radius || !top_n ||
      !r.exhausted() ||
      *dur > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
    return std::nullopt;
  }
  return checked_query(*ts, static_cast<std::int64_t>(*dur),
                       {dequantize_deg(*lat), dequantize_deg(*lng)},
                       static_cast<double>(*radius), *top_n);
}

std::optional<core::TimestampMs> checked_end(core::TimestampMs t_start,
                                             std::int64_t duration) noexcept {
  core::TimestampMs t_end = 0;
  if (__builtin_add_overflow(t_start, duration, &t_end)) return std::nullopt;
  return t_end;
}

std::optional<QueryMessage> checked_query(std::int64_t t_start,
                                          std::int64_t duration,
                                          const geo::LatLng& center,
                                          double radius_m,
                                          std::uint64_t top_n) noexcept {
  const auto t_end = checked_end(t_start, duration);
  // The negated range tests also reject NaN.
  if (!t_end || !(std::abs(center.lat) <= 90.0) ||
      !(std::abs(center.lng) <= 180.0) || !std::isfinite(radius_m) ||
      top_n > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  QueryMessage m;
  m.t_start = t_start;
  m.t_end = *t_end;
  m.center = center;
  m.radius_m = radius_m;
  m.top_n = static_cast<std::uint32_t>(top_n);
  return m;
}

// --- results ----------------------------------------------------------------

std::vector<std::uint8_t> encode_results(const ResultsMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgResults);
  w.put_varint(m.entries.size());
  for (const auto& e : m.entries) {
    w.put_varint(e.video_id);
    w.put_varint(e.segment_id);
    w.put_svarint(e.t_start);
    w.put_varint(static_cast<std::uint64_t>(e.t_end - e.t_start));
    w.put_varint(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(e.distance_m) * 10.0)));
  }
  return util::seal(w);
}

std::optional<ResultsMessage> decode_results(
    std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  const auto type = r.get_u8();
  const auto count = r.get_varint();
  if (type != kMsgResults || !count) return std::nullopt;
  ResultsMessage m;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto vid = r.get_varint();
    const auto sid = r.get_varint();
    const auto ts = r.get_svarint();
    const auto dur = r.get_varint();
    const auto dist = r.get_varint();
    if (!vid || !sid || !ts || !dur || !dist) return std::nullopt;
    const auto t_end = checked_end(*ts, static_cast<std::int64_t>(*dur));
    if (!t_end) return std::nullopt;
    ResultEntry e;
    e.video_id = *vid;
    e.segment_id = static_cast<std::uint32_t>(*sid);
    e.t_start = *ts;
    e.t_end = *t_end;
    e.distance_m = static_cast<float>(static_cast<double>(*dist) / 10.0);
    m.entries.push_back(e);
  }
  if (!r.exhausted()) return std::nullopt;
  return m;
}

}  // namespace svg::net
