#pragma once
// Compact binary wire format for the client/server protocol. The paper's
// headline traffic claim — descriptor upload is negligible next to video —
// is reproduced with a real serializer, not an estimate: FoV uploads are
// delta-encoded varints, ~15–20 bytes per representative FoV in practice.
//
// Encoding building blocks: LEB128 varints, zigzag for signed deltas,
// fixed-point lat/lng at 1e-7° (≈1.1 cm — finer than any GPS) and θ at
// 0.01°. Every message, here and in cluster/wire.hpp, is one util frame
// (util/bytes.hpp): type byte | fixed fields | extension block | crc32c.
// The CRC turns a corrupted-but-parseable message (a flipped varint byte
// otherwise silently changes a position) into a clean decode failure.
// Optional fields ride the extension block under the ExtTag numbers
// below; an absent field costs no bytes.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fov.hpp"

namespace svg::net {

// --- protocol messages ------------------------------------------------------

// Type 1 is unused.
inline constexpr std::uint8_t kMsgQuery = 2;
inline constexpr std::uint8_t kMsgResults = 3;
// 4 and 5 are the clip request/response (clip_fetch.hpp).
inline constexpr std::uint8_t kMsgUpload = 6;
inline constexpr std::uint8_t kMsgUploadAck = 7;

/// Extension-block tags: one number space for every message in net/ and
/// cluster/. Each message's decoder accepts only the tags its struct
/// documents.
enum ExtTag : std::uint64_t {
  kTagTraceId = 1,       ///< the sender's trace (obs/trace.hpp)
  kTagParentSpan = 2,    ///< the sender's span the receiver nests under
  kTagEpoch = 3,         ///< a routing-table epoch (docs/CLUSTER.md)
  kTagRetryAfterMs = 4,  ///< server-computed retry-after hint
};

/// A client's end-of-recording upload: every representative FoV of one
/// video. Positions/timestamps are delta-encoded across segments.
///
/// Layout: upload_id | video_id | segment count | segment records, then
/// the extension block. upload_id travels first so the server can dedup
/// retransmits; 0 means "no dedup id" (in-process and id-less phone
/// uploads).
///
/// Extensions: kTagTraceId and kTagParentSpan carry the trace context
/// (obs/trace.hpp), each present when non-zero, so the server's ingest
/// spans join the client's trace. kTagEpoch carries the routing-table
/// epoch a router routed by, for the node's fence (docs/CLUSTER.md).
struct UploadMessage {
  std::uint64_t upload_id = 0;  ///< 0 = no dedup id
  std::uint64_t video_id = 0;
  std::uint64_t trace_id = 0;         ///< 0 = request not traced
  std::uint64_t parent_span_id = 0;   ///< client span the server nests under
  /// Table epoch the sender routed by; nullopt = not routed by a table.
  std::optional<std::uint64_t> route_epoch;
  std::vector<core::RepresentativeFov> segments;
};

/// Server verdict on one upload attempt, keyed by upload_id so the client
/// can match acks to pending queue entries even after reordering.
enum class UploadAckStatus : std::uint8_t {
  kRejected = 0,    ///< permanently malformed — do not retry
  kAccepted = 1,    ///< ingested (durably, if a WAL is configured)
  kDuplicate = 2,   ///< retransmit of an already-ingested upload_id
  kRetryLater = 3,  ///< degraded or overloaded — retry with backoff
  kStaleEpoch = 4,  ///< fenced: the write's routing epoch is stale (or the
                    ///< node lost its heartbeats) — refresh the table, retry
};

/// Extensions: kTagRetryAfterMs, a server-computed retry-after hint on a
/// kRetryLater ack (admission control knows exactly when the queue will
/// have room; the client's blind exponential backoff does not), present
/// when non-zero; and kTagEpoch, the rejecting node's epoch on a
/// kStaleEpoch ack, so the sender can tell how far behind it is.
struct UploadAck {
  std::uint64_t upload_id = 0;
  UploadAckStatus status = UploadAckStatus::kRejected;
  std::uint64_t segments_indexed = 0;
  std::uint64_t retry_after_ms = 0;  ///< 0 = no hint (kRetryLater only)
  /// The fencing node's epoch (kStaleEpoch); nullopt = not sent.
  std::optional<std::uint64_t> node_epoch;
};

struct QueryMessage {
  core::TimestampMs t_start = 0;
  core::TimestampMs t_end = 0;
  geo::LatLng center;
  double radius_m = 0.0;
  std::uint32_t top_n = 10;
};

/// One hit in a results message — enough for the querier to fetch the clip
/// from its provider.
struct ResultEntry {
  std::uint64_t video_id = 0;
  std::uint32_t segment_id = 0;
  core::TimestampMs t_start = 0;
  core::TimestampMs t_end = 0;
  float distance_m = 0.0F;
};

struct ResultsMessage {
  std::vector<ResultEntry> entries;
};

[[nodiscard]] std::vector<std::uint8_t> encode_upload(const UploadMessage& m);
[[nodiscard]] std::optional<UploadMessage> decode_upload(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_upload_ack(const UploadAck& m);
[[nodiscard]] std::optional<UploadAck> decode_upload_ack(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_query(const QueryMessage& m);
[[nodiscard]] std::optional<QueryMessage> decode_query(
    std::span<const std::uint8_t> bytes);

/// t_start + duration: the interval end every decoder here rebuilds from
/// a start field and a duration field. nullopt when the sum overflows
/// int64, which no encoder writes. A u64 duration varint is passed as
/// static_cast<std::int64_t>, so a t_end before t_start — encoded as the
/// u64 wrap of the negative difference — still round-trips.
[[nodiscard]] std::optional<core::TimestampMs> checked_end(
    core::TimestampMs t_start, std::int64_t duration) noexcept;

/// The one check both query decoders (decode_query and the cluster's
/// decode_query_fanout) run on the fields they read, so neither accepts
/// what no encoder writes: nullopt when t_start + duration overflows
/// int64 (checked_end), the centre is not finite or off the globe
/// (|lat| > 90°, |lng| > 180°), the radius is not finite, or top_n does
/// not fit in uint32_t. A negative duration or radius passes — encoders
/// write both.
[[nodiscard]] std::optional<QueryMessage> checked_query(
    std::int64_t t_start, std::int64_t duration, const geo::LatLng& center,
    double radius_m, std::uint64_t top_n) noexcept;

[[nodiscard]] std::vector<std::uint8_t> encode_results(
    const ResultsMessage& m);
[[nodiscard]] std::optional<ResultsMessage> decode_results(
    std::span<const std::uint8_t> bytes);

}  // namespace svg::net
