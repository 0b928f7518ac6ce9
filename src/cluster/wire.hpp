#pragma once
// Intra-cluster wire messages, in the same util frame as the client
// protocol (net/wire.hpp): type byte, varint/svarint fields, extension
// block under net::ExtTag numbers, crc32c over everything before it, so a
// FaultyLink byte flip becomes a clean decode failure instead of silent
// state divergence.
//
// Two deliberate departures from the client codec:
// * Fan-out results carry FULL-PRECISION doubles (bit-cast u64) for
//   distance and relevance. The client-facing ResultsMessage quantizes
//   distance to a 0.1 m float — fine for a phone, fatal for the
//   cross-node merge, whose tie-breaks must reproduce the single-node
//   ranking bit for bit (the chaos oracle compares encoded results
//   byte-identically).
// * Replication batches ship raw WAL record payloads untouched — the
//   primary's CRC-framed upload records are already idempotent via
//   upload_id dedup, so the follower replays them through the ordinary
//   ingest path.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/partition.hpp"
#include "core/fov.hpp"
#include "geo/geodesy.hpp"
#include "retrieval/query.hpp"

namespace svg::cluster {

// Type bytes continue the net/wire.hpp numbering (up to 7).
inline constexpr std::uint8_t kMsgQueryFanout = 8;
inline constexpr std::uint8_t kMsgFanoutResults = 9;
inline constexpr std::uint8_t kMsgReplicateBatch = 10;
inline constexpr std::uint8_t kMsgReplicateAck = 11;
// Type 12 is unused.

/// Router → node: one leg of a scatter-gather query. Carries the router's
/// routing epoch so a node can spot a stale router (diagnostic only — the
/// merge is correct regardless, because answers are deduplicated).
struct QueryFanoutMessage {
  std::uint64_t epoch = 0;
  core::TimestampMs t_start = 0;
  core::TimestampMs t_end = 0;
  geo::LatLng center;
  double radius_m = 0.0;
  std::uint32_t top_n = 10;
};

/// Node → router: the node's exact local top-N, already sorted by
/// retrieval::RankedBefore, with exact doubles (see file comment).
struct FanoutResultsMessage {
  std::uint64_t node = 0;  ///< responding node id
  std::vector<retrieval::RankedResult> results;
};

/// Primary → follower: contiguous WAL records starting at first_seq.
///
/// Extensions: kTagEpoch, the shipper's routing epoch (docs/CLUSTER.md).
/// Stale batches are NOT refused — a rejoined demoted primary
/// legitimately ships an old-epoch WAL during resync — but the stamp lets
/// the pair learn each other's epoch over the replication channel, which
/// in an asymmetric partition may be the only link still alive.
struct ReplicateBatchMessage {
  std::uint64_t primary = 0;    ///< shipping node id
  std::uint64_t first_seq = 0;  ///< WAL seq of payloads[0]
  std::optional<std::uint64_t> epoch;  ///< shipper's routing epoch
  std::vector<std::vector<std::uint8_t>> payloads;
};

/// Follower → primary: cursor after applying a batch (monotonic; the
/// shipper takes max() so stale or reordered acks are harmless).
/// Extensions: kTagEpoch, the follower's routing epoch, carried back.
struct ReplicateAckMessage {
  std::uint64_t follower = 0;
  std::uint64_t applied_seq = 0;
  std::optional<std::uint64_t> epoch;  ///< follower's routing epoch
};

/// The full routing state: partition geometry + the current
/// partition→node map. Router::routing() returns it and heartbeats hand
/// it to each node's fence; it has no wire encoding (type 12 is unused).
struct RoutingTableMessage {
  PartitionConfig partition;
  RoutingTable table;
};

[[nodiscard]] std::vector<std::uint8_t> encode_query_fanout(
    const QueryFanoutMessage& m);
[[nodiscard]] std::optional<QueryFanoutMessage> decode_query_fanout(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_fanout_results(
    const FanoutResultsMessage& m);
[[nodiscard]] std::optional<FanoutResultsMessage> decode_fanout_results(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_replicate_batch(
    const ReplicateBatchMessage& m);
[[nodiscard]] std::optional<ReplicateBatchMessage> decode_replicate_batch(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_replicate_ack(
    const ReplicateAckMessage& m);
[[nodiscard]] std::optional<ReplicateAckMessage> decode_replicate_ack(
    std::span<const std::uint8_t> bytes);

}  // namespace svg::cluster
