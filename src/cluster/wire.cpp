#include "cluster/wire.hpp"

#include <bit>

#include "net/wire.hpp"
#include "store/snapshot.hpp"
#include "util/bytes.hpp"

namespace svg::cluster {

namespace {

using util::ByteReader;
using util::ByteWriter;

void put_double(ByteWriter& w, double v) {
  w.put_u64(std::bit_cast<std::uint64_t>(v));
}

std::optional<double> get_double(ByteReader& r) {
  const auto bits = r.get_u64();
  if (!bits) return std::nullopt;
  return std::bit_cast<double>(*bits);
}

}  // namespace

std::vector<std::uint8_t> encode_query_fanout(const QueryFanoutMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgQueryFanout);
  w.put_varint(m.epoch);
  w.put_svarint(static_cast<std::int64_t>(m.t_start));
  w.put_svarint(static_cast<std::int64_t>(m.t_end - m.t_start));
  put_double(w, m.center.lat);
  put_double(w, m.center.lng);
  put_double(w, m.radius_m);
  w.put_varint(m.top_n);
  return util::seal(w);
}

std::optional<QueryFanoutMessage> decode_query_fanout(
    std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  const auto tag = r.get_u8();
  if (!tag || *tag != kMsgQueryFanout) return std::nullopt;
  const auto epoch = r.get_varint();
  const auto t0 = r.get_svarint();
  const auto dt = r.get_svarint();
  const auto lat = get_double(r);
  const auto lng = get_double(r);
  const auto radius = get_double(r);
  const auto top_n = r.get_varint();
  if (!epoch || !t0 || !dt || !lat || !lng || !radius || !top_n ||
      !r.exhausted()) {
    return std::nullopt;
  }
  const auto q = net::checked_query(*t0, *dt, {*lat, *lng}, *radius, *top_n);
  if (!q) return std::nullopt;
  QueryFanoutMessage m;
  m.epoch = *epoch;
  m.t_start = q->t_start;
  m.t_end = q->t_end;
  m.center = q->center;
  m.radius_m = q->radius_m;
  m.top_n = q->top_n;
  return m;
}

std::vector<std::uint8_t> encode_fanout_results(
    const FanoutResultsMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgFanoutResults);
  w.put_varint(m.node);
  w.put_varint(m.results.size());
  // Reps first (the snapshot codec's delta encoding), then the exact
  // ranking doubles in the same order.
  std::vector<core::RepresentativeFov> reps;
  reps.reserve(m.results.size());
  for (const auto& r : m.results) reps.push_back(r.rep);
  store::put_rep_records(w, reps);
  for (const auto& r : m.results) {
    put_double(w, r.distance_m);
    put_double(w, r.relevance);
  }
  return util::seal(w);
}

std::optional<FanoutResultsMessage> decode_fanout_results(
    std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  const auto tag = r.get_u8();
  if (!tag || *tag != kMsgFanoutResults) return std::nullopt;
  FanoutResultsMessage m;
  const auto node = r.get_varint();
  const auto count = r.get_varint();
  if (!node || !count) return std::nullopt;
  m.node = *node;
  std::vector<core::RepresentativeFov> reps;
  if (!store::get_rep_records(r, *count, reps)) return std::nullopt;
  m.results.reserve(reps.size());
  for (auto& rep : reps) {
    retrieval::RankedResult res;
    res.rep = rep;
    const auto dist = get_double(r);
    const auto rel = get_double(r);
    if (!dist || !rel) return std::nullopt;
    res.distance_m = *dist;
    res.relevance = *rel;
    m.results.push_back(res);
  }
  if (!r.exhausted()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> encode_replicate_batch(
    const ReplicateBatchMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgReplicateBatch);
  w.put_varint(m.primary);
  w.put_varint(m.first_seq);
  w.put_varint(m.payloads.size());
  for (const auto& p : m.payloads) {
    w.put_varint(p.size());
    w.put_bytes(p);
  }
  if (m.epoch) w.put_ext(net::kTagEpoch, *m.epoch);
  return util::seal(w);
}

std::optional<ReplicateBatchMessage> decode_replicate_batch(
    std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  const auto tag = r.get_u8();
  if (!tag || *tag != kMsgReplicateBatch) return std::nullopt;
  ReplicateBatchMessage m;
  const auto primary = r.get_varint();
  const auto first_seq = r.get_varint();
  const auto count = r.get_varint();
  if (!primary || !first_seq || !count) return std::nullopt;
  m.primary = *primary;
  m.first_seq = *first_seq;
  if (*count > body->size()) return std::nullopt;  // length sanity
  m.payloads.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto len = r.get_varint();
    if (!len) return std::nullopt;
    const auto payload = r.get_bytes(*len);
    if (!payload) return std::nullopt;
    m.payloads.emplace_back(payload->begin(), payload->end());
  }
  const auto ext = r.get_ext(util::ext_bit(net::kTagEpoch));
  if (!ext) return std::nullopt;
  m.epoch = ext->get(net::kTagEpoch);
  return m;
}

std::vector<std::uint8_t> encode_replicate_ack(const ReplicateAckMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgReplicateAck);
  w.put_varint(m.follower);
  w.put_varint(m.applied_seq);
  if (m.epoch) w.put_ext(net::kTagEpoch, *m.epoch);
  return util::seal(w);
}

std::optional<ReplicateAckMessage> decode_replicate_ack(
    std::span<const std::uint8_t> bytes) {
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader r(*body);
  const auto tag = r.get_u8();
  if (!tag || *tag != kMsgReplicateAck) return std::nullopt;
  ReplicateAckMessage m;
  const auto follower = r.get_varint();
  const auto applied = r.get_varint();
  if (!follower || !applied) return std::nullopt;
  m.follower = *follower;
  m.applied_seq = *applied;
  const auto ext = r.get_ext(util::ext_bit(net::kTagEpoch));
  if (!ext) return std::nullopt;
  m.epoch = ext->get(net::kTagEpoch);
  return m;
}

}  // namespace svg::cluster
