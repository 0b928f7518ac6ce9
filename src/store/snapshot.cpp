#include "store/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geo/angle.hpp"

namespace svg::store {

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'V', 'G', 'X'};
constexpr double kDegScale = 1e7;
constexpr double kThetaScale = 100.0;

/// Open-truncate, write, fsync — the data half of a durable replace.
bool write_file_durable(std::span<const std::uint8_t> bytes,
                        const std::string& path, Env& env) {
  auto file = env.open(path, OpenMode::kTruncate);
  if (!file) return false;
  if (!file->write(bytes)) return false;
  return file->sync();
}

}  // namespace

void put_rep_records(util::ByteWriter& w,
                     std::span<const core::RepresentativeFov> reps) {
  std::int64_t prev_lat = 0, prev_lng = 0, prev_t = 0;
  for (const auto& r : reps) {
    const auto lat =
        static_cast<std::int64_t>(std::llround(r.fov.p.lat * kDegScale));
    const auto lng =
        static_cast<std::int64_t>(std::llround(r.fov.p.lng * kDegScale));
    w.put_varint(r.video_id);
    w.put_varint(r.segment_id);
    w.put_svarint(lat - prev_lat);
    w.put_svarint(lng - prev_lng);
    w.put_u16(static_cast<std::uint16_t>(
        std::llround(geo::wrap_deg(r.fov.theta_deg) * kThetaScale) % 36000));
    w.put_svarint(r.t_start - prev_t);
    w.put_varint(static_cast<std::uint64_t>(r.t_end - r.t_start));
    prev_lat = lat;
    prev_lng = lng;
    prev_t = r.t_start;
  }
}

bool RepRecordSums::next(std::int64_t dlat, std::int64_t dlng,
                         std::uint16_t theta_code, std::int64_t dt,
                         std::uint64_t duration,
                         core::RepresentativeFov& rep) noexcept {
  constexpr auto kMaxLat = static_cast<std::int64_t>(90 * kDegScale);
  constexpr auto kMaxLng = static_cast<std::int64_t>(180 * kDegScale);
  std::int64_t lat = 0, lng = 0, t_start = 0, t_end = 0;
  if (__builtin_add_overflow(lat_, dlat, &lat) ||
      __builtin_add_overflow(lng_, dlng, &lng) ||
      __builtin_add_overflow(t_start_, dt, &t_start) ||
      __builtin_add_overflow(t_start, static_cast<std::int64_t>(duration),
                             &t_end)) {
    return false;
  }
  if (lat < -kMaxLat || lat > kMaxLat || lng < -kMaxLng || lng > kMaxLng ||
      theta_code >= 36000) {
    return false;
  }
  lat_ = lat;
  lng_ = lng;
  t_start_ = t_start;
  rep.fov.p.lat = static_cast<double>(lat) / kDegScale;
  rep.fov.p.lng = static_cast<double>(lng) / kDegScale;
  rep.fov.theta_deg = static_cast<double>(theta_code) / kThetaScale;
  rep.t_start = t_start;
  rep.t_end = t_end;
  return true;
}

bool get_rep_records(util::ByteReader& r, std::uint64_t count,
                     std::vector<core::RepresentativeFov>& out) {
  RepRecordSums sums;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto vid = r.get_varint();
    const auto sid = r.get_varint();
    const auto dlat = r.get_svarint();
    const auto dlng = r.get_svarint();
    const auto theta = r.get_u16();
    const auto dt = r.get_svarint();
    const auto dur = r.get_varint();
    if (!vid || !sid || !dlat || !dlng || !theta || !dt || !dur) {
      return false;
    }
    core::RepresentativeFov rep;
    rep.video_id = *vid;
    rep.segment_id = static_cast<std::uint32_t>(*sid);
    if (!sums.next(*dlat, *dlng, *theta, *dt, *dur, rep)) return false;
    out.push_back(rep);
  }
  return true;
}

std::vector<std::uint8_t> encode_snapshot(
    const std::vector<core::RepresentativeFov>& reps,
    std::uint64_t last_seq, std::vector<std::uint64_t> upload_ids) {
  util::ByteWriter w;
  w.put_bytes(kMagic);
  w.put_u16(kSnapshotVersion);
  w.put_u64(last_seq);
  w.put_varint(reps.size());
  put_rep_records(w, reps);
  // Sorted ascending deltas: dedup ids are random 64-bit values, so raw
  // varints would be ~9 bytes each; sorting drops the expected gap to
  // 2^64/n and the per-id cost toward the gap's varint width.
  std::sort(upload_ids.begin(), upload_ids.end());
  w.put_varint(upload_ids.size());
  std::uint64_t prev = 0;
  for (const auto id : upload_ids) {
    w.put_varint(id - prev);
    prev = id;
  }
  return util::seal(w);
}

std::optional<SnapshotData> decode_snapshot_full(
    std::span<const std::uint8_t> bytes) {
  // Validate the CRC trailer before trusting a single varint: a torn or
  // bit-flipped snapshot must fail here, not decode garbage downstream.
  const auto body = util::unseal(bytes);
  if (!body) return std::nullopt;
  util::ByteReader r(*body);
  for (std::uint8_t m : kMagic) {
    if (r.get_u8() != m) return std::nullopt;
  }
  const auto version = r.get_u16();
  const auto seq = r.get_u64();
  const auto count = r.get_varint();
  if (version != kSnapshotVersion || !seq || !count) return std::nullopt;

  SnapshotData out;
  out.last_seq = *seq;
  // Never trust the claimed count for allocation: each record takes at
  // least 8 bytes on the wire, so anything beyond remaining is corrupt.
  if (*count > r.remaining()) return std::nullopt;
  out.reps.reserve(*count);
  if (!get_rep_records(r, *count, out.reps)) return std::nullopt;
  const auto id_count = r.get_varint();
  if (!id_count || *id_count > r.remaining()) return std::nullopt;
  out.upload_ids.reserve(*id_count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < *id_count; ++i) {
    const auto delta = r.get_varint();
    if (!delta) return std::nullopt;
    prev += *delta;
    out.upload_ids.push_back(prev);
  }
  if (!r.exhausted()) return std::nullopt;
  return out;
}

std::optional<std::vector<core::RepresentativeFov>> decode_snapshot(
    std::span<const std::uint8_t> bytes) {
  auto full = decode_snapshot_full(bytes);
  if (!full) return std::nullopt;
  return std::move(full->reps);
}

bool save_snapshot_file(const std::vector<core::RepresentativeFov>& reps,
                        const std::string& path, std::uint64_t last_seq,
                        std::vector<std::uint64_t> upload_ids, Env* env) {
  Env& e = env != nullptr ? *env : Env::posix();
  const auto bytes = encode_snapshot(reps, last_seq, std::move(upload_ids));
  const std::string tmp = path + ".tmp";
  // Durable atomic replace: data must hit the disk before the rename makes
  // it reachable, and the rename itself must hit the directory — otherwise
  // "atomic" only covers process death, not power loss. Any failure leaves
  // the previous snapshot at `path` intact.
  if (!write_file_durable(bytes, tmp, e)) {
    (void)e.remove_file(tmp);
    return false;
  }
  if (!e.rename_file(tmp, path)) {
    (void)e.remove_file(tmp);
    return false;
  }
  return e.sync_parent_dir(path);
}

std::optional<SnapshotData> load_snapshot_file_full(const std::string& path,
                                                    Env* env) {
  Env& e = env != nullptr ? *env : Env::posix();
  const auto bytes = e.read_file(path);
  if (!bytes) return std::nullopt;
  return decode_snapshot_full(*bytes);
}

std::optional<std::vector<core::RepresentativeFov>> load_snapshot_file(
    const std::string& path, Env* env) {
  auto full = load_snapshot_file_full(path, env);
  if (!full) return std::nullopt;
  return std::move(full->reps);
}

}  // namespace svg::store
