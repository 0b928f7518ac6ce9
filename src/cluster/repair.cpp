#include "cluster/repair.hpp"

#include "store/wal.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace svg::cluster {

std::size_t fingerprint_bucket(std::uint64_t upload_id) {
  util::SplitMix64 mix(upload_id);
  return static_cast<std::size_t>(mix.next() >> 60) % kFingerprintBuckets;
}

std::uint64_t record_digest(std::uint64_t upload_id,
                            std::span<const core::RepresentativeFov> reps) {
  // Canonical bytes: the WAL record encoding, which both the wire codec
  // and the WAL round-trip byte-stably (fixed-point quantization).
  const auto payload = store::encode_upload_record(reps, upload_id);
  util::SplitMix64 mix(upload_id ^
                       (static_cast<std::uint64_t>(util::crc32c(payload)) *
                        0x9E3779B97F4A7C15ull));
  return mix.next();
}

FingerprintBook::FingerprintBook(std::size_t partitions)
    : parts_(partitions) {}

void FingerprintBook::reset(std::size_t partitions) {
  std::lock_guard lock(mu_);
  parts_.assign(partitions, PartitionFingerprint{});
}

void FingerprintBook::add(std::size_t partition, std::uint64_t upload_id,
                          std::uint64_t digest) {
  std::lock_guard lock(mu_);
  if (partition >= parts_.size()) return;
  const std::size_t b = fingerprint_bucket(upload_id);
  parts_[partition].hash[b] ^= digest;
  ++parts_[partition].count[b];
}

PartitionFingerprint FingerprintBook::summary(std::size_t partition) const {
  std::lock_guard lock(mu_);
  if (partition >= parts_.size()) return {};
  return parts_[partition];
}

std::size_t FingerprintBook::partitions() const {
  std::lock_guard lock(mu_);
  return parts_.size();
}

std::vector<std::size_t> FingerprintBook::divergent_buckets(
    const PartitionFingerprint& a, const PartitionFingerprint& b) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < kFingerprintBuckets; ++i) {
    if (a.hash[i] != b.hash[i] || a.count[i] != b.count[i]) out.push_back(i);
  }
  return out;
}

bool book_from_wal(const std::string& wal_dir,
                   const GeoPartitioner& partitioner, FingerprintBook& out,
                   store::Env* env) {
  out.reset(partitioner.config().partitions);
  const auto records = store::wal_read_records(wal_dir, 0, 0, 0, env);
  if (!records) return false;
  for (const store::WalRecordData& rec : *records) {
    const auto decoded = store::decode_upload_record(rec.payload);
    if (!decoded || decoded->reps.empty()) continue;
    const std::size_t p = partitioner.partition_of(
        decoded->reps.front().fov.p.lng, decoded->reps.front().fov.p.lat);
    out.add(p, decoded->upload_id,
            record_digest(decoded->upload_id, decoded->reps));
  }
  return true;
}

}  // namespace svg::cluster
