#pragma once
// Index durability: snapshot every live representative FoV to a compact
// binary file and rebuild (via STR bulk load) on restart. The file reuses
// the wire codec's delta encoding, so a 100k-segment index snapshots to
// ~2 MB.
//
// File format, one util frame (util/bytes.hpp) with no extension block:
//   magic "SVGX" | u16 version=3 | u64 last_seq | varint rep_count
//   | delta-encoded records | varint id_count | delta-encoded sorted
//   upload_ids | u32 crc32c(all preceding bytes)
// `last_seq` is the WAL sequence number the snapshot covers (0 for
// standalone snapshots with no WAL). `upload_ids` persists the server's
// ingest-dedup set, so a retransmit arriving after crash recovery is
// still recognized (docs/ROBUSTNESS.md). The CRC trailer turns truncation
// or bit rot into a clean decode failure instead of garbage records.
// Only version 3 decodes.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fov.hpp"
#include "store/env.hpp"
#include "util/bytes.hpp"

namespace svg::store {

inline constexpr std::uint16_t kSnapshotVersion = 3;

/// A decoded snapshot plus its metadata.
struct SnapshotData {
  std::vector<core::RepresentativeFov> reps;
  std::vector<std::uint64_t> upload_ids;  ///< dedup set, sorted
  std::uint64_t last_seq = 0;  ///< WAL sequence this snapshot covers
};

/// Delta-encode a run of representative FoVs (lat/lng fixed-point at
/// 1e-7°, θ centi-degrees, zigzag time deltas) — the shared record codec
/// behind snapshots and WAL upload records.
void put_rep_records(util::ByteWriter& w,
                     std::span<const core::RepresentativeFov> reps);

/// The running sums of a delta-coded record stream, shared by every reader
/// of one (get_rep_records, net's upload body). next() adds one record's
/// deltas and sets rep's position, θ and interval. It rejects what no
/// encoder writes — a quantized |lat| > 90° or |lng| > 180°, a θ code
/// ≥ 36000 — and any sum (lat, lng, t_start, t_start + duration) that
/// would overflow int64. A negative duration (a phone clock stepping back)
/// stays representable.
class RepRecordSums {
 public:
  [[nodiscard]] bool next(std::int64_t dlat, std::int64_t dlng,
                          std::uint16_t theta_code, std::int64_t dt,
                          std::uint64_t duration,
                          core::RepresentativeFov& rep) noexcept;

 private:
  std::int64_t lat_ = 0;
  std::int64_t lng_ = 0;
  std::int64_t t_start_ = 0;
};

/// Decode `count` records written by put_rep_records, appending to `out`.
/// False on truncated/malformed input or a record RepRecordSums rejects
/// (out may hold a partial prefix).
[[nodiscard]] bool get_rep_records(util::ByteReader& r, std::uint64_t count,
                                   std::vector<core::RepresentativeFov>& out);

/// Serialize to an in-memory buffer. `upload_ids` is sorted before
/// encoding (the format stores ascending deltas).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const std::vector<core::RepresentativeFov>& reps,
    std::uint64_t last_seq = 0, std::vector<std::uint64_t> upload_ids = {});

/// Parse a buffer; nullopt on bad magic/version/truncation/CRC mismatch.
[[nodiscard]] std::optional<std::vector<core::RepresentativeFov>>
decode_snapshot(std::span<const std::uint8_t> bytes);

/// Like decode_snapshot but also surfaces last_seq and the dedup set.
[[nodiscard]] std::optional<SnapshotData> decode_snapshot_full(
    std::span<const std::uint8_t> bytes);

/// Write a snapshot file atomically AND durably: write to path+".tmp",
/// fsync the tmp file, rename over path, fsync the directory — so the
/// snapshot survives power loss, not just process death. False on I/O
/// error; on failure the previous file at `path` is untouched (only the
/// tmp file is ever written before the rename). All I/O goes through
/// `env` (null = Env::posix()).
bool save_snapshot_file(const std::vector<core::RepresentativeFov>& reps,
                        const std::string& path, std::uint64_t last_seq = 0,
                        std::vector<std::uint64_t> upload_ids = {},
                        Env* env = nullptr);

/// Read a snapshot file; nullopt on I/O error or malformed content.
[[nodiscard]] std::optional<std::vector<core::RepresentativeFov>>
load_snapshot_file(const std::string& path, Env* env = nullptr);

[[nodiscard]] std::optional<SnapshotData> load_snapshot_file_full(
    const std::string& path, Env* env = nullptr);

}  // namespace svg::store
