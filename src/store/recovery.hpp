#pragma once
// Crash recovery for a durable data directory: newest valid checkpoint
// snapshot + replay of every newer WAL record. The contract (pinned by
// store_recovery_test): recovery restores EXACTLY the acked prefix of
// ingest — a torn tail is truncated (those records were never fully
// written, hence never acked), but a missing or corrupt middle segment
// fails loudly instead of silently skipping acknowledged data.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fov.hpp"
#include "store/wal.hpp"

namespace svg::store {

struct RecoveryResult {
  bool ok = false;
  std::string error;  ///< set when !ok

  std::string snapshot_path;  ///< empty if recovery started from scratch
  std::uint64_t snapshot_seq = 0;
  std::uint64_t snapshot_records = 0;
  std::size_t snapshots_skipped = 0;  ///< corrupt snapshots passed over

  std::size_t segments_replayed = 0;
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t bytes_truncated = 0;
  bool tail_torn = false;

  std::uint64_t records_restored = 0;  ///< snapshot + WAL reps delivered
  std::uint64_t next_seq = 1;

  /// One-line human summary (svgctl recover, logs).
  [[nodiscard]] std::string summary() const;
};

struct RecoverAndOpenResult {
  RecoveryResult result;
  std::unique_ptr<Wal> wal;  ///< open for append when result.ok
};

/// Batches of restored representative FoVs, snapshot first, then WAL
/// records in sequence order.
using RecoveryApply =
    std::function<void(std::span<const core::RepresentativeFov>)>;

/// Restored upload_ids (the server's ingest-dedup set): the snapshot's
/// whole set in one call, then each WAL record's id as it replays.
/// Never invoked with id 0 (an id-less record has no dedup id).
using RecoveryApplyIds = std::function<void(std::span<const std::uint64_t>)>;

/// Checkpoint snapshot path for a given covered sequence number.
[[nodiscard]] std::string checkpoint_path(const std::string& dir,
                                          std::uint64_t seq);

/// List checkpoint snapshots in `dir`, newest (highest seq) first.
[[nodiscard]] std::vector<std::string> list_checkpoints(
    const std::string& dir);

/// Restore `dir` into `apply` (and the dedup set into `apply_ids`, when
/// given) and open its WAL for appending (repairing a torn tail). On
/// failure result.ok is false, wal is null, and nothing should be served
/// from the index.
[[nodiscard]] RecoverAndOpenResult recover_and_open(
    WalOptions options, const RecoveryApply& apply,
    const RecoveryApplyIds& apply_ids = nullptr);

}  // namespace svg::store
