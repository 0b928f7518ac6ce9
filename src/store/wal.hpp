#pragma once
// Segmented write-ahead log for acknowledged ingest (docs/DURABILITY.md).
//
// On-disk layout, one directory per server:
//   wal-<first_seq, 16 hex>.log    append-only segments
//   snapshot-<seq, 16 hex>.svgx    checkpoints (store/snapshot.hpp format)
//
// Segment format:
//   header  "SVGW" | u16 version=1 | u16 reserved=0 | u64 first_seq (16 B)
//   records u32 payload_len | u32 crc32c(payload) | payload          (each)
// wal_segment_header_ok and walk_wal_frames are its one reader.
//
// Sequence numbers start at 1 and are assigned per append (one upload per
// record); a segment's records are consecutive, so record seq is derived
// from the header and never stored per frame. Rotation happens at batch
// boundaries once a segment exceeds segment_bytes, so a group-committed
// batch never straddles segments.
//
// Write path: group commit. Concurrent append() callers frame their record
// into a shared pending buffer; one caller at a time becomes the leader
// and flushes the whole buffer with a single write() (and fsync, per
// policy) while followers wait. See FsyncPolicy for the ack/durability
// contract. Feeds the svg_wal_* metric family (obs/families.hpp).
//
// Read path: replay tolerates a torn tail — the first bad length/CRC in
// the FINAL segment truncates the log there (partially-written records
// were never acked). A bad record in a non-final segment, or a gap in the
// segment chain, is corruption and fails loudly instead of silently
// skipping acked data.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/fov.hpp"
#include "store/env.hpp"

namespace svg::store {

/// When does append() acknowledge, and what does the ack promise?
/// * kAlways: ack after write+fsync. Survives process crash AND power
///   loss. Group commit still coalesces concurrent appenders into one
///   fsync, so throughput degrades with fsync latency, not caller count.
/// * kBatch: ack after write() reaches the kernel; fsync runs when
///   batch_flush_bytes accumulate or batch_flush_interval_ms elapse.
///   Survives process crash; power loss can lose at most the last
///   un-synced window (watch durable_seq()).
/// * kNone: never fsync (benchmarks/tests). Survives process crash only
///   as far as the kernel flushed on its own.
enum class FsyncPolicy { kAlways, kBatch, kNone };

struct WalOptions {
  std::string dir;
  std::uint64_t segment_bytes = 8ull << 20;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// kBatch: fsync once this many bytes are written but un-synced…
  std::uint64_t batch_flush_bytes = 256u << 10;
  /// …or this much time has passed (a background flusher covers idle
  /// periods). Clamped to ≥ 1.
  std::uint32_t batch_flush_interval_ms = 5;
  /// All file and directory I/O goes through this environment; null means
  /// Env::posix(). Not owned — must outlive the Wal (tests pass a
  /// FaultyEnv; see store/env.hpp).
  Env* env = nullptr;
};

/// seq + payload of every record newer than the replay watermark.
using WalReplayHandler =
    std::function<void(std::uint64_t seq, std::span<const std::uint8_t>)>;

struct WalReplayStats {
  std::size_t segments_scanned = 0;
  std::uint64_t records_scanned = 0;   ///< valid frames in the chain
  std::uint64_t records_replayed = 0;  ///< delivered (seq > replay_after)
  std::uint64_t bytes_truncated = 0;   ///< torn tail dropped on repair
  bool tail_torn = false;
  std::uint64_t next_seq = 1;  ///< first sequence number after the log
};

struct WalSegmentInfo {
  std::string path;
  std::uint64_t first_seq = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t records = 0;
};

struct WalRecordInfo {
  std::uint64_t seq = 0;
  std::size_t segment = 0;  ///< index into WalDump::segments
  std::uint64_t offset = 0;  ///< frame start within the segment file
  std::uint32_t payload_bytes = 0;
};

/// Read-only inspection of a WAL directory (svgctl wal-dump, tests).
/// `error` is non-empty on chain corruption; partial results are kept.
struct WalDump {
  std::vector<WalSegmentInfo> segments;
  std::vector<WalRecordInfo> records;
  WalReplayStats stats;
  std::string error;
};

/// `replay_after` is the checkpoint watermark: a chain whose oldest
/// segment starts past seq 1 is only valid if a snapshot covers the
/// retired prefix, so pass the newest checkpoint's last_seq (0 = no
/// checkpoint, the chain must reach back to seq 1).
[[nodiscard]] WalDump wal_dump(const std::string& dir,
                               std::uint64_t replay_after = 0,
                               Env* env = nullptr);

/// Truncate the log so that no record with seq > `seq` remains: later
/// segments are deleted, the segment containing seq+1 is cut at that
/// record's frame boundary, and a torn tail past the cut is dropped with
/// it. Used by CloudServer::try_recover_storage to realign the on-disk
/// log with the acked in-memory prefix before reopening after a disk
/// fault (unacked bytes from a failed batch must not resurrect — a client
/// retry of one of those uploads would otherwise log its id twice).
/// `replay_after` is the checkpoint watermark, as for wal_dump. False on
/// chain corruption or I/O failure.
[[nodiscard]] bool wal_trim_after(const std::string& dir, std::uint64_t seq,
                                  std::uint64_t replay_after = 0,
                                  Env* env = nullptr);

/// Segment file path for a given first sequence number.
[[nodiscard]] std::string wal_segment_path(const std::string& dir,
                                           std::uint64_t first_seq);

/// One WAL record with its payload — the unit the replication shipper
/// streams to followers (docs/CLUSTER.md).
struct WalRecordData {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// Stream records with seq in (after, after + max_records] out of a WAL
/// directory: the primary-side read of WAL-shipping replication, where
/// `after` is the follower's applied cursor. Returned records are
/// contiguous in seq. `replay_after` is the checkpoint watermark, as for
/// wal_dump (cluster primaries never retire segments, so 0). nullopt on
/// chain corruption or I/O failure; an empty vector means the follower is
/// caught up. max_records == 0 means no cap.
[[nodiscard]] std::optional<std::vector<WalRecordData>> wal_read_records(
    const std::string& dir, std::uint64_t after, std::size_t max_records = 0,
    std::uint64_t replay_after = 0, Env* env = nullptr);

/// True when `bytes` starts with the header of the segment holding
/// `first_seq` onwards.
[[nodiscard]] bool wal_segment_header_ok(std::span<const std::uint8_t> bytes,
                                         std::uint64_t first_seq);

/// Where and why walk_wal_frames stopped.
enum class WalStop : std::uint8_t {
  kClean,        ///< every byte belongs to a whole, CRC-clean frame
  kShortHeader,  ///< fewer bytes left than a frame header
  kBadLength,    ///< frame length 0, over the cap, or past the end
  kBadCrc,       ///< a complete frame whose payload fails its CRC
};

/// Human-readable name of a stop reason (errors, scrub findings).
[[nodiscard]] const char* wal_stop_name(WalStop stop);

struct WalFrameWalk {
  WalStop stop = WalStop::kClean;
  std::uint64_t offset = 0;  ///< bad frame's start, or the end when clean
  std::uint64_t frames = 0;  ///< clean frames visited before the stop
};

/// Called with each clean frame's start offset and payload, in order.
using WalFrameVisitor =
    std::function<void(std::uint64_t offset, std::span<const std::uint8_t>)>;

/// Walk the frames of one segment file's bytes (after its header) until
/// the first bad one. Policy stays with the caller: recovery truncates a
/// bad tail of the final segment; scrub reports a complete frame with a
/// bad CRC as rot even there.
[[nodiscard]] WalFrameWalk walk_wal_frames(std::span<const std::uint8_t> bytes,
                                           const WalFrameVisitor& visit);

struct WalSegmentFile {
  std::string path;
  std::uint64_t first_seq = 0;  ///< parsed from the filename
};

/// Every wal-<16 hex>.log in `dir`, oldest first. Other names (a scrub's
/// *.quarantine rename, snapshots) are not segments.
[[nodiscard]] std::vector<WalSegmentFile> wal_segment_files(
    const std::string& dir);

struct WalOpenResult;

class Wal {
 public:
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Durably append one record. Blocks until the record is acknowledged
  /// per the fsync policy; concurrent callers coalesce into one
  /// write+fsync. Returns the record's sequence number, or 0 after an
  /// unrecoverable I/O error (see ok()). I/O failure is fail-stop: the
  /// first failed write or fsync poisons the log permanently — every
  /// record of the failing batch (and everything after) returns 0 and
  /// durable_seq never advances again. In particular a failed fsync is
  /// never retried (fsyncgate: the kernel may have dropped the dirty
  /// pages, so a later "successful" fsync would ack lost data).
  std::uint64_t append(std::span<const std::uint8_t> payload);

  /// Force everything appended so far to disk (no-op effect under kNone).
  void sync();

  /// Highest sequence number known durable (== last_seq under kAlways
  /// after append returns; trails it under kBatch until the next fsync).
  [[nodiscard]] std::uint64_t durable_seq() const;
  /// Highest acknowledged sequence number.
  [[nodiscard]] std::uint64_t last_seq() const;
  [[nodiscard]] bool ok() const;

  /// Delete segments whose records are all ≤ seq (checkpoint retirement).
  /// The active segment is never deleted. Returns segments removed. A
  /// failed directory fsync afterwards poisons the WAL (fail-stop): the
  /// removals may not be durable, and per fsyncgate semantics nothing
  /// about the directory's durability can be assumed from then on.
  std::size_t retire_through(std::uint64_t seq);

  /// Paths of live segments, oldest first (active segment last).
  [[nodiscard]] std::vector<std::string> segment_files() const;

 private:
  friend struct WalOpenAccess;
  friend WalOpenResult wal_open(WalOptions options, std::uint64_t replay_after,
                                const WalReplayHandler& handler);
  explicit Wal(WalOptions options) : options_(options) {}

  void lead(std::unique_lock<std::mutex>& lock, bool force_sync);
  void sync_locked(std::unique_lock<std::mutex>& lock, std::uint64_t target);
  bool write_all(std::span<const std::uint8_t> bytes);
  bool do_fsync();
  bool rotate(std::uint64_t first_seq);
  bool open_segment(std::uint64_t first_seq, bool resume, std::uint64_t size);
  void start_flusher();

  WalOptions options_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;  // group-commit waiters
  std::condition_variable flush_cv_;  // flusher wakeup/stop
  std::vector<std::uint8_t> pending_;  // framed, not yet written
  std::uint64_t pending_first_seq_ = 0;
  std::uint64_t pending_last_seq_ = 0;
  std::uint64_t pending_count_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t written_seq_ = 0;   // handed to write()
  std::uint64_t durable_seq_ = 0;   // covered by fsync
  bool writing_ = false;            // a leader (or retirer) owns the file
  bool failed_ = false;
  bool stopping_ = false;

  Env* env_ = nullptr;  ///< resolved from options_.env at open

  // Owned by the current leader (writing_ == true) or by single-threaded
  // open/destroy; never touched otherwise.
  std::unique_ptr<File> file_;
  std::uint64_t segment_written_ = 0;
  std::uint64_t unsynced_bytes_ = 0;
  struct LiveSegment {
    std::string path;
    std::uint64_t first_seq;
  };
  std::vector<LiveSegment> segments_;

  std::thread flusher_;
};

struct WalOpenResult {
  std::unique_ptr<Wal> wal;  ///< null on failure
  WalReplayStats stats;
  std::string error;
};

/// Open (creating the directory if needed) a WAL for appending. Replays
/// every record with seq > replay_after through `handler` (may be null),
/// truncates a torn tail, and positions the log for the next append.
/// Fails — wal == nullptr, error set — on chain gaps or mid-chain
/// corruption rather than skipping acked records.
[[nodiscard]] WalOpenResult wal_open(WalOptions options,
                                     std::uint64_t replay_after,
                                     const WalReplayHandler& handler);

// --- record payload codec ---------------------------------------------------

// Type 1 is unused.
inline constexpr std::uint8_t kWalRecUpload = 2;

/// A decoded upload record. upload_id == 0 for id-less ingest.
struct UploadRecord {
  std::uint64_t upload_id = 0;
  std::vector<core::RepresentativeFov> reps;
};

/// Payload of an upload record: u8 type=2 | varint upload_id | varint
/// count | records. Records are the snapshot codec's delta-encoded
/// representative FoVs (store/snapshot.hpp). The id is what lets recovery
/// rebuild the server's dedup set so a retransmit arriving after a crash
/// is still absorbed; id 0 (no dedup id) never joins that set. The frame
/// CRC guards the payload, so it carries none of its own.
[[nodiscard]] std::vector<std::uint8_t> encode_upload_record(
    std::span<const core::RepresentativeFov> reps,
    std::uint64_t upload_id = 0);

/// nullopt on malformed payload (unknown type, truncated records,
/// trailing bytes).
[[nodiscard]] std::optional<UploadRecord> decode_upload_record(
    std::span<const std::uint8_t> payload);

}  // namespace svg::store
