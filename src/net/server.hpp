#pragma once
// The cloud side of Fig. 1: ingest descriptor uploads into the tiered
// spatio-temporal index, answer range queries with the rank-based pipeline,
// serve many queriers in parallel.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "index/tiered_fov_index.hpp"
#include "net/admission.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "retrieval/engine.hpp"
#include "store/checkpoint.hpp"
#include "store/recovery.hpp"
#include "store/wal.hpp"

namespace svg::net {

/// Per-instance production counters. stats() is the single read path and
/// guarantees the cross-counter invariant: any upload visible in
/// `uploads_accepted` has all of its segments already visible in
/// `segments_indexed` (writers publish segments before the accept, readers
/// observe in the opposite order). Process-wide equivalents live in the
/// svg_server_* metric family (obs/families.hpp).
struct ServerStats {
  std::uint64_t uploads_accepted = 0;
  std::uint64_t uploads_rejected = 0;
  std::uint64_t uploads_deduped = 0;  ///< retransmits absorbed by upload_id
  std::uint64_t uploads_deferred = 0;  ///< refused with kRetryLater (degraded)
  std::uint64_t uploads_shed = 0;  ///< refused by admission control (overload)
  std::uint64_t segments_indexed = 0;
  std::uint64_t queries_served = 0;
};

/// Health of the durable ingest path. A durable server that can no longer
/// log (failed WAL append/fsync, per fail-stop semantics) flips to
/// kDegraded: queries keep serving from memory, ingest is refused with a
/// retriable ack, and an operator (or probe) calls try_recover_storage()
/// to flip back once the disk works again. Mirrored by the
/// svg_server_health gauge. Non-durable servers are always kOk.
enum class ServerHealth { kOk, kDegraded };

/// Outcome of one ingest attempt (the tri-state behind UploadAckStatus).
enum class IngestStatus {
  kAccepted,    ///< logged (if durable) and indexed
  kDuplicate,   ///< upload_id already ingested; nothing indexed twice
  kRetryLater,  ///< degraded read-only — not logged, not indexed
};

/// Settings of the server's index, an index::TieredFovIndex: an LSM-style
/// memtable + immutable STR-packed columnar runs + background compaction
/// (docs/PERFORMANCE.md).
struct ServerIndexConfig {
  /// Selects nothing — the tiered index is the only server index; the
  /// enum stays so callers that name Backend::kTiered keep compiling.
  enum class Backend { kTiered };

  ServerIndexConfig() = default;
  explicit ServerIndexConfig(Backend /*backend*/) {}

  /// Memtable seal threshold; 0 → TieredFovIndexOptions default.
  std::size_t memtable = 0;
  /// Background-compaction period; 0 → follow the Checkpointer's cadence
  /// (durability.checkpoint_interval_ms), which itself may be 0 (manual
  /// compaction only — the default for an in-memory server).
  std::uint32_t compact_interval_ms = 0;
};

/// Durable-ingest configuration. An empty data_dir (the default) keeps the
/// server fully in-memory, exactly as before this subsystem existed. With a
/// data_dir, construction recovers the directory (checkpoint + WAL replay —
/// see docs/DURABILITY.md) and every ingest is logged before it is indexed.
struct ServerDurabilityConfig {
  std::string data_dir;  ///< empty = durability off
  store::FsyncPolicy fsync = store::FsyncPolicy::kBatch;
  std::uint64_t segment_bytes = 8ull << 20;
  /// Background checkpoint period; 0 = manual checkpoint_now() only.
  std::uint32_t checkpoint_interval_ms = 0;
  std::uint64_t batch_flush_bytes = 256u << 10;
  std::uint32_t batch_flush_interval_ms = 5;
  /// All WAL/checkpoint/recovery I/O goes through this environment; null
  /// means Env::posix(). Not owned — must outlive the server (tests pass
  /// a store::FaultyEnv to exercise the degraded path).
  store::Env* env = nullptr;
};

class CloudServer {
 public:
  explicit CloudServer(ServerIndexConfig index_config = {},
                       retrieval::RetrievalConfig retrieval_config = {},
                       ServerDurabilityConfig durability = {},
                       AdmissionConfig admission = {});
  ~CloudServer();

  /// Decode + ingest a wire-format upload: the bool view of
  /// handle_upload_acked. True only when the upload is in the index —
  /// accepted now, or a retransmit of an already-ingested upload_id.
  /// False on malformed bytes (counted as a rejection), when admission
  /// control sheds the request, and when a degraded durable server defers
  /// it. `deadline_ms` is this request's admission deadline (0 = the
  /// configured lane default).
  bool handle_upload(std::span<const std::uint8_t> bytes,
                     double deadline_ms = 0.0);

  /// Decode + ingest a wire-format upload and produce the encoded
  /// UploadAck to send back (ingest_admitted's ack). nullopt only when
  /// the bytes are undecodable (no upload_id to address the ack to — the
  /// client's retry timeout covers it). The retrying-client path:
  /// at-least-once delivery on the link, exactly-once effect in the
  /// index. `deadline_ms` as in handle_upload.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> handle_upload_acked(
      std::span<const std::uint8_t> bytes, double deadline_ms = 0.0);

  /// Ingest an already decoded upload (local/in-process path). Returns
  /// false when msg.upload_id was already ingested (nothing indexed) —
  /// always true for id-less (upload_id == 0) messages, which bypass
  /// dedup entirely — and false when the server is degraded read-only
  /// (nothing indexed; use ingest_status to tell the cases apart).
  bool ingest(const UploadMessage& msg);

  /// The tri-state behind ingest()/handle_upload_acked: accepted,
  /// duplicate, or refused-retriably because the durable log is dead
  /// (see ServerHealth). A refused upload is neither logged nor indexed
  /// and its id stays unclaimed, so a retry after recovery is accepted
  /// rather than misread as a duplicate.
  [[nodiscard]] IngestStatus ingest_status(const UploadMessage& msg);

  /// Decode a wire-format query, run retrieval, return encoded results.
  /// nullopt on malformed input — or when the query lane sheds the
  /// request (the silent-retry contract queries already have for a lossy
  /// link; use search_admitted for the decision detail). Thread-safe;
  /// many queriers may call concurrently.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> handle_query(
      std::span<const std::uint8_t> bytes, double deadline_ms = 0.0);

  /// Admission-aware ingest of a decoded upload — a cluster node's
  /// dispatch path and the open-loop bench entry point, sharing one body
  /// (span server.upload, one svg_server_upload_ns sample) with
  /// handle_upload and handle_upload_acked. Returns one admission verdict,
  /// with the queue wait / retry-after detail the wire ack compresses;
  /// the ingest outcome when admitted (`status` is meaningful only when
  /// decision.admitted); and the ack the wire path sends back. A shed
  /// request is answered kRetryLater with a retry-after-ms hint; upload_id
  /// dedup is NOT consulted for it, so the retry lands as a normal ingest.
  struct AdmittedIngest {
    AdmissionDecision decision;
    IngestStatus status = IngestStatus::kRetryLater;
    UploadAck ack;
  };
  [[nodiscard]] AdmittedIngest ingest_admitted(const UploadMessage& msg,
                                               double deadline_ms = 0.0);

  /// Admission-aware in-process search. `results` is empty when the query
  /// lane shed the request (decision.admitted == false).
  struct AdmittedSearch {
    AdmissionDecision decision;
    std::vector<retrieval::RankedResult> results;
  };
  [[nodiscard]] AdmittedSearch search_admitted(const retrieval::Query& q,
                                               double deadline_ms = 0.0) const;

  /// The overload controller, or nullptr when admission is not enabled.
  [[nodiscard]] AdmissionController* admission() const noexcept {
    return admission_.get();
  }

  /// In-process query path (no serialization).
  [[nodiscard]] std::vector<retrieval::RankedResult> search(
      const retrieval::Query& q,
      retrieval::SearchTrace* trace = nullptr) const;

  /// search() with a per-request top-N override — the in-process twin of
  /// handle_query's top_n field, used by the cluster fan-out path so a
  /// node's local cut matches what a wire query would have returned.
  [[nodiscard]] std::vector<retrieval::RankedResult> search_n(
      const retrieval::Query& q, std::uint32_t top_n,
      retrieval::SearchTrace* trace = nullptr) const;

  [[nodiscard]] std::size_t indexed_segments() const { return index_.size(); }

  /// Run/memtable structure of the index. Always engaged.
  [[nodiscard]] std::optional<index::TieredStats> tiered_run_stats() const {
    return index_.run_stats();
  }
  /// Seal the memtable into a run (false = empty memtable).
  bool seal_index_now() { return index_.seal_now(); }
  /// Run one compaction round (all runs when `full`); returns input runs
  /// merged. A server whose compaction cadence is 0 compacts only here.
  std::size_t compact_index_now(bool full = false) {
    return index_.compact_now(full);
  }
  [[nodiscard]] ServerStats stats() const;
  /// Zero this instance's counters (not the process-wide metric family).
  void reset_stats();

  /// Distinct upload_ids the dedup set currently remembers.
  [[nodiscard]] std::size_t known_upload_ids() const;

  /// Durability: persist every indexed segment to `path` (atomic write).
  bool save_snapshot(const std::string& path) const;
  /// Restore a snapshot into the (assumed fresh) index; returns the number
  /// of segments loaded, or nullopt on a missing/corrupt file.
  std::optional<std::size_t> load_snapshot(const std::string& path);

  /// True when constructed with a data_dir (WAL + checkpoints active).
  /// Stays true while degraded — the configuration, not the disk's mood.
  [[nodiscard]] bool durable() const noexcept { return durable_cfg_; }

  /// Current health (always kOk for non-durable servers).
  [[nodiscard]] ServerHealth health() const noexcept {
    return health_.load(std::memory_order_acquire);
  }

  /// Operator-triggered storage recovery: when degraded, trim the on-disk
  /// log back to the acked prefix (unacked bytes from the failed batch
  /// must not resurrect), reopen the WAL, restart checkpointing, and flip
  /// back to kOk. True when healthy afterwards (including "was already
  /// ok"); false when the disk still fails or the server is not durable.
  /// Ingest refused in the meantime keeps getting kRetryLater, so a
  /// backing-off UploadQueue redelivers everything exactly once.
  bool try_recover_storage();
  /// What construction-time recovery found (default-constructed with
  /// ok == false when the server is not durable).
  [[nodiscard]] const store::RecoveryResult& recovery() const noexcept {
    return recovery_;
  }
  /// Snapshot the index now and retire covered WAL segments. False when
  /// not durable or on I/O failure.
  bool checkpoint_now();
  /// Force all acked ingest to disk (kBatch: close the un-synced window).
  void sync_wal();
  /// Highest acknowledged / known-durable WAL sequence (0 if not durable).
  [[nodiscard]] std::uint64_t last_wal_seq() const;
  [[nodiscard]] std::uint64_t durable_wal_seq() const;

 private:
  /// decode_upload, counting a failure as a rejected upload.
  [[nodiscard]] std::optional<UploadMessage> decode_or_reject(
      std::span<const std::uint8_t> bytes);
  /// The body every upload entry point shares; see ingest_admitted.
  [[nodiscard]] AdmittedIngest admit_and_ingest(const UploadMessage& msg,
                                                double deadline_ms);
  /// Atomically claim an upload_id. False = already ingested (retransmit).
  /// id 0 (no dedup id) always claims successfully and is never stored.
  bool claim_upload_id(std::uint64_t id);
  /// Release a claim after a failed WAL append — the upload was never
  /// acked, so its retry must not look like a retransmit.
  void unclaim_upload_id(std::uint64_t id);
  /// One-way ok → degraded flip (first caller wins; counts + gauge once).
  void enter_degraded();
  /// WalOptions equivalent to the construction-time durability config.
  [[nodiscard]] store::WalOptions wal_options() const;
  /// The consistent (seq, index, dedup set) capture for checkpoints.
  [[nodiscard]] store::Checkpointer::Source checkpoint_source();

  index::TieredFovIndex index_;
  retrieval::RetrievalConfig retrieval_config_;
  /// Overload control; null when not configured (the default — admission
  /// off is byte-for-byte the pre-admission server). The controller has
  /// its own mutex, so const search paths may consult it.
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<std::uint64_t> uploads_accepted_{0};
  std::atomic<std::uint64_t> uploads_rejected_{0};
  std::atomic<std::uint64_t> uploads_deduped_{0};
  std::atomic<std::uint64_t> uploads_deferred_{0};
  mutable std::atomic<std::uint64_t> uploads_shed_{0};
  std::atomic<std::uint64_t> segments_indexed_{0};
  mutable std::atomic<std::uint64_t> queries_served_{0};
  std::atomic<ServerHealth> health_{ServerHealth::kOk};

  // Ingest-dedup state. Guarded by its own mutex (many shared-gate
  // holders ingest concurrently); claimed INSIDE the ingest gate and
  // BEFORE the WAL append, so a checkpoint (exclusive gate) can never
  // capture an id whose record it does not also cover.
  mutable std::mutex dedup_mu_;
  std::unordered_set<std::uint64_t> seen_upload_ids_;

  // Durable path. Ingest holds ingest_gate_ shared across (WAL append +
  // index insert); the checkpoint source holds it exclusive across (read
  // last_seq + index snapshot), so a checkpoint's covered-seq is exact —
  // no acked record is missing from it and none newer leaks in (which
  // would replay as a duplicate). checkpointer_ is declared after wal_ so
  // it is destroyed first and never checkpoints against a dead log.
  mutable std::shared_mutex ingest_gate_;  // mutable: const seq accessors
  store::RecoveryResult recovery_;
  bool durable_cfg_ = false;            ///< constructed with a data_dir
  ServerDurabilityConfig durability_;   ///< saved for degraded reopen
  std::unique_ptr<store::Wal> wal_;
  std::unique_ptr<store::Checkpointer> checkpointer_;

  // Recovery/checkpoint administration. Serializes try_recover_storage
  // and checkpoint_now against each other (recovery destroys and
  // recreates checkpointer_, and must stop its background thread before
  // taking ingest_gate_ — that thread's source acquires the gate).
  // Ordering: recover_mu_ before ingest_gate_, never the reverse.
  std::mutex recover_mu_;
  std::uint64_t acked_wal_seq_ = 0;  ///< guarded by recover_mu_
  std::uint64_t recovery_attempts_ = 0;  ///< guarded by recover_mu_ (journal)
  /// Newest checkpoint watermark, cached so a FAILED recovery attempt
  /// (which has already destroyed checkpointer_) can still trim and
  /// verify the chain against the right replay floor on re-entry —
  /// deriving it from a null checkpointer_ would demand a chain back to
  /// seq 1 and brick recovery forever after any retirement. Guarded by
  /// recover_mu_; seeded from construction-time recovery.
  std::uint64_t checkpoint_wal_seq_ = 0;
};

}  // namespace svg::net
