#pragma once
// The metric families of the capture→index→query pipeline, defined in one
// place so names stay consistent and every subsystem shares the same
// process-wide instruments. Each family is a bundle of references into
// Registry::global(); `shared()` registers on first use and is cheap
// afterwards, so call sites do
//
//   obs::index_metrics().inserts.inc();
//
// and pay one relaxed atomic add. touch_all_families() force-registers
// every family so a scrape shows zeros instead of omitting idle
// subsystems — the Prometheus "initialize your metrics" rule.
//
// Naming: svg_<area>_<what>[_<unit>][_total] — see docs/OBSERVABILITY.md.

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace svg::obs {

/// net::CloudServer — ingest and query front door.
struct ServerMetrics {
  Counter& uploads_accepted;
  Counter& uploads_rejected;
  Counter& uploads_deduped;     ///< retransmits absorbed by upload_id dedup
  Counter& reject_decode;       ///< rejection reason: wire decode failed
  Counter& reject_query_decode; ///< malformed query messages
  Counter& segments_indexed;
  Counter& queries;
  Gauge& health;  ///< svg_server_health: 0 = ok, 1 = degraded read-only
  Histogram& upload_ns;  ///< one upload: decode + admission + ingest
  Histogram& ingest_ns;  ///< index-insertion portion of an upload
  Histogram& query_ns;   ///< handle_query / search wall time
};

/// index::TieredFovIndex — the server's insert-only index: inserts, range
/// queries and the size (svg_index_*).
struct IndexMetrics {
  Counter& inserts;
  Counter& queries;
  Gauge& size;  ///< indexed segments
  Histogram& insert_ns;
  Histogram& query_ns;
};

/// index::TieredFovIndex — sealed-run lifecycle of the tiered backend
/// (svg_index_run_*): memtable seals, the resulting immutable runs, and
/// how often the per-run [ts_min, ts_max] tag lets a query skip a run.
struct IndexRunMetrics {
  Gauge& count;          ///< sealed immutable runs currently live
  Gauge& rows;           ///< rows stored across all sealed runs
  Gauge& memtable_rows;  ///< rows in the mutable memtable
  Counter& seals;        ///< memtable → run seal events
  Counter& sealed_rows;  ///< rows sealed into runs (cumulative)
  Counter& time_pruned;  ///< runs skipped by the [ts_min, ts_max] tag
  Counter& scans;        ///< runs actually scanned by queries
  Histogram& seal_ns;    ///< STR order + column fill + block index per seal
};

/// index::TieredFovIndex — background/manual compaction
/// (svg_index_compaction_*): merge rounds and their input/output sizes.
struct IndexCompactionMetrics {
  Counter& compactions;   ///< merge rounds completed
  Counter& input_runs;    ///< runs consumed by merges
  Counter& output_rows;   ///< rows written into merged runs
  Histogram& compact_ns;  ///< merge round wall time, input reads included
};

/// retrieval::RetrievalEngine — the rank-based pipeline, per stage.
struct RetrievalMetrics {
  Counter& searches;
  Counter& candidates;    ///< funnel: emitted by the range search
  Counter& after_filter;  ///< funnel: survived the orientation filter
  Counter& returned;      ///< funnel: in the final top-N
  Histogram& range_search_ns;
  Histogram& filter_ns;
  Histogram& rank_ns;
  Histogram& search_ns;  ///< whole pipeline
};

/// net::Link — bytes and messages crossing the simulated cellular link.
struct LinkMetrics {
  Counter& messages_up;
  Counter& bytes_up;
  Counter& messages_down;
  Counter& bytes_down;
};

/// net::FaultyLink — impairments injected by the active FaultPlan. Every
/// message that crosses a faulty link counts in `messages`; the other
/// counters record which faults actually fired (docs/ROBUSTNESS.md).
struct NetFaultMetrics {
  Counter& messages;          ///< transfers attempted through faulty links
  Counter& drops;             ///< deliveries suppressed by drop probability
  Counter& duplicates;        ///< extra copies delivered
  Counter& reorders;          ///< messages held and delivered late
  Counter& corruptions;       ///< deliveries with flipped bytes
  Counter& disconnect_drops;  ///< deliveries lost to a disconnect window
};

/// net::UploadQueue / FetchCoordinator — the retry machinery that turns a
/// lossy link into at-least-once delivery. `upload_attempts` counts every
/// send (first try + retries); `upload_retries` only the re-sends, so
/// attempts - retries == distinct uploads tried.
struct NetRetryMetrics {
  Counter& upload_attempts;
  Counter& upload_retries;
  Counter& upload_acks;            ///< uploads acknowledged by the server
  Counter& upload_duplicate_acks;  ///< acks for retransmits the server deduped
  Counter& upload_exhausted;       ///< uploads abandoned after max attempts
  Counter& upload_rejected;        ///< server said permanent reject
  Counter& upload_deferrals;       ///< kRetryLater acks (degraded server)
  Counter& upload_retry_after_hints;  ///< deferrals carrying a server hint
  Counter& fetch_attempts;         ///< clip-fetch exchanges attempted
  Counter& fetch_retries;
  Counter& fetch_failures;         ///< clips given up on (flagged missing)
  Histogram& backoff_ms;           ///< simulated backoff sleeps
  Histogram& attempts_per_upload;  ///< attempts each acked upload needed
};

/// core segmentation — the client-side real-time pipeline (Algorithm 1).
struct SegmentationMetrics {
  Counter& frames;    ///< FoV frames pushed through any segmenter
  Counter& splits;    ///< split decisions (similarity dropped below thresh)
  Counter& segments;  ///< segments emitted (splits + finish() flushes)
  Counter& frames_held;     ///< invalid sensor frames repaired by hold-last-fix
  Counter& frames_dropped;  ///< invalid sensor frames with no fix to hold
  Histogram& segment_frames;  ///< frames per emitted segment
};

/// store::Wal / store::Checkpointer — the durable-ingest subsystem.
/// Counters cover the append path (group commit), segment lifecycle, and
/// recovery; histograms expose group-commit batching efficiency and the
/// cost of the two syscalls that dominate the durable path.
struct WalMetrics {
  Counter& appends;                ///< records acked by Wal::append
  Counter& append_failures;        ///< appends rejected (failed WAL)
  Counter& bytes;                  ///< framed bytes written to segments
  Counter& fsyncs;                 ///< fsync/fdatasync calls issued
  Counter& rotations;              ///< segment rotations
  Counter& segments_retired;       ///< segments deleted by checkpointing
  Counter& checkpoints;            ///< successful checkpoint snapshots
  Counter& replay_records;         ///< records replayed during recovery
  Counter& replay_truncated_bytes; ///< torn-tail bytes discarded at open
  Histogram& batch_records;        ///< records per group-commit batch
  Histogram& batch_bytes;          ///< bytes per group-commit batch
  Histogram& fsync_ns;             ///< fsync latency
  Histogram& append_ns;            ///< append() wall time incl. commit wait
};

/// store::Env fault layer + the consumers hardened against it: counts
/// every storage I/O failure (real or injected by FaultyEnv), the
/// fail-stop and degraded-mode transitions they trigger, and the ingests
/// refused while the server is read-only (docs/ROBUSTNESS.md).
struct StoreFaultMetrics {
  Counter& io_errors;            ///< storage ops that failed (any cause)
  Counter& injected;             ///< failures injected by FaultyEnv
  Counter& short_writes;         ///< injected torn writes (prefix persisted)
  Counter& bit_flips;            ///< injected silent read corruptions
  Counter& wal_failstops;        ///< WAL poisoned itself after an I/O error
  Counter& checkpoint_failures;  ///< checkpoints abandoned on I/O failure
  Counter& degraded_entries;     ///< server ok → degraded transitions
  Counter& recoveries;           ///< server degraded → ok transitions
  Counter& ingest_deferrals;     ///< ingests refused with a retriable ack
};

/// net::AdmissionController — overload control at the server front door
/// (svg_server_admission_*): per-lane admit/shed verdicts, the virtual
/// queue depths, and the waits/hints requests were charged
/// (docs/ROBUSTNESS.md, "Overload control").
struct AdmissionMetrics {
  Counter& ingest_admitted;       ///< ingest requests admitted
  Counter& ingest_throttled;      ///< shed: per-client token bucket empty
  Counter& ingest_shed_queue;     ///< shed: ingest queue at depth
  Counter& ingest_shed_deadline;  ///< shed: would finish past deadline
  Counter& query_admitted;        ///< queries admitted (priority lane)
  Counter& query_shed_queue;      ///< shed: query queue at depth
  Counter& query_shed_deadline;   ///< shed: would finish past deadline
  Gauge& ingest_backlog;  ///< requests waiting in the ingest virtual queue
  Gauge& query_backlog;   ///< requests waiting in the query virtual queue
  Gauge& shedding;        ///< 1 while any lane is inside a shed episode
  Histogram& queue_wait_ms;   ///< wait charged to admitted requests
  Histogram& retry_after_ms;  ///< hints handed to shed requests
};

/// obs::Tracer — the request-tracing layer watching itself (obs/trace.hpp).
struct TraceMetrics {
  Counter& traces_started;    ///< sampled roots begun (local + adopted)
  Counter& traces_completed;  ///< traces pushed into the ring
  Counter& slow_traces;       ///< traces retained in the slow-request log
  Counter& spans;             ///< spans recorded across completed traces
  Counter& ring_evictions;    ///< completed traces overwritten before read
};

/// obs::Journal — the structured event journal (obs/journal.hpp).
struct JournalMetrics {
  Counter& events;  ///< journal records appended
};

/// cluster::Router / cluster::Cluster — geo-partitioned multi-node layer
/// (docs/CLUSTER.md): upload routing, scatter-gather fan-out, WAL-shipping
/// replication, and failover promotion.
struct ClusterMetrics {
  Counter& uploads_routed;      ///< parent uploads split and routed
  Counter& subuploads;          ///< per-partition sub-uploads sent
  Counter& subupload_deferrals; ///< sub-upload legs a node answered kRetryLater
  Counter& legs_resumed;        ///< settled legs skipped on a resumed attempt
  Counter& queries;             ///< scatter-gather searches
  Counter& fanout_nodes;        ///< nodes contacted by searches
  Counter& fanout_skipped;      ///< nodes pruned by cell intersection
  Counter& replicate_batches;   ///< replication batches applied
  Counter& replicate_records;   ///< WAL records applied on followers
  Counter& replicate_rejects;   ///< batches refused (gap/decode/corruption)
  Counter& promotions;          ///< follower → serving-primary flips
  Counter& demotions;           ///< primaries marked down by probes
  Counter& lag_alerts;          ///< replication-lag threshold crossings
  Counter& stale_epoch_rejects; ///< writes refused by epoch fencing
  Counter& node_fences;         ///< nodes that self-fenced on lost heartbeats
  Counter& node_unfences;       ///< fenced nodes released by a heartbeat
  Gauge& nodes_up;              ///< cluster nodes currently serving
  Gauge& nodes_fenced;          ///< nodes currently refusing ingest
  Gauge& replication_lag;       ///< worst follower lag (records behind)
  Histogram& route_ns;          ///< route_upload wall time
  Histogram& fanout_ns;         ///< scatter-gather search wall time
  Histogram& replicate_ns;      ///< replicate_round wall time
};

/// cluster anti-entropy (svg_cluster_repair_*): fingerprint exchanges
/// between each primary and its ring follower, divergences found, and the
/// WAL ranges re-shipped to reconverge (docs/CLUSTER.md).
struct ClusterRepairMetrics {
  Counter& exchanges;          ///< fingerprint summary comparisons
  Counter& repairs_started;    ///< divergent streams detected
  Counter& repairs_completed;  ///< streams reconverged after re-shipping
  Counter& divergent_buckets;  ///< fingerprint buckets that disagreed
  Counter& records_reshipped;  ///< records re-shipped by repair rewinds
  Counter& peer_restores;      ///< nodes rebuilt from a replica's WAL
  Histogram& repair_ns;        ///< repair_round wall time
};

/// store::scrub_directory (svg_store_scrub_*): verification of data at
/// rest — WAL segments and snapshots re-read and CRC-checked, one pass per
/// call, with corrupt artifacts quarantined (docs/ROBUSTNESS.md).
struct StoreScrubMetrics {
  Counter& passes;              ///< scrub passes completed
  Counter& segments_scanned;    ///< WAL segments verified
  Counter& snapshots_scanned;   ///< snapshot files verified
  Counter& frames_verified;     ///< CRC frames checked clean
  Counter& bytes_verified;      ///< artifact bytes read and checked
  Counter& corrupt_artifacts;   ///< artifacts that failed verification
  Counter& quarantined;         ///< artifacts renamed to *.quarantine
  Histogram& pass_ns;           ///< scrub pass wall time
};

/// util::ThreadPool — implements the util-side observer hook so the pool
/// itself stays obs-free. Pass `&obs::thread_pool_metrics()` as the pool's
/// observer (the shared instance outlives any pool).
class ThreadPoolMetrics final : public util::ThreadPoolObserver {
 public:
  Gauge& queue_depth;
  Counter& tasks;
  Histogram& task_ns;

  void on_enqueue(std::size_t depth) noexcept override {
    queue_depth.set(static_cast<std::int64_t>(depth));
  }
  void on_dequeue(std::size_t depth) noexcept override {
    queue_depth.set(static_cast<std::int64_t>(depth));
  }
  void on_complete(std::uint64_t ns) noexcept override {
    tasks.inc();
    task_ns.observe(ns);
  }

 private:
  friend ThreadPoolMetrics& thread_pool_metrics();
  ThreadPoolMetrics();
};

[[nodiscard]] ServerMetrics& server_metrics();
[[nodiscard]] IndexMetrics& index_metrics();
[[nodiscard]] IndexRunMetrics& index_run_metrics();
[[nodiscard]] IndexCompactionMetrics& index_compaction_metrics();
[[nodiscard]] RetrievalMetrics& retrieval_metrics();
[[nodiscard]] LinkMetrics& link_metrics();
[[nodiscard]] NetFaultMetrics& net_fault_metrics();
[[nodiscard]] NetRetryMetrics& net_retry_metrics();
[[nodiscard]] SegmentationMetrics& segmentation_metrics();
[[nodiscard]] WalMetrics& wal_metrics();
[[nodiscard]] StoreFaultMetrics& store_fault_metrics();
[[nodiscard]] AdmissionMetrics& admission_metrics();
[[nodiscard]] TraceMetrics& trace_metrics();
[[nodiscard]] JournalMetrics& journal_metrics();
[[nodiscard]] ClusterMetrics& cluster_metrics();
[[nodiscard]] ClusterRepairMetrics& cluster_repair_metrics();
[[nodiscard]] StoreScrubMetrics& store_scrub_metrics();
[[nodiscard]] ThreadPoolMetrics& thread_pool_metrics();

/// Register every family above so exposition includes idle subsystems.
void touch_all_families();

}  // namespace svg::obs
