#include "obs/families.hpp"

namespace svg::obs {

namespace {

/// Bucket layout for count-valued histograms (candidates, frames/segment):
/// 1, 2, 4, … 2^23 ≈ 8.4M.
constexpr HistogramOptions kCountBuckets{1, 2.0, 24};

}  // namespace

ServerMetrics& server_metrics() {
  static ServerMetrics m{
      global().counter("svg_server_uploads_accepted_total",
                       "Wire uploads decoded and ingested"),
      global().counter("svg_server_uploads_rejected_total",
                       "Wire uploads rejected (all reasons)"),
      global().counter("svg_server_uploads_deduped_total",
                       "Retransmitted uploads absorbed by upload_id dedup"),
      global().counter("svg_server_reject_decode_total",
                       "Uploads rejected: malformed wire bytes"),
      global().counter("svg_server_reject_query_decode_total",
                       "Queries rejected: malformed wire bytes"),
      global().counter("svg_server_segments_indexed_total",
                       "Representative FoVs inserted via ingest/snapshot"),
      global().counter("svg_server_queries_total",
                       "Queries served (wire and in-process)"),
      global().gauge("svg_server_health",
                     "Server health: 0 = ok, 1 = degraded read-only"),
      global().histogram("svg_server_upload_ns",
                         "handle_upload latency: decode + ingest"),
      global().histogram("svg_server_ingest_ns",
                         "Index-insertion portion of an upload"),
      global().histogram("svg_server_query_ns",
                         "Query latency at the server boundary"),
  };
  return m;
}

IndexMetrics& index_metrics() {
  static IndexMetrics m{
      global().counter("svg_index_inserts_total", "Index insertions"),
      global().counter("svg_index_queries_total", "Index range queries"),
      global().gauge("svg_index_size", "Segments in the index"),
      global().histogram("svg_index_insert_ns",
                         "Insert latency incl. writer-lock wait"),
      global().histogram("svg_index_query_ns",
                         "Range-query latency incl. reader-lock wait"),
  };
  return m;
}

IndexRunMetrics& index_run_metrics() {
  static IndexRunMetrics m{
      global().gauge("svg_index_run_count",
                     "Sealed immutable runs currently live"),
      global().gauge("svg_index_run_rows",
                     "Rows stored across all sealed runs"),
      global().gauge("svg_index_run_memtable_rows",
                     "Rows in the tiered backend's mutable memtable"),
      global().counter("svg_index_run_seals_total",
                       "Memtable-to-run seal events"),
      global().counter("svg_index_run_sealed_rows_total",
                       "Rows sealed into immutable runs"),
      global().counter("svg_index_run_time_pruned_total",
                       "Runs skipped via the [ts_min, ts_max] tag"),
      global().counter("svg_index_run_scans_total",
                       "Runs actually scanned by range queries"),
      global().histogram("svg_index_run_seal_ns",
                         "Seal cost: STR sort + column pack + bulk load"),
  };
  return m;
}

IndexCompactionMetrics& index_compaction_metrics() {
  static IndexCompactionMetrics m{
      global().counter("svg_index_compaction_rounds_total",
                       "Compaction merge rounds completed"),
      global().counter("svg_index_compaction_input_runs_total",
                       "Runs consumed by compaction merges"),
      global().counter("svg_index_compaction_output_rows_total",
                       "Rows written into merged runs"),
      global().histogram("svg_index_compaction_ns",
                         "Compaction merge round wall time"),
  };
  return m;
}

RetrievalMetrics& retrieval_metrics() {
  static RetrievalMetrics m{
      global().counter("svg_retrieval_searches_total",
                       "Full pipeline executions"),
      global().counter("svg_retrieval_candidates_total",
                       "Funnel: candidates from the range search"),
      global().counter("svg_retrieval_after_filter_total",
                       "Funnel: survivors of the orientation filter"),
      global().counter("svg_retrieval_returned_total",
                       "Funnel: results returned (top-N)"),
      global().histogram("svg_retrieval_range_search_ns",
                         "Stage 1: spatio-temporal range search"),
      global().histogram("svg_retrieval_filter_ns",
                         "Stage 2: orientation filter + distance"),
      global().histogram("svg_retrieval_rank_ns",
                         "Stage 3: distance rank + top-N cut"),
      global().histogram("svg_retrieval_search_ns",
                         "Whole pipeline per search"),
  };
  return m;
}

LinkMetrics& link_metrics() {
  static LinkMetrics m{
      global().counter("svg_link_messages_up_total",
                       "Messages sent client→cloud"),
      global().counter("svg_link_bytes_up_total", "Bytes sent client→cloud"),
      global().counter("svg_link_messages_down_total",
                       "Messages sent cloud→client"),
      global().counter("svg_link_bytes_down_total",
                       "Bytes sent cloud→client"),
  };
  return m;
}

NetFaultMetrics& net_fault_metrics() {
  static NetFaultMetrics m{
      global().counter("svg_net_fault_messages_total",
                       "Transfers attempted through faulty links"),
      global().counter("svg_net_fault_drops_total",
                       "Deliveries suppressed by drop probability"),
      global().counter("svg_net_fault_duplicates_total",
                       "Extra message copies delivered"),
      global().counter("svg_net_fault_reorders_total",
                       "Messages held back and delivered late"),
      global().counter("svg_net_fault_corruptions_total",
                       "Deliveries with injected byte flips"),
      global().counter("svg_net_fault_disconnect_drops_total",
                       "Deliveries lost inside a disconnect window"),
  };
  return m;
}

NetRetryMetrics& net_retry_metrics() {
  static NetRetryMetrics m{
      global().counter("svg_net_retry_upload_attempts_total",
                       "Upload send attempts (first tries + retries)"),
      global().counter("svg_net_retry_upload_retries_total",
                       "Upload re-sends after a missing/invalid ack"),
      global().counter("svg_net_retry_upload_acks_total",
                       "Uploads acknowledged by the server"),
      global().counter("svg_net_retry_upload_duplicate_acks_total",
                       "Acks for retransmits the server deduped"),
      global().counter("svg_net_retry_upload_exhausted_total",
                       "Uploads abandoned after max attempts"),
      global().counter("svg_net_retry_upload_rejected_total",
                       "Uploads permanently rejected by the server"),
      global().counter("svg_net_retry_upload_deferrals_total",
                       "Retry-later acks from a degraded read-only server"),
      global().counter("svg_net_retry_upload_retry_after_hints_total",
                       "Retry-later acks carrying a server retry-after hint"),
      global().counter("svg_net_retry_fetch_attempts_total",
                       "Clip-fetch exchanges attempted"),
      global().counter("svg_net_retry_fetch_retries_total",
                       "Clip-fetch exchanges retried"),
      global().counter("svg_net_retry_fetch_failures_total",
                       "Clips given up on and flagged missing"),
      global().histogram("svg_net_retry_backoff_ms",
                         "Simulated backoff sleeps between attempts",
                         kCountBuckets),
      global().histogram("svg_net_retry_attempts_per_upload",
                         "Attempts each acked upload needed", kCountBuckets),
  };
  return m;
}

SegmentationMetrics& segmentation_metrics() {
  static SegmentationMetrics m{
      global().counter("svg_segmentation_frames_total",
                       "FoV frames pushed through client segmenters"),
      global().counter("svg_segmentation_splits_total",
                       "Similarity-threshold split decisions"),
      global().counter("svg_segmentation_segments_total",
                       "Segments emitted (splits + end-of-recording)"),
      global().counter("svg_segmentation_frames_held_total",
                       "Invalid sensor frames repaired by hold-last-fix"),
      global().counter("svg_segmentation_frames_dropped_total",
                       "Invalid sensor frames dropped (no fix to hold)"),
      global().histogram("svg_segmentation_segment_frames",
                         "Frames per emitted segment", kCountBuckets),
  };
  return m;
}

WalMetrics& wal_metrics() {
  static WalMetrics m{
      global().counter("svg_wal_appends_total",
                       "Records acked by Wal::append"),
      global().counter("svg_wal_append_failures_total",
                       "Appends rejected because the WAL failed"),
      global().counter("svg_wal_bytes_total",
                       "Framed bytes written to WAL segments"),
      global().counter("svg_wal_fsyncs_total", "fsync calls issued"),
      global().counter("svg_wal_rotations_total", "Segment rotations"),
      global().counter("svg_wal_segments_retired_total",
                       "Segments deleted after checkpointing"),
      global().counter("svg_wal_checkpoints_total",
                       "Successful checkpoint snapshots"),
      global().counter("svg_wal_replay_records_total",
                       "Records replayed during recovery"),
      global().counter("svg_wal_replay_truncated_bytes_total",
                       "Torn-tail bytes discarded at open"),
      global().histogram("svg_wal_batch_records",
                         "Records per group-commit batch", kCountBuckets),
      global().histogram("svg_wal_batch_bytes",
                         "Bytes per group-commit batch", kCountBuckets),
      global().histogram("svg_wal_fsync_ns", "fsync latency"),
      global().histogram("svg_wal_append_ns",
                         "append() wall time incl. commit wait"),
  };
  return m;
}

StoreFaultMetrics& store_fault_metrics() {
  static StoreFaultMetrics m{
      global().counter("svg_store_fault_io_errors_total",
                       "Storage I/O operations that failed (any cause)"),
      global().counter("svg_store_fault_injected_total",
                       "Failures injected by store::FaultyEnv"),
      global().counter("svg_store_fault_short_writes_total",
                       "Injected torn writes (a prefix reached the disk)"),
      global().counter("svg_store_fault_bit_flips_total",
                       "Injected silent single-bit read corruptions"),
      global().counter("svg_store_fault_wal_failstops_total",
                       "WAL fail-stop transitions after an I/O error"),
      global().counter("svg_store_fault_checkpoint_failures_total",
                       "Checkpoints abandoned on I/O failure"),
      global().counter("svg_store_fault_degraded_entries_total",
                       "Server ok -> degraded read-only transitions"),
      global().counter("svg_store_fault_recoveries_total",
                       "Server degraded -> ok storage recoveries"),
      global().counter("svg_store_fault_ingest_deferrals_total",
                       "Ingests refused with a retriable ack while degraded"),
  };
  return m;
}

AdmissionMetrics& admission_metrics() {
  static AdmissionMetrics m{
      global().counter("svg_server_admission_ingest_admitted_total",
                       "Ingest requests admitted by overload control"),
      global().counter("svg_server_admission_ingest_throttled_total",
                       "Ingest requests shed: client token bucket empty"),
      global().counter("svg_server_admission_ingest_shed_queue_total",
                       "Ingest requests shed: admission queue at depth"),
      global().counter("svg_server_admission_ingest_shed_deadline_total",
                       "Ingest requests shed: would finish past deadline"),
      global().counter("svg_server_admission_query_admitted_total",
                       "Queries admitted through the priority lane"),
      global().counter("svg_server_admission_query_shed_queue_total",
                       "Queries shed: admission queue at depth"),
      global().counter("svg_server_admission_query_shed_deadline_total",
                       "Queries shed: would finish past deadline"),
      global().gauge("svg_server_admission_ingest_backlog",
                     "Requests waiting in the ingest virtual queue"),
      global().gauge("svg_server_admission_query_backlog",
                     "Requests waiting in the query virtual queue"),
      global().gauge("svg_server_admission_shedding",
                     "1 while any admission lane is shedding"),
      global().histogram("svg_server_admission_queue_wait_ms",
                         "Queue wait charged to admitted requests",
                         kCountBuckets),
      global().histogram("svg_server_admission_retry_after_ms",
                         "Retry-after hints handed to shed requests",
                         kCountBuckets),
  };
  return m;
}

TraceMetrics& trace_metrics() {
  static TraceMetrics m{
      global().counter("svg_trace_started_total",
                       "Sampled trace roots begun (local + adopted)"),
      global().counter("svg_trace_completed_total",
                       "Traces completed and stored in the ring"),
      global().counter("svg_trace_slow_total",
                       "Traces retained in the slow-request log"),
      global().counter("svg_trace_spans_total",
                       "Spans recorded across completed traces"),
      global().counter("svg_trace_ring_evictions_total",
                       "Completed traces overwritten by newer ones"),
  };
  return m;
}

JournalMetrics& journal_metrics() {
  static JournalMetrics m{
      global().counter("svg_journal_events_total",
                       "Structured journal records appended"),
  };
  return m;
}

ClusterMetrics& cluster_metrics() {
  static ClusterMetrics m{
      global().counter("svg_cluster_uploads_routed_total",
                       "Parent uploads split by geo-cell and routed"),
      global().counter("svg_cluster_subuploads_total",
                       "Per-partition sub-uploads sent to nodes"),
      global().counter("svg_cluster_subupload_deferrals_total",
                       "Sub-upload legs a node answered retry-later"),
      global().counter("svg_cluster_legs_resumed_total",
                       "Settled sub-upload legs skipped on resumed attempts"),
      global().counter("svg_cluster_queries_total",
                       "Scatter-gather searches through the router"),
      global().counter("svg_cluster_fanout_nodes_total",
                       "Nodes contacted by scatter-gather searches"),
      global().counter("svg_cluster_fanout_skipped_total",
                       "Nodes pruned from fan-out by cell intersection"),
      global().counter("svg_cluster_replicate_batches_total",
                       "Replication batches applied on followers"),
      global().counter("svg_cluster_replicate_records_total",
                       "WAL records applied on followers"),
      global().counter("svg_cluster_replicate_rejects_total",
                       "Replication batches refused (gap or bad bytes)"),
      global().counter("svg_cluster_promotions_total",
                       "Follower-to-serving-primary promotions"),
      global().counter("svg_cluster_demotions_total",
                       "Primaries demoted after failed health probes"),
      global().counter("svg_cluster_lag_alerts_total",
                       "Replication-lag threshold crossings"),
      global().counter("svg_cluster_stale_epoch_rejects_total",
                       "Writes refused by epoch fencing"),
      global().counter("svg_cluster_node_fences_total",
                       "Nodes that self-fenced after losing heartbeats"),
      global().counter("svg_cluster_node_unfences_total",
                       "Fenced nodes released by a resumed heartbeat"),
      global().gauge("svg_cluster_nodes_up",
                     "Cluster nodes currently up and serving"),
      global().gauge("svg_cluster_nodes_fenced",
                     "Nodes currently refusing ingest (fenced)"),
      global().gauge("svg_cluster_replication_lag",
                     "Worst follower replication lag, in records"),
      global().histogram("svg_cluster_route_ns",
                         "Upload routing wall time (split + deliver)"),
      global().histogram("svg_cluster_fanout_ns",
                         "Scatter-gather search wall time incl. merge"),
      global().histogram("svg_cluster_replicate_ns",
                         "Replication round wall time"),
  };
  return m;
}

ClusterRepairMetrics& cluster_repair_metrics() {
  static ClusterRepairMetrics m{
      global().counter("svg_cluster_repair_exchanges_total",
                       "Fingerprint summary comparisons primary<->follower"),
      global().counter("svg_cluster_repair_started_total",
                       "Divergent replication streams detected"),
      global().counter("svg_cluster_repair_completed_total",
                       "Streams reconverged after re-shipping"),
      global().counter("svg_cluster_repair_divergent_buckets_total",
                       "Fingerprint buckets that disagreed"),
      global().counter("svg_cluster_repair_records_reshipped_total",
                       "WAL records re-shipped by repair rewinds"),
      global().counter("svg_cluster_repair_peer_restores_total",
                       "Nodes rebuilt from a replica's WAL"),
      global().histogram("svg_cluster_repair_ns",
                         "Anti-entropy repair round wall time"),
  };
  return m;
}

StoreScrubMetrics& store_scrub_metrics() {
  static StoreScrubMetrics m{
      global().counter("svg_store_scrub_passes_total",
                       "Scrub passes completed"),
      global().counter("svg_store_scrub_segments_total",
                       "WAL segments verified at rest"),
      global().counter("svg_store_scrub_snapshots_total",
                       "Snapshot files verified at rest"),
      global().counter("svg_store_scrub_frames_verified_total",
                       "CRC frames checked clean"),
      global().counter("svg_store_scrub_bytes_verified_total",
                       "Artifact bytes read and checked"),
      global().counter("svg_store_scrub_corrupt_artifacts_total",
                       "Artifacts that failed verification"),
      global().counter("svg_store_scrub_quarantined_total",
                       "Corrupt artifacts renamed to *.quarantine"),
      global().histogram("svg_store_scrub_pass_ns",
                         "Scrub pass wall time"),
  };
  return m;
}

ThreadPoolMetrics::ThreadPoolMetrics()
    : queue_depth(global().gauge("svg_threadpool_queue_depth",
                                 "Tasks queued but not yet started")),
      tasks(global().counter("svg_threadpool_tasks_total",
                             "Tasks executed to completion")),
      task_ns(global().histogram("svg_threadpool_task_ns",
                                 "Task execution time (excl. queue wait)")) {}

ThreadPoolMetrics& thread_pool_metrics() {
  static ThreadPoolMetrics m;
  return m;
}

void touch_all_families() {
  (void)server_metrics();
  (void)index_metrics();
  (void)index_run_metrics();
  (void)index_compaction_metrics();
  (void)retrieval_metrics();
  (void)link_metrics();
  (void)net_fault_metrics();
  (void)net_retry_metrics();
  (void)segmentation_metrics();
  (void)wal_metrics();
  (void)store_fault_metrics();
  (void)admission_metrics();
  (void)trace_metrics();
  (void)journal_metrics();
  (void)cluster_metrics();
  (void)cluster_repair_metrics();
  (void)store_scrub_metrics();
  (void)thread_pool_metrics();
}

}  // namespace svg::obs
