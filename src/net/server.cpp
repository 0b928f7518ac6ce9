#include "net/server.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "store/snapshot.hpp"

namespace svg::net {

namespace {

using Engine = retrieval::RetrievalEngine<index::TieredFovIndex>;

index::TieredFovIndexOptions index_options(
    const ServerIndexConfig& cfg, std::uint32_t checkpoint_interval_ms) {
  index::TieredFovIndexOptions opts;
  if (cfg.memtable > 0) opts.memtable_capacity = cfg.memtable;
  // The index compacts on the Checkpointer's cadence unless the index
  // config overrides it.
  opts.compact_interval_ms = cfg.compact_interval_ms != 0
                                 ? cfg.compact_interval_ms
                                 : checkpoint_interval_ms;
  return opts;
}

}  // namespace

store::WalOptions CloudServer::wal_options() const {
  store::WalOptions wal_opts;
  wal_opts.dir = durability_.data_dir;
  wal_opts.segment_bytes = durability_.segment_bytes;
  wal_opts.fsync = durability_.fsync;
  wal_opts.batch_flush_bytes = durability_.batch_flush_bytes;
  wal_opts.batch_flush_interval_ms = durability_.batch_flush_interval_ms;
  wal_opts.env = durability_.env;
  return wal_opts;
}

store::Checkpointer::Source CloudServer::checkpoint_source() {
  return [this]() {
    // Exclusive gate: no ingest is between its id claim, WAL append and
    // index insert, so (last_seq, snapshot, dedup set) is consistent —
    // every captured id's record is ≤ seq and vice versa.
    std::unique_lock gate(ingest_gate_);
    store::CheckpointData data;
    data.seq = wal_->last_seq();
    data.reps = index_.snapshot();
    {
      std::lock_guard lock(dedup_mu_);
      data.upload_ids.assign(seen_upload_ids_.begin(),
                             seen_upload_ids_.end());
    }
    return data;
  };
}

CloudServer::CloudServer(ServerIndexConfig index_config,
                         retrieval::RetrievalConfig retrieval_config,
                         ServerDurabilityConfig durability,
                         AdmissionConfig admission)
    : index_(index_options(index_config, durability.checkpoint_interval_ms)),
      retrieval_config_(retrieval_config),
      admission_(admission.enabled
                     ? std::make_unique<AdmissionController>(admission)
                     : nullptr),
      durability_(std::move(durability)) {
  if (durability_.data_dir.empty()) return;
  durable_cfg_ = true;

  auto opened = store::recover_and_open(
      wal_options(),
      [&](std::span<const core::RepresentativeFov> reps) {
        index_.insert_batch(reps);
        obs::server_metrics().segments_indexed.inc(reps.size());
        segments_indexed_.fetch_add(reps.size(), std::memory_order_release);
      },
      [&](std::span<const std::uint64_t> ids) {
        // Replay bypasses ingest() (records were deduped before they were
        // logged), so the set is repopulated directly: a retransmit that
        // arrives after the crash must still be recognized.
        std::lock_guard lock(dedup_mu_);
        seen_upload_ids_.insert(ids.begin(), ids.end());
      });
  recovery_ = std::move(opened.result);
  if (!recovery_.ok) {
    // Serving from a partially recovered index would silently drop acked
    // data; refuse to start instead.
    throw std::runtime_error("durable ingest recovery failed (" +
                             durability_.data_dir + "): " + recovery_.error);
  }
  wal_ = std::move(opened.wal);
  acked_wal_seq_ = recovery_.next_seq - 1;
  checkpoint_wal_seq_ = recovery_.snapshot_seq;
  obs::server_metrics().health.set(0);

  checkpointer_ = std::make_unique<store::Checkpointer>(
      durability_.data_dir, wal_.get(), checkpoint_source(),
      durability_.checkpoint_interval_ms, durability_.env);
}

CloudServer::~CloudServer() = default;

std::optional<UploadMessage> CloudServer::decode_or_reject(
    std::span<const std::uint8_t> bytes) {
  auto msg = decode_upload(bytes);
  if (!msg) {
    auto& m = obs::server_metrics();
    uploads_rejected_.fetch_add(1, std::memory_order_relaxed);
    m.uploads_rejected.inc();
    m.reject_decode.inc();
  }
  return msg;
}

bool CloudServer::handle_upload(std::span<const std::uint8_t> bytes,
                                double deadline_ms) {
  obs::ScopedTimer timer(obs::server_metrics().upload_ns);
  const auto msg = decode_or_reject(bytes);
  if (!msg) return false;
  // A deduped retransmit is a success from the sender's view: the upload
  // is in the index, just not twice. A shed or deferred upload is not.
  const UploadAckStatus status = admit_and_ingest(*msg, deadline_ms).ack.status;
  return status == UploadAckStatus::kAccepted ||
         status == UploadAckStatus::kDuplicate;
}

std::optional<std::vector<std::uint8_t>> CloudServer::handle_upload_acked(
    std::span<const std::uint8_t> bytes, double deadline_ms) {
  obs::ScopedTimer timer(obs::server_metrics().upload_ns);
  // Corrupted/truncated on the wire — no upload_id to address an ack to,
  // so stay silent and let the client's retry timeout handle it.
  const auto msg = decode_or_reject(bytes);
  if (!msg) return std::nullopt;
  return encode_upload_ack(admit_and_ingest(*msg, deadline_ms).ack);
}

bool CloudServer::claim_upload_id(std::uint64_t id) {
  if (id == 0) return true;  // id-less uploads bypass dedup
  std::lock_guard lock(dedup_mu_);
  return seen_upload_ids_.insert(id).second;
}

void CloudServer::unclaim_upload_id(std::uint64_t id) {
  if (id == 0) return;
  std::lock_guard lock(dedup_mu_);
  seen_upload_ids_.erase(id);
}

void CloudServer::enter_degraded() {
  auto expected = ServerHealth::kOk;
  if (health_.compare_exchange_strong(expected, ServerHealth::kDegraded,
                                      std::memory_order_acq_rel)) {
    obs::server_metrics().health.set(1);
    obs::store_fault_metrics().degraded_entries.inc();
    obs::journal_event(obs::JournalEvent::kServerDegraded);
  }
}

bool CloudServer::ingest(const UploadMessage& msg) {
  return ingest_status(msg) == IngestStatus::kAccepted;
}

IngestStatus CloudServer::ingest_status(const UploadMessage& msg) {
  auto& m = obs::server_metrics();
  obs::Span span = obs::tracer().span("server.ingest");
  obs::ScopedTimer timer(m.ingest_ns, span.trace_id());
  if (durable_cfg_) {
    // Log before indexing — the WAL ack is what recovery restores. The
    // shared gate keeps (claim + append + insert) atomic w.r.t. a
    // checkpoint (see ingest_gate_); encoding stays outside it. The id is
    // claimed before the append so the WAL holds each upload_id at most
    // once — replay can repopulate the dedup set unconditionally.
    const auto record =
        store::encode_upload_record(msg.segments, msg.upload_id);
    std::shared_lock gate(ingest_gate_);
    if (health_.load(std::memory_order_acquire) == ServerHealth::kDegraded) {
      // A retransmit of an already-ingested id is still answered
      // kDuplicate (read-only lookup — the data is durably acked and
      // indexed); deferring it would burn the client's bounded retry
      // budget re-offering data the server already holds. Only genuinely
      // new uploads are deferred.
      if (msg.upload_id != 0) {
        std::lock_guard lock(dedup_mu_);
        if (seen_upload_ids_.count(msg.upload_id) != 0) {
          uploads_deduped_.fetch_add(1, std::memory_order_relaxed);
          m.uploads_deduped.inc();
          return IngestStatus::kDuplicate;
        }
      }
      uploads_deferred_.fetch_add(1, std::memory_order_relaxed);
      obs::store_fault_metrics().ingest_deferrals.inc();
      return IngestStatus::kRetryLater;
    }
    {
      obs::Span claim_span = obs::tracer().span("server.dedup_claim");
      if (!claim_upload_id(msg.upload_id)) {
        claim_span.tag("duplicate", 1);
        claim_span.end();
        uploads_deduped_.fetch_add(1, std::memory_order_relaxed);
        m.uploads_deduped.inc();
        return IngestStatus::kDuplicate;
      }
    }
    obs::Span wal_span = obs::tracer().span("wal.append");
    wal_span.tag("bytes", record.size());
    const bool appended = wal_ != nullptr && wal_->append(record) != 0;
    wal_span.end();
    if (!appended) {
      // The log is dead (fail-stop after a disk error). Acking anyway
      // would be ack-then-lose; indexing anyway would desync memory from
      // the log. Un-claim the id (this upload was never ingested — its
      // retry after recovery must not be misread as a retransmit) and go
      // degraded read-only.
      unclaim_upload_id(msg.upload_id);
      obs::wal_metrics().append_failures.inc();
      enter_degraded();
      uploads_deferred_.fetch_add(1, std::memory_order_relaxed);
      obs::store_fault_metrics().ingest_deferrals.inc();
      return IngestStatus::kRetryLater;
    }
    obs::Span index_span = obs::tracer().span("index.insert");
    index_span.tag("segments", msg.segments.size());
    index_.insert_batch(msg.segments);
  } else {
    obs::Span claim_span = obs::tracer().span("server.dedup_claim");
    if (!claim_upload_id(msg.upload_id)) {
      claim_span.tag("duplicate", 1);
      claim_span.end();
      uploads_deduped_.fetch_add(1, std::memory_order_relaxed);
      m.uploads_deduped.inc();
      return IngestStatus::kDuplicate;
    }
    claim_span.end();
    // Batch path: one writer-lock acquisition per memtable fill instead of
    // one per segment.
    obs::Span index_span = obs::tracer().span("index.insert");
    index_span.tag("segments", msg.segments.size());
    index_.insert_batch(msg.segments);
  }
  m.segments_indexed.inc(msg.segments.size());
  m.uploads_accepted.inc();
  // Publish segments before the accept so a stats() reader that sees the
  // accepted upload is guaranteed to see its segments (see ServerStats).
  segments_indexed_.fetch_add(msg.segments.size(), std::memory_order_release);
  uploads_accepted_.fetch_add(1, std::memory_order_release);
  return IngestStatus::kAccepted;
}

CloudServer::AdmittedIngest CloudServer::ingest_admitted(
    const UploadMessage& msg, double deadline_ms) {
  obs::ScopedTimer timer(obs::server_metrics().upload_ns);
  return admit_and_ingest(msg, deadline_ms);
}

CloudServer::AdmittedIngest CloudServer::admit_and_ingest(
    const UploadMessage& msg, double deadline_ms) {
  // Joins the client's trace when the message carried a context (or the
  // in-process caller's open trace), so ingest spans nest under the
  // sender's attempt.
  obs::Span span = obs::tracer().adopted_span(
      "server.upload", {msg.trace_id, msg.parent_span_id});
  span.tag("upload_id", msg.upload_id);
  span.tag("segments", msg.segments.size());
  AdmittedIngest out;
  out.ack.upload_id = msg.upload_id;
  out.ack.status = UploadAckStatus::kRetryLater;
  if (admission_ != nullptr) {
    // Admission first, dedup second: a shed request touches neither the
    // dedup set nor the index, so its retry is a plain new ingest. The
    // client keys by video_id — the wire's stand-in for an authenticated
    // uploader id.
    out.decision = admission_->admit_ingest(msg.video_id, deadline_ms);
    if (!out.decision.admitted) {
      uploads_shed_.fetch_add(1, std::memory_order_relaxed);
      const double hint_ms = std::ceil(out.decision.retry_after_ms);
      out.ack.retry_after_ms =
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(hint_ms));
      return out;
    }
  }
  out.status = ingest_status(msg);
  switch (out.status) {
    case IngestStatus::kAccepted:
      out.ack.status = UploadAckStatus::kAccepted;
      out.ack.segments_indexed = msg.segments.size();
      break;
    case IngestStatus::kDuplicate:
      out.ack.status = UploadAckStatus::kDuplicate;
      out.ack.segments_indexed = msg.segments.size();
      break;
    case IngestStatus::kRetryLater:
      break;
  }
  return out;
}

CloudServer::AdmittedSearch CloudServer::search_admitted(
    const retrieval::Query& q, double deadline_ms) const {
  AdmittedSearch out;
  if (admission_ != nullptr) {
    out.decision = admission_->admit_query(deadline_ms);
    // Query sheds are counted by the admission metrics family; uploads_shed
    // tracks ingest only.
    if (!out.decision.admitted) return out;
  }
  out.results = search(q);
  return out;
}

std::vector<retrieval::RankedResult> CloudServer::search(
    const retrieval::Query& q, retrieval::SearchTrace* trace) const {
  auto& m = obs::server_metrics();
  // Span before timer: the timer fires last and stamps the query-latency
  // exemplar with this request's trace_id.
  obs::Span span = obs::tracer().root_span("server.query");
  obs::ScopedTimer timer(m.query_ns, span.trace_id());
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  m.queries.inc();
  return Engine(index_, retrieval_config_).search(q, trace);
}

std::vector<retrieval::RankedResult> CloudServer::search_n(
    const retrieval::Query& q, std::uint32_t top_n,
    retrieval::SearchTrace* trace) const {
  auto& m = obs::server_metrics();
  obs::Span span = obs::tracer().root_span("server.query");
  obs::ScopedTimer timer(m.query_ns, span.trace_id());
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  m.queries.inc();
  retrieval::RetrievalConfig cfg = retrieval_config_;
  cfg.top_n = top_n;
  return Engine(index_, cfg).search(q, trace);
}

std::optional<std::vector<std::uint8_t>> CloudServer::handle_query(
    std::span<const std::uint8_t> bytes, double deadline_ms) {
  auto& m = obs::server_metrics();
  obs::Span span = obs::tracer().root_span("server.query");
  obs::ScopedTimer timer(m.query_ns, span.trace_id());
  const auto msg = decode_query(bytes);
  if (!msg) {
    m.reject_query_decode.inc();
    return std::nullopt;
  }
  if (admission_ != nullptr &&
      !admission_->admit_query(deadline_ms).admitted) {
    // Shed query: no results message exists to carry a retriable verdict,
    // so the silence the querier already handles for a lossy link covers
    // it (metrics/journal record the shed).
    return std::nullopt;
  }
  retrieval::Query q;
  q.t_start = msg->t_start;
  q.t_end = msg->t_end;
  q.center = msg->center;
  q.radius_m = msg->radius_m;

  retrieval::RetrievalConfig cfg = retrieval_config_;
  cfg.top_n = msg->top_n;
  const auto results = Engine(index_, cfg).search(q);
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  m.queries.inc();

  ResultsMessage out;
  out.entries.reserve(results.size());
  for (const auto& r : results) {
    ResultEntry e;
    e.video_id = r.rep.video_id;
    e.segment_id = r.rep.segment_id;
    e.t_start = r.rep.t_start;
    e.t_end = r.rep.t_end;
    e.distance_m = static_cast<float>(r.distance_m);
    out.entries.push_back(e);
  }
  return encode_results(out);
}

bool CloudServer::save_snapshot(const std::string& path) const {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard lock(dedup_mu_);
    ids.assign(seen_upload_ids_.begin(), seen_upload_ids_.end());
  }
  return store::save_snapshot_file(index_.snapshot(), path,
                                   /*last_seq=*/0, std::move(ids),
                                   durability_.env);
}

std::optional<std::size_t> CloudServer::load_snapshot(
    const std::string& path) {
  const auto snap = store::load_snapshot_file_full(path, durability_.env);
  if (!snap) return std::nullopt;
  index_.insert_batch(snap->reps);
  {
    std::lock_guard lock(dedup_mu_);
    seen_upload_ids_.insert(snap->upload_ids.begin(),
                            snap->upload_ids.end());
  }
  obs::server_metrics().segments_indexed.inc(snap->reps.size());
  segments_indexed_.fetch_add(snap->reps.size(), std::memory_order_release);
  return snap->reps.size();
}

std::size_t CloudServer::known_upload_ids() const {
  std::lock_guard lock(dedup_mu_);
  return seen_upload_ids_.size();
}

bool CloudServer::checkpoint_now() {
  // recover_mu_ pins checkpointer_'s lifetime against a concurrent
  // try_recover_storage (which destroys and recreates it).
  std::lock_guard rec(recover_mu_);
  if (checkpointer_ == nullptr) return false;
  return checkpointer_->checkpoint_now();
}

bool CloudServer::try_recover_storage() {
  if (!durable_cfg_) return false;
  std::lock_guard rec(recover_mu_);
  if (health_.load(std::memory_order_acquire) == ServerHealth::kOk) {
    return true;
  }
  const std::uint64_t attempt = ++recovery_attempts_;
  obs::journal_event(obs::JournalEvent::kRecoveryAttempt, attempt);

  // Stop the checkpointer BEFORE taking the gate: its background thread
  // acquires ingest_gate_ inside the source, so joining it while holding
  // the gate would deadlock. New checkpoints can't start meanwhile —
  // checkpoint_now serializes on recover_mu_. The watermark is folded
  // into the cached member (max: a fresh post-recovery Checkpointer
  // starts at 0) so a failed attempt — checkpointer_ already null on
  // re-entry — still trims against the true replay floor instead of
  // demanding a chain back to seq 1.
  if (checkpointer_ != nullptr) {
    checkpoint_wal_seq_ =
        std::max(checkpoint_wal_seq_, checkpointer_->checkpointed_seq());
  }
  checkpointer_.reset();
  const std::uint64_t watermark = checkpoint_wal_seq_;

  std::unique_lock gate(ingest_gate_);
  if (wal_ != nullptr) acked_wal_seq_ = wal_->last_seq();
  wal_.reset();

  // The on-disk log may hold fully-written-but-unacked records from the
  // failed batch (write landed, fsync did not). If they survived a client
  // retry would claim the "free" id again and log it twice, so trim the
  // log back to exactly the acked prefix before reopening. No replay on
  // reopen — the index already holds everything acked.
  const auto opts = wal_options();
  if (!store::wal_trim_after(opts.dir, acked_wal_seq_, watermark, opts.env)) {
    // Disk still bad (or chain corrupt) — stay degraded.
    obs::journal_event(obs::JournalEvent::kRecoveryFailed, attempt);
    return false;
  }
  // Reopen from the CHECKPOINT watermark, not the acked seq: scan_wal
  // seeds next_seq with replay_after + 1, so opening at acked_wal_seq_
  // would report next_seq == acked + 1 even over an empty directory and
  // the loss check below would be a tautology. From the checkpoint floor,
  // next_seq only reaches acked + 1 if the scanned chain actually holds
  // every record in (watermark, acked].
  auto open = store::wal_open(opts, watermark, nullptr);
  if (!open.wal || open.stats.next_seq != acked_wal_seq_ + 1) {
    // Either the reopen itself failed or the surviving chain does not
    // reach the acked watermark (acked data lost — never serve an ack we
    // cannot honor). Stay degraded; queries keep working.
    obs::journal_event(obs::JournalEvent::kRecoveryFailed, attempt);
    return false;
  }
  wal_ = std::move(open.wal);
  checkpointer_ = std::make_unique<store::Checkpointer>(
      durability_.data_dir, wal_.get(), checkpoint_source(),
      durability_.checkpoint_interval_ms, durability_.env);
  health_.store(ServerHealth::kOk, std::memory_order_release);
  obs::server_metrics().health.set(0);
  obs::store_fault_metrics().recoveries.inc();
  obs::journal_event(obs::JournalEvent::kServerRecovered, acked_wal_seq_);
  return true;
}

void CloudServer::sync_wal() {
  // Shared gate: wal_ is only reset under the exclusive gate (recovery).
  std::shared_lock gate(ingest_gate_);
  if (wal_ != nullptr) wal_->sync();
}

std::uint64_t CloudServer::last_wal_seq() const {
  std::shared_lock gate(ingest_gate_);
  return wal_ != nullptr ? wal_->last_seq() : 0;
}

std::uint64_t CloudServer::durable_wal_seq() const {
  std::shared_lock gate(ingest_gate_);
  return wal_ != nullptr ? wal_->durable_seq() : 0;
}

ServerStats CloudServer::stats() const {
  // Single consistent read path: acquire-load in the reverse of the
  // ingest() write order, so any accepted upload we count here has its
  // segments already included in segments_indexed. Each counter is exact
  // (relaxed RMW never loses increments); the invariant above is the
  // cross-counter guarantee and is pinned by net_server_stats_test.
  ServerStats s;
  s.uploads_accepted = uploads_accepted_.load(std::memory_order_acquire);
  s.segments_indexed = segments_indexed_.load(std::memory_order_acquire);
  s.uploads_rejected = uploads_rejected_.load(std::memory_order_acquire);
  s.uploads_deduped = uploads_deduped_.load(std::memory_order_acquire);
  s.uploads_deferred = uploads_deferred_.load(std::memory_order_acquire);
  s.uploads_shed = uploads_shed_.load(std::memory_order_acquire);
  s.queries_served = queries_served_.load(std::memory_order_acquire);
  return s;
}

void CloudServer::reset_stats() {
  uploads_accepted_.store(0, std::memory_order_release);
  uploads_rejected_.store(0, std::memory_order_release);
  uploads_deduped_.store(0, std::memory_order_release);
  uploads_deferred_.store(0, std::memory_order_release);
  uploads_shed_.store(0, std::memory_order_release);
  segments_indexed_.store(0, std::memory_order_release);
  queries_served_.store(0, std::memory_order_release);
}

}  // namespace svg::net
