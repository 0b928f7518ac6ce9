#include "cluster/cluster.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "cluster/replication.hpp"
#include "cluster/wire.hpp"
#include "net/wire.hpp"
#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "store/snapshot.hpp"

namespace svg::cluster {

namespace {

/// Resolve the partition count: explicit, or one home partition per node.
PartitionConfig resolve_partition(PartitionConfig p, std::size_t nodes) {
  if (p.partitions == 0) p.partitions = nodes;
  return p;
}

/// Per-link seed perturbation so one cluster seed drives every link with
/// an independent fault stream. `role` separates request from replication
/// links.
net::FaultPlan link_plan(const net::FaultPlan& base, std::uint64_t role,
                         std::uint64_t node) {
  net::FaultPlan p = base;
  p.seed = base.seed ^ (role * 0x9E3779B97F4A7C15ULL) ^ (node + 1) * 0xBF58476D1CE4E5B9ULL;
  return p;
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      partitioner_(resolve_partition(cfg_.partition, cfg_.nodes)) {
  cfg_.partition = partitioner_.config();
  nodes_.reserve(cfg_.nodes);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    auto n = std::make_unique<NodeState>();
    n->server = make_server(i);
    n->book.reset(partitioner_.config().partitions);
    if (cfg_.fencing) n->fence = make_fence(i);
    if (cfg_.faulty) {
      n->faulty_link = std::make_unique<net::FaultyLink>(
          n->link, link_plan(cfg_.fault, 1, i), cfg_.clock);
      n->faulty_repl_link = std::make_unique<net::FaultyLink>(
          n->repl_link, link_plan(cfg_.fault, 2, i), cfg_.clock);
    }
    nodes_.push_back(std::move(n));
  }
  acked_.assign(cfg_.nodes, 0);
  applied_.assign(cfg_.nodes, 0);
  lag_alerted_.assign(cfg_.nodes, false);
  router_ = std::make_unique<Router>(
      partitioner_, cfg_.retrieval,
      RoutingTable::identity(partitioner_.config().partitions),
      [this](std::size_t node, std::span<const std::uint8_t> request) {
        return exchange(node, request);
      });
  if (!cfg_.data_dir.empty()) {
    // A pre-existing data_dir (restart over surviving state) seeds the
    // anti-entropy books from the recovered WALs.
    for (std::size_t i = 0; i < nodes_.size(); ++i) rebuild_book(i);
  }
  set_nodes_up_gauge();
}

NodeExchange Cluster::exchange_fn() {
  return [this](std::size_t node, std::span<const std::uint8_t> request) {
    return exchange(node, request);
  };
}

void Cluster::set_probe_reachable(std::size_t i, bool reachable) {
  nodes_[i]->probe_ok = reachable;
}

Cluster::~Cluster() = default;

std::string Cluster::wal_dir(std::size_t i) const {
  return cfg_.data_dir + "/node" + std::to_string(i);
}

std::unique_ptr<net::CloudServer> Cluster::make_server(std::size_t i) {
  net::ServerDurabilityConfig d;
  if (!cfg_.data_dir.empty()) {
    d.data_dir = wal_dir(i);
    d.fsync = cfg_.fsync;
    d.segment_bytes = cfg_.segment_bytes;
    // Never checkpoint: retirement must not pass a follower's cursor, and
    // the harness keeps the whole chain so a resync can always start over.
    d.checkpoint_interval_ms = 0;
  }
  return std::make_unique<net::CloudServer>(cfg_.index, cfg_.retrieval, d,
                                            cfg_.admission);
}

std::vector<std::vector<std::uint8_t>> Cluster::exchange(
    std::size_t i, std::span<const std::uint8_t> request) {
  NodeState& n = *nodes_[i];
  if (!n.up) return {};
  if (n.faulty_link == nullptr) {
    auto response = dispatch(i, request);
    if (response.empty()) return {};
    std::vector<std::vector<std::uint8_t>> out;
    out.push_back(std::move(response));
    return out;
  }
  std::vector<std::vector<std::uint8_t>> out;
  const auto up = n.faulty_link->transfer_up(request);
  for (const auto& copy : up.copies) {
    const auto response = dispatch(i, copy);
    if (response.empty()) continue;
    auto down = n.faulty_link->transfer_down(response);
    for (auto& reply : down.copies) out.push_back(std::move(reply));
  }
  return out;
}

std::vector<std::uint8_t> Cluster::dispatch(
    std::size_t i, std::span<const std::uint8_t> request) {
  NodeState& n = *nodes_[i];
  if (request.empty() || n.server == nullptr) return {};
  // Route by tag byte; a corrupted tag falls through to a decoder whose
  // crc check rejects it (no reply — the sender retries).
  if (request.front() == kMsgQueryFanout) {
    // Reads always serve — a fenced node only refuses ingest.
    return handle_fanout_query(*n.server, i, request);
  }
  const auto msg = net::decode_upload(request);
  if (!msg) {
    // Through the byte path only so the node counts the rejection; an
    // undecodable upload gets no ack.
    (void)n.server->handle_upload_acked(request);
    return {};
  }
  if (n.fence != nullptr) {
    if (const auto refusal = n.fence->admit_upload(*msg)) {
      return net::encode_upload_ack(*refusal);
    }
  }
  const auto out = n.server->ingest_admitted(*msg);
  if (out.ack.status == net::UploadAckStatus::kAccepted &&
      !msg->segments.empty()) {
    // Fold a newly indexed record into the anti-entropy book (duplicates
    // are already accounted; refusals never landed).
    const std::size_t p = partitioner_.partition_of(
        msg->segments.front().fov.p.lng, msg->segments.front().fov.p.lat);
    n.book.add(p, msg->upload_id,
               record_digest(msg->upload_id, msg->segments));
  }
  return net::encode_upload_ack(out.ack);
}

void Cluster::set_nodes_up_gauge() {
  std::int64_t up = 0;
  for (const auto& n : nodes_) up += n->up ? 1 : 0;
  obs::cluster_metrics().nodes_up.set(up);
}

void Cluster::set_nodes_fenced_gauge() {
  std::int64_t fenced = 0;
  for (const auto& n : nodes_) {
    fenced += (n->fence != nullptr && n->fence->fenced()) ? 1 : 0;
  }
  obs::cluster_metrics().nodes_fenced.set(fenced);
}

std::unique_ptr<NodeFence> Cluster::make_fence(std::size_t i) const {
  RoutingTableMessage routing;
  if (router_ != nullptr) {
    routing = router_->routing();
  } else {
    routing = {partitioner_.config(),
               RoutingTable::identity(partitioner_.config().partitions)};
  }
  return std::make_unique<NodeFence>(i, partitioner_, std::move(routing),
                                     FenceConfig{cfg_.fence_miss_threshold});
}

void Cluster::rebuild_book(std::size_t i) {
  NodeState& n = *nodes_[i];
  if (cfg_.data_dir.empty()) {
    n.book.reset(partitioner_.config().partitions);
    return;
  }
  (void)book_from_wal(wal_dir(i), partitioner_, n.book);
}

void Cluster::fail_node(std::size_t i) {
  NodeState& n = *nodes_[i];
  n.server.reset();
  n.fence.reset();  // a down node answers nothing; its fence state dies
  n.up = false;
  set_nodes_up_gauge();
  set_nodes_fenced_gauge();
}

void Cluster::rejoin_node(std::size_t i) {
  NodeState& n = *nodes_[i];
  n.server = make_server(i);  // recovery replays the surviving WAL
  n.up = true;
  n.probe_ok = true;
  n.failed_probes = 0;
  // The rejoined node learns the CURRENT table (strictly newer epoch than
  // the one it crashed under if any retarget happened) and resumes as a
  // follower — its fence refuses ingest for partitions it no longer owns.
  if (cfg_.fencing) n.fence = make_fence(i);
  rebuild_book(i);
  set_nodes_up_gauge();
}

void Cluster::probe_round() {
  auto& m = obs::cluster_metrics();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeState& n = *nodes_[i];
    // The probe doubles as the heartbeat/table-announce channel: a node
    // it reaches gets the authoritative table; a node it misses counts a
    // failed heartbeat toward self-fencing. probe_ok models the
    // asymmetric partition where only this path is down.
    if (n.up && n.probe_ok) {
      n.failed_probes = 0;
      if (n.fence != nullptr) n.fence->heartbeat(router_->routing());
      continue;
    }
    if (n.up && n.fence != nullptr) n.fence->miss_heartbeat();
    ++n.failed_probes;
    if (n.failed_probes != cfg_.probe_fail_threshold) continue;
    // Find the next probe-reachable live node in ring order to take over.
    std::size_t candidate = i;
    for (std::size_t k = 1; k < nodes_.size(); ++k) {
      const std::size_t c = (i + k) % nodes_.size();
      if (nodes_[c]->up && nodes_[c]->probe_ok) {
        candidate = c;
        break;
      }
    }
    if (candidate == i) continue;  // nobody left to promote
    const auto routing = router_->routing();
    bool demoted = false;
    for (std::size_t p = 0; p < routing.table.primary_of.size(); ++p) {
      if (routing.table.primary_of[p] != i) continue;
      if (!demoted) {
        obs::journal_event(obs::JournalEvent::kPrimaryDemoted, p, i);
        m.demotions.inc();
        demoted = true;
      }
      router_->set_primary(p, static_cast<std::uint32_t>(candidate));
      obs::journal_event(obs::JournalEvent::kFollowerPromoted, p, candidate,
                         router_->routing().table.epoch);
      m.promotions.inc();
    }
    // The promoted node hears about its new ownership this same round (it
    // is probe-reachable by construction).
    if (nodes_[candidate]->fence != nullptr) {
      nodes_[candidate]->fence->heartbeat(router_->routing());
    }
  }
  set_nodes_fenced_gauge();
}

std::size_t Cluster::replicate_round(std::size_t max_records) {
  if (cfg_.data_dir.empty() || nodes_.size() < 2) return 0;
  auto& m = obs::cluster_metrics();
  obs::Span span = obs::tracer().root_span("cluster.replicate");
  obs::ScopedTimer timer(m.replicate_ns, span.trace_id());
  std::size_t total_applied = 0;
  std::uint64_t max_lag = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeState& primary = *nodes_[i];
    const std::size_t f = (i + 1) % nodes_.size();
    NodeState& follower = *nodes_[f];
    if (!primary.up || primary.server == nullptr) continue;
    primary.server->sync_wal();
    const std::uint64_t tip = primary.server->last_wal_seq();
    if (follower.up && follower.server != nullptr && tip > acked_[i]) {
      auto batch = next_replicate_batch(wal_dir(i), i, acked_[i], max_records);
      if (batch && !batch->payloads.empty()) {
        // Epoch stamps on replication are a learning channel (never a
        // refusal): both ends adopt the newer epoch they see, so a
        // probe-isolated primary still hears about a retarget from its
        // follower's acks.
        if (primary.fence != nullptr) batch->epoch = primary.fence->epoch();
        const auto bytes = encode_replicate_batch(*batch);
        std::vector<std::vector<std::uint8_t>> copies;
        if (primary.faulty_repl_link != nullptr) {
          copies = primary.faulty_repl_link->transfer_up(bytes).copies;
        } else {
          copies.push_back(bytes);
        }
        for (const auto& copy : copies) {
          const auto delivered = decode_replicate_batch(copy);
          if (!delivered) continue;  // corrupted in flight
          if (delivered->epoch && follower.fence != nullptr) {
            follower.fence->observe_epoch(*delivered->epoch);
          }
          std::size_t applied = 0;
          applied_[i] = apply_replicate_batch(
              *follower.server, *delivered, applied_[i], &applied,
              [this, f](std::uint64_t, const store::UploadRecord& rec,
                        net::IngestStatus st) {
                // Newly applied records join the follower's anti-entropy
                // book; duplicates are already accounted there.
                if (st != net::IngestStatus::kAccepted || rec.reps.empty()) {
                  return;
                }
                const std::size_t p = partitioner_.partition_of(
                    rec.reps.front().fov.p.lng, rec.reps.front().fov.p.lat);
                nodes_[f]->book.add(p, rec.upload_id,
                                    record_digest(rec.upload_id, rec.reps));
              });
          total_applied += applied;
        }
        // Ack the follower's cursor back; a lost ack just means the next
        // round re-ships records the follower will skip.
        ReplicateAckMessage ack;
        ack.follower = f;
        ack.applied_seq = applied_[i];
        if (follower.fence != nullptr) ack.epoch = follower.fence->epoch();
        const auto ack_bytes = encode_replicate_ack(ack);
        std::vector<std::vector<std::uint8_t>> ack_copies;
        if (primary.faulty_repl_link != nullptr) {
          ack_copies = primary.faulty_repl_link->transfer_down(ack_bytes).copies;
        } else {
          ack_copies.push_back(ack_bytes);
        }
        for (const auto& copy : ack_copies) {
          const auto got = decode_replicate_ack(copy);
          if (!got) continue;
          acked_[i] = std::max(acked_[i], got->applied_seq);
          if (got->epoch && primary.fence != nullptr) {
            primary.fence->observe_epoch(*got->epoch);
          }
        }
      }
    }
    const std::uint64_t lag = tip > acked_[i] ? tip - acked_[i] : 0;
    max_lag = std::max(max_lag, lag);
    if (lag >= cfg_.lag_alert_records) {
      if (!lag_alerted_[i]) {
        obs::journal_event(obs::JournalEvent::kReplicationLagged, i, f, lag);
        m.lag_alerts.inc();
        lag_alerted_[i] = true;
      }
    } else {
      lag_alerted_[i] = false;
    }
  }
  m.replication_lag.set(static_cast<std::int64_t>(max_lag));
  span.tag("applied", total_applied);
  return total_applied;
}

std::size_t Cluster::replicate_until_quiescent(std::size_t max_rounds) {
  std::size_t total = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const std::size_t applied = replicate_round();
    total += applied;
    if (applied > 0) continue;
    bool caught_up = true;
    for (std::size_t i = 0; i < nodes_.size() && caught_up; ++i) {
      if (replication_lag(i) > 0) caught_up = false;
    }
    if (caught_up) break;
  }
  return total;
}

std::uint64_t Cluster::replication_lag(std::size_t i) const {
  const NodeState& primary = *nodes_[i];
  if (!primary.up || primary.server == nullptr) return 0;
  const std::uint64_t tip = primary.server->last_wal_seq();
  return tip > acked_[i] ? tip - acked_[i] : 0;
}

std::size_t Cluster::repair_round() {
  if (cfg_.data_dir.empty() || nodes_.size() < 2) return 0;
  auto& rm = obs::cluster_repair_metrics();
  const auto routing = router_->routing();
  std::size_t reshipped_total = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeState& primary = *nodes_[i];
    const std::size_t f = (i + 1) % nodes_.size();
    NodeState& follower = *nodes_[f];
    if (!primary.up || primary.server == nullptr || !follower.up ||
        follower.server == nullptr) {
      continue;
    }
    // A lagging stream is in-flight shipping, not divergence — comparing
    // now would trigger spurious repairs of records the next
    // replicate_round delivers anyway.
    primary.server->sync_wal();
    if (replication_lag(i) > 0) continue;
    rm.exchanges.inc();

    // Fingerprint exchange over the partitions node i currently serves.
    std::set<std::pair<std::size_t, std::size_t>> divergent;
    for (std::size_t p = 0; p < routing.table.primary_of.size(); ++p) {
      if (routing.table.primary_of[p] != i) continue;
      const auto mine = primary.book.summary(p);
      const auto theirs = follower.book.summary(p);
      for (const std::size_t b :
           FingerprintBook::divergent_buckets(mine, theirs)) {
        divergent.insert({p, b});
      }
    }
    if (divergent.empty()) continue;

    const std::uint64_t t0 = obs::now_ns();
    rm.repairs_started.inc();
    rm.divergent_buckets.inc(divergent.size());
    obs::journal_event(obs::JournalEvent::kRepairStarted, i, f,
                       divergent.size());

    // Find the earliest WAL record feeding a divergent bucket and rewind
    // the stream's cursors to just before it: the ordinary shipping path
    // re-offers from there and the follower's dedup absorbs everything it
    // already holds — only the divergent range has any effect.
    std::optional<std::uint64_t> rewind;
    const auto records = store::wal_read_records(wal_dir(i), 0);
    if (records) {
      for (const store::WalRecordData& rec : *records) {
        const auto decoded = store::decode_upload_record(rec.payload);
        if (!decoded || decoded->reps.empty()) continue;
        const std::size_t p = partitioner_.partition_of(
            decoded->reps.front().fov.p.lng, decoded->reps.front().fov.p.lat);
        if (divergent.count({p, fingerprint_bucket(decoded->upload_id)}) !=
            0) {
          rewind = rec.seq - 1;
          break;
        }
      }
    }
    std::size_t shipped = 0;
    if (rewind) {
      // Count only the range re-offered on THIS stream (tip − rewind).
      // replicate_until_quiescent also ships the cascade — repaired
      // records the follower re-logs and forwards around the ring — but
      // that is ordinary replication, not repair overhead.
      const std::uint64_t resume = std::min(acked_[i], *rewind);
      shipped = static_cast<std::size_t>(acked_[i] - resume);
      acked_[i] = resume;
      applied_[i] = std::min(applied_[i], *rewind);
      replicate_until_quiescent();
      rm.records_reshipped.inc(shipped);
      reshipped_total += shipped;
    }

    // Converged? (The follower may still diverge if IT holds records the
    // primary lost — that is restore_node_from_peer territory.)
    bool converged = true;
    for (const auto& [p, b] : divergent) {
      const auto mine = primary.book.summary(p);
      const auto theirs = follower.book.summary(p);
      if (mine.hash[b] != theirs.hash[b] || mine.count[b] != theirs.count[b]) {
        converged = false;
        break;
      }
    }
    if (converged) {
      rm.repairs_completed.inc();
      obs::journal_event(obs::JournalEvent::kRepairCompleted, i, f, shipped);
    }
    rm.repair_ns.observe(obs::now_ns() - t0);
  }
  return reshipped_total;
}

store::ScrubReport Cluster::scrub_node(std::size_t i, bool quarantine) {
  NodeState& n = *nodes_[i];
  if (n.up && n.server != nullptr) n.server->sync_wal();
  store::ScrubOptions opts;
  opts.quarantine = quarantine;
  return store::scrub_directory(wal_dir(i), opts);
}

bool Cluster::restore_node_from_peer(std::size_t i) {
  if (cfg_.data_dir.empty() || nodes_.size() < 2) return false;
  const std::size_t f = (i + 1) % nodes_.size();
  NodeState& follower = *nodes_[f];
  if (!follower.up || follower.server == nullptr) return false;
  follower.server->sync_wal();
  const auto records = store::wal_read_records(wal_dir(f), 0);
  if (!records) return false;

  // Wipe node i and start it empty, then re-ingest the replicated copy of
  // every record in a partition it serves, with the ORIGINAL upload_ids —
  // dedup semantics survive the restore, and the rebuilt WAL re-ships to
  // the follower as a stream it already holds (all duplicates).
  const auto routing = router_->routing();
  nodes_[i]->server.reset();
  std::error_code ec;
  std::filesystem::remove_all(wal_dir(i), ec);
  nodes_[i]->server = make_server(i);
  nodes_[i]->up = true;
  nodes_[i]->probe_ok = true;
  nodes_[i]->failed_probes = 0;
  if (cfg_.fencing) nodes_[i]->fence = make_fence(i);
  acked_[i] = 0;
  applied_[i] = 0;

  std::size_t restored = 0;
  for (const store::WalRecordData& rec : *records) {
    const auto decoded = store::decode_upload_record(rec.payload);
    if (!decoded || decoded->reps.empty()) continue;
    const std::size_t p = partitioner_.partition_of(
        decoded->reps.front().fov.p.lng, decoded->reps.front().fov.p.lat);
    if (routing.table.primary_of[p] != i) continue;
    net::UploadMessage msg;
    msg.upload_id = decoded->upload_id;
    msg.video_id = decoded->reps.front().video_id;
    msg.segments = decoded->reps;
    if (nodes_[i]->server->ingest_status(msg) == net::IngestStatus::kAccepted) {
      ++restored;
    }
  }
  nodes_[i]->server->sync_wal();
  rebuild_book(i);
  set_nodes_up_gauge();
  obs::cluster_repair_metrics().peer_restores.inc();
  obs::journal_event(obs::JournalEvent::kPeerRestore, i, f, restored);
  return true;
}

void Cluster::force_ship_cursor(std::size_t i, std::uint64_t seq) {
  acked_[i] = seq;
  applied_[i] = seq;
}

std::optional<std::vector<std::uint8_t>> Cluster::canonical_bytes(
    const std::string& scratch_dir) {
  const auto routing = router_->routing();
  // Serving nodes, deduplicated (after failover one node may serve many
  // partitions).
  std::vector<std::uint32_t> serving = routing.table.primary_of;
  std::sort(serving.begin(), serving.end());
  serving.erase(std::unique(serving.begin(), serving.end()), serving.end());
  std::vector<core::RepresentativeFov> owned;
  for (const std::uint32_t s : serving) {
    NodeState& n = *nodes_[s];
    if (!n.up || n.server == nullptr) return std::nullopt;
    const std::string path =
        scratch_dir + "/canonical_node" + std::to_string(s) + ".snap";
    if (!n.server->save_snapshot(path)) return std::nullopt;
    const auto snap = store::load_snapshot_file(path);
    if (!snap) return std::nullopt;
    // Ownership filter: keep only rows whose partition this node serves
    // — replicated copies held as a follower drop out here.
    for (const core::RepresentativeFov& rep : *snap) {
      const std::size_t p =
          partitioner_.partition_of(rep.fov.p.lng, rep.fov.p.lat);
      if (routing.table.primary_of[p] == s) owned.push_back(rep);
    }
  }
  return canonical_fingerprint(std::move(owned));
}

std::vector<std::uint8_t> canonical_fingerprint(
    std::vector<core::RepresentativeFov> reps) {
  std::sort(reps.begin(), reps.end(),
            [](const core::RepresentativeFov& a,
               const core::RepresentativeFov& b) {
              if (a.video_id != b.video_id) return a.video_id < b.video_id;
              if (a.segment_id != b.segment_id) {
                return a.segment_id < b.segment_id;
              }
              return a.t_start < b.t_start;
            });
  return store::encode_snapshot(reps);
}

}  // namespace svg::cluster
