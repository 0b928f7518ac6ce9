#include "cluster/fence.hpp"

#include <utility>

#include "obs/families.hpp"
#include "obs/journal.hpp"

namespace svg::cluster {

NodeFence::NodeFence(std::size_t node, GeoPartitioner partitioner,
                     RoutingTableMessage initial, FenceConfig cfg)
    : node_(node),
      partitioner_(std::move(partitioner)),
      cfg_(cfg),
      epoch_(initial.table.epoch),
      primary_of_(std::move(initial.table.primary_of)) {}

void NodeFence::heartbeat(const RoutingTableMessage& routing) {
  std::lock_guard lock(mu_);
  missed_ = 0;
  if (routing.table.epoch >= epoch_) {
    epoch_ = routing.table.epoch;
    primary_of_ = routing.table.primary_of;
    have_table_ = true;
  }
  if (fenced_) {
    fenced_ = false;
    obs::cluster_metrics().node_unfences.inc();
    obs::journal_event(obs::JournalEvent::kNodeUnfenced, node_, epoch_);
  }
}

void NodeFence::miss_heartbeat() {
  std::lock_guard lock(mu_);
  ++missed_;
  if (!fenced_ && missed_ >= cfg_.miss_threshold) {
    fenced_ = true;
    obs::cluster_metrics().node_fences.inc();
    obs::journal_event(obs::JournalEvent::kNodeFenced, node_, epoch_,
                       missed_);
  }
}

void NodeFence::observe_epoch(std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  if (epoch > epoch_) {
    epoch_ = epoch;
    have_table_ = false;  // the cached table belongs to an older epoch
  }
}

std::optional<net::UploadAck> NodeFence::admit_upload(
    const net::UploadMessage& msg) {
  std::lock_guard lock(mu_);
  if (msg.route_epoch && *msg.route_epoch > epoch_) {
    // The sender's table is newer and routed this partition to us — that
    // table is the single authority for its epoch, so acceptance here
    // cannot dual-ack. Adopting the epoch also unfences: a current-epoch
    // router vouching for us is as good as a heartbeat.
    epoch_ = *msg.route_epoch;
    have_table_ = false;
    if (fenced_) {
      fenced_ = false;
      missed_ = 0;
      obs::cluster_metrics().node_unfences.inc();
      obs::journal_event(obs::JournalEvent::kNodeUnfenced, node_, epoch_);
    }
    return std::nullopt;
  }
  if (fenced_) {
    // Heartbeats stopped: we may have been demoted in an epoch we cannot
    // see. Refuse all ingest ≤ our epoch until a heartbeat says otherwise.
    return refuse(msg);
  }
  if (!msg.route_epoch) {
    // Unstamped sender: admit only what the cached table says we own (no
    // epoch to compare, ownership is the whole check).
    if (have_table_ && !owns_all(msg)) return refuse(msg);
    return std::nullopt;
  }
  if (*msg.route_epoch < epoch_) return refuse(msg);  // stale router
  // Same epoch: accept only partitions the table of this epoch gives us —
  // a demoted primary that has SEEN the new table refuses its lost
  // partitions here even though it never fenced.
  if (have_table_ && !owns_all(msg)) return refuse(msg);
  return std::nullopt;
}

bool NodeFence::fenced() const {
  std::lock_guard lock(mu_);
  return fenced_;
}

std::uint64_t NodeFence::epoch() const {
  std::lock_guard lock(mu_);
  return epoch_;
}

std::uint32_t NodeFence::missed_heartbeats() const {
  std::lock_guard lock(mu_);
  return missed_;
}

net::UploadAck NodeFence::refuse(const net::UploadMessage& msg) const {
  obs::cluster_metrics().stale_epoch_rejects.inc();
  obs::journal_event(obs::JournalEvent::kStaleEpochRejected, node_,
                     msg.route_epoch ? *msg.route_epoch + 1 : 0, epoch_);
  net::UploadAck ack;
  ack.upload_id = msg.upload_id;
  ack.status = net::UploadAckStatus::kStaleEpoch;
  ack.node_epoch = epoch_;
  return ack;
}

bool NodeFence::owns_all(const net::UploadMessage& msg) const {
  for (const core::RepresentativeFov& rep : msg.segments) {
    const std::size_t p =
        partitioner_.partition_of(rep.fov.p.lng, rep.fov.p.lat);
    if (p >= primary_of_.size() || primary_of_[p] != node_) return false;
  }
  return true;
}

}  // namespace svg::cluster
