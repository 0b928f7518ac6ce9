#pragma once
// Epoch fencing (docs/CLUSTER.md, "Fencing and repair"). PR 8's failover
// left the classic asymmetric-partition split-brain open: when the probe
// path to a primary dies but the client path lives, probes demote it and
// promote its follower while stale routers keep delivering writes the old
// primary happily acks — two nodes accepting the same partition. NodeFence
// closes both halves of that hole:
//
// * Stamp checking: routers stamp the RoutingTable epoch they routed by
//   into every upload (net/wire.hpp, kTagEpoch). A stamp older than the
//   node's epoch is refused with kStaleEpoch carrying the node's epoch,
//   so the sender defers the write and retries. A NEWER stamp is proof
//   the current table routes this partition here — the node adopts the
//   epoch and admits (this is also how a freshly promoted follower
//   learns its new epoch from traffic before the next probe round
//   reaches it).
// * Heartbeat lease: the probe loop doubles as a heartbeat/table-announce
//   channel. A node that misses `miss_threshold` consecutive heartbeats
//   must assume it has been demoted in an epoch it cannot see and
//   self-fences: refuses ALL ingest (kStaleEpoch) while continuing to
//   serve reads, until a heartbeat arrives. Epoch stamps alone cannot fix
//   this case — a fully probe-isolated primary receiving only stale
//   traffic would never learn a newer epoch exists.
//
// With both rules, no two nodes ack writes for the same partition in the
// same epoch: tables are single-authority (every retarget bumps the
// epoch), same-epoch acceptance requires ownership under that table, and
// the fence window covers the gap between heartbeat loss and demotion.
//
// Replication stamps (cluster/wire.hpp) are a learning channel only —
// observe_epoch() advances the fence's epoch from them, but stale batches
// are never refused (a rejoined demoted primary legitimately resyncs an
// old-epoch WAL).

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "cluster/partition.hpp"
#include "cluster/wire.hpp"
#include "net/wire.hpp"

namespace svg::cluster {

struct FenceConfig {
  /// Consecutive missed heartbeats before the node self-fences. Kept
  /// below the prober's fail threshold so the victim stops acking before
  /// its partitions are retargeted.
  std::uint32_t miss_threshold = 2;
};

class NodeFence {
 public:
  NodeFence(std::size_t node, GeoPartitioner partitioner,
            RoutingTableMessage initial, FenceConfig cfg = {});

  /// A probe reached us with the authoritative table. Resets the miss
  /// counter, releases the fence, and adopts the table if not older.
  void heartbeat(const RoutingTableMessage& routing);

  /// The probe path failed to reach us this round. At miss_threshold
  /// consecutive misses the node fences itself (journal kNodeFenced).
  void miss_heartbeat();

  /// Learn an epoch from a side channel (replication stamps). Advances
  /// the fence epoch and invalidates the cached table if newer; never
  /// refuses anything and never unfences.
  void observe_epoch(std::uint64_t epoch);

  /// Gate one decoded upload. nullopt = admit; otherwise the kStaleEpoch
  /// refusal ack to send back (journal kStaleEpochRejected).
  [[nodiscard]] std::optional<net::UploadAck> admit_upload(
      const net::UploadMessage& msg);

  [[nodiscard]] bool fenced() const;
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::uint32_t missed_heartbeats() const;

 private:
  [[nodiscard]] net::UploadAck refuse(const net::UploadMessage& msg) const;
  /// True iff every segment of `msg` lands in a partition this node owns
  /// under the cached table (requires have_table_).
  [[nodiscard]] bool owns_all(const net::UploadMessage& msg) const;

  std::size_t node_;
  GeoPartitioner partitioner_;
  FenceConfig cfg_;
  mutable std::mutex mu_;
  std::uint64_t epoch_ = 0;               ///< max epoch observed
  std::vector<std::uint32_t> primary_of_; ///< table at epoch_, if known
  bool have_table_ = true;                ///< primary_of_ matches epoch_
  bool fenced_ = false;
  std::uint32_t missed_ = 0;
};

}  // namespace svg::cluster
