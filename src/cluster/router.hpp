#pragma once
// The cluster's front door (docs/CLUSTER.md): splits each upload by the
// geo-cell of every segment's FoV position into per-partition sub-uploads,
// delivers each to the partition's serving node, and aggregates the
// sub-acks into one client-visible ack; fans queries out only to the
// nodes whose cells intersect the search box
// (retrieval::RetrievalConfig::search_range) and k-way-merges the
// per-node top-N lists deterministically (retrieval::merge_ranked_lists
// with the RankedBefore tie-break).
//
// Sub-upload ids are a pure function of (parent upload_id, partition), so
// a client retransmit regenerates the same ids and every node's upload_id
// dedup absorbs the replay — at-least-once delivery per leg, exactly-once
// effect cluster-wide, even across a mid-retry failover (the partition,
// not the node, keys the id).
//
// Transport is a seam: the router talks to node `i` through a
// NodeExchange callback that returns whatever response copies actually
// arrived (an in-process cluster::Cluster routes this through per-node
// FaultyLinks; a real deployment would put sockets behind it).

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/partition.hpp"
#include "cluster/wire.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "retrieval/engine.hpp"

namespace svg::cluster {

/// Deterministic, never-zero sub-upload id for one (parent, partition)
/// leg. Stable across failover: the partition keys the id, so a retry
/// that lands on a promoted follower still dedups.
[[nodiscard]] std::uint64_t sub_upload_id(std::uint64_t upload_id,
                                          std::size_t partition);

/// One request/response exchange with a node: returns the response copies
/// that arrived (possibly none — dropped; possibly several — duplicated).
using NodeExchange = std::function<std::vector<std::vector<std::uint8_t>>(
    std::size_t node, std::span<const std::uint8_t> request)>;

class Router {
 public:
  /// `retrieval` must match the nodes' config: the fan-out prune uses the
  /// same search box the per-node engines search — R around p̂ with the
  /// orientation filter on, whatever r̂ is — so a camera in a neighbouring
  /// cell that sees p̂ is never pruned away, and a wide r̂ contacts no
  /// node that holds no such camera.
  Router(GeoPartitioner partitioner, retrieval::RetrievalConfig retrieval,
         RoutingTable table, NodeExchange exchange);

  /// One delivery attempt for a client upload: split, send every
  /// sub-upload, aggregate. nullopt when some leg went unanswered (the
  /// client's UploadQueue retries the whole upload; per-node dedup makes
  /// that safe). kRetryLater when some node deferred — carrying the
  /// largest per-leg retry-after hint — while every other leg still got
  /// its send.
  ///
  /// Defer-and-resume: legs that settled (accepted/duplicate) are
  /// memoised per parent upload_id, so the retry of a partially-deferred
  /// upload re-offers only the missing legs instead of failing the whole
  /// attempt and re-sending everything. One overloaded partition
  /// therefore costs retries only against that partition, not cluster-
  /// wide fan-out amplification. The memo is cleared on any terminal
  /// verdict and bounded in size (overflow falls back to full re-send,
  /// which per-node dedup absorbs).
  [[nodiscard]] std::optional<net::UploadAck> route_upload(
      const net::UploadMessage& msg);

  /// Adapter for net::UploadQueue::drain — decodes the queue's encoded
  /// upload and routes it.
  [[nodiscard]] net::UploadQueue::AttemptFn upload_channel();

  /// Scatter-gather search: fan out to the nodes owning intersecting
  /// cells (retrying each leg up to `attempts_per_node` times across the
  /// faulty transport), merge with the deterministic ranked merge, return
  /// the global top-N. Sets *complete=false when some node never
  /// answered (results are then best-effort).
  [[nodiscard]] std::vector<retrieval::RankedResult> search(
      const retrieval::Query& q, std::uint32_t top_n,
      bool* complete = nullptr, std::size_t attempts_per_node = 16);

  /// Current routing state (copy; the live table may move on failover).
  [[nodiscard]] RoutingTableMessage routing() const;
  /// Retarget one partition (failover promotion); bumps the epoch.
  void set_primary(std::size_t partition, std::uint32_t node);

  [[nodiscard]] const GeoPartitioner& partitioner() const noexcept {
    return partitioner_;
  }

 private:
  /// Legs of one partially-delivered parent upload that already settled.
  struct ResumeState {
    bool any_accepted = false;  ///< some leg was newly indexed (vs deduped)
    std::map<std::size_t, std::uint64_t> settled;  ///< partition → segments
  };

  GeoPartitioner partitioner_;
  retrieval::RetrievalConfig retrieval_;
  NodeExchange exchange_;
  mutable std::shared_mutex table_mu_;
  RoutingTable table_;
  std::mutex resume_mu_;
  std::unordered_map<std::uint64_t, ResumeState> resume_;
};

/// Node side of one fan-out leg: decode, run the local engine with the
/// request's top-N (CloudServer::search_n), answer with exact doubles.
/// Empty vector on a malformed request (no reply — the router retries).
[[nodiscard]] std::vector<std::uint8_t> handle_fanout_query(
    net::CloudServer& server, std::size_t node_id,
    std::span<const std::uint8_t> bytes);

}  // namespace svg::cluster
