#include "cluster/router.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/families.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace svg::cluster {

namespace {
/// Upper bound on in-flight defer-and-resume memos. Crossing it clears
/// the table — correctness is unaffected (full re-send + per-node dedup),
/// only the resume optimisation is lost for the evicted parents.
constexpr std::size_t kResumeCapacity = 4096;
}  // namespace

std::uint64_t sub_upload_id(std::uint64_t upload_id, std::size_t partition) {
  util::SplitMix64 mix(upload_id ^
                       (static_cast<std::uint64_t>(partition) + 1) *
                           0x9E3779B97F4A7C15ULL);
  const std::uint64_t id = mix.next();
  // 0 means "no dedup id" on the wire and would bypass dedup.
  return id == 0 ? 1 : id;
}

Router::Router(GeoPartitioner partitioner, retrieval::RetrievalConfig retrieval,
               RoutingTable table, NodeExchange exchange)
    : partitioner_(std::move(partitioner)),
      retrieval_(retrieval),
      exchange_(std::move(exchange)),
      table_(std::move(table)) {}

std::optional<net::UploadAck> Router::route_upload(
    const net::UploadMessage& msg) {
  auto& m = obs::cluster_metrics();
  obs::Span span = obs::tracer().root_span("cluster.route");
  obs::ScopedTimer timer(m.route_ns, span.trace_id());
  m.uploads_routed.inc();

  // Split by partition. std::map keeps partition order deterministic.
  std::map<std::size_t, std::vector<core::RepresentativeFov>> groups;
  for (const core::RepresentativeFov& rep : msg.segments) {
    groups[partitioner_.partition_of(rep.fov.p.lng, rep.fov.p.lat)].push_back(
        rep);
  }
  span.tag("partitions", groups.size());
  if (groups.empty()) {
    // A segment-less upload touches no partition; ack it as accepted so
    // the client's queue retires it (re-sends land here again — harmless).
    net::UploadAck ack;
    ack.upload_id = msg.upload_id;
    ack.status = net::UploadAckStatus::kAccepted;
    return ack;
  }

  // Resume from any earlier partially-delivered attempt of this parent:
  // settled legs are skipped, only missing legs are re-offered. Id-less
  // uploads (upload_id == 0) cannot be memoised — they fall back
  // to full re-send, which per-node dedup cannot absorb but which matches
  // their pre-cluster at-most-once contract.
  ResumeState state;
  if (msg.upload_id != 0) {
    std::lock_guard lk(resume_mu_);
    if (const auto it = resume_.find(msg.upload_id); it != resume_.end()) {
      state = it->second;
    }
  }

  net::UploadAck out;
  out.upload_id = msg.upload_id;
  bool any_unanswered = false;
  bool any_deferred = false;
  std::uint64_t retry_after_ms = 0;  // max over deferred legs
  for (auto& [partition, segments] : groups) {
    if (state.settled.count(partition) != 0) {
      m.legs_resumed.inc();
      continue;  // landed on a previous attempt
    }
    net::UploadMessage sub;
    sub.upload_id = sub_upload_id(msg.upload_id, partition);
    sub.video_id = msg.video_id;
    sub.segments = std::move(segments);

    std::uint32_t node = 0;
    {
      std::shared_lock lk(table_mu_);
      node = table_.primary_of[partition];
      // Epoch fencing: stamp the table epoch this leg was routed under so
      // the node can refuse us once the table has moved on. Read per-leg —
      // a mid-attempt refresh (kStaleEpoch below) upgrades later legs.
      sub.route_epoch = table_.epoch;
    }
    const auto bytes = net::encode_upload(sub);
    m.subuploads.inc();
    const auto replies = exchange_(node, bytes);
    std::optional<net::UploadAck> sub_ack;
    for (const auto& reply : replies) {
      const auto a = net::decode_upload_ack(reply);
      if (a && a->upload_id == sub.upload_id) {
        sub_ack = *a;
        break;
      }
    }
    // An unanswered or deferred leg no longer fails the whole attempt:
    // the remaining legs still get their send this round, and the ones
    // that settle are memoised so the retry re-offers only what is
    // missing.
    if (!sub_ack) {
      any_unanswered = true;
      continue;
    }
    switch (sub_ack->status) {
      case net::UploadAckStatus::kRejected:
        // Terminal: one poisoned leg poisons the parent. Drop the memo —
        // the client will not retry a rejected upload.
        if (msg.upload_id != 0) {
          std::lock_guard lk(resume_mu_);
          resume_.erase(msg.upload_id);
        }
        out.status = net::UploadAckStatus::kRejected;
        return out;
      case net::UploadAckStatus::kRetryLater:
        // Overloaded/degraded node: defer just this leg. The largest hint
        // across deferred legs rides the aggregated ack, so the client
        // waits long enough for the most-backlogged partition.
        any_deferred = true;
        retry_after_ms = std::max(retry_after_ms, sub_ack->retry_after_ms);
        m.subupload_deferrals.inc();
        continue;
      case net::UploadAckStatus::kStaleEpoch:
        // The node fenced us: its epoch is ahead of the table this leg was
        // stamped with, or it lost its heartbeats. Defer the leg. This
        // router is the table authority — probe rounds retarget it in
        // place — so the retry routes the leg under the current table.
        any_deferred = true;
        m.subupload_deferrals.inc();
        continue;
      case net::UploadAckStatus::kAccepted:
        state.any_accepted = true;
        break;
      case net::UploadAckStatus::kDuplicate:
        break;
    }
    state.settled[partition] = sub_ack->segments_indexed;
  }

  if (any_deferred || any_unanswered) {
    if (msg.upload_id != 0) {
      std::lock_guard lk(resume_mu_);
      // Bound the memo: a pathological flood of abandoned parents falls
      // back to full re-send (safe — dedup absorbs it) instead of
      // growing without limit.
      if (resume_.size() >= kResumeCapacity &&
          resume_.count(msg.upload_id) == 0) {
        resume_.clear();
      }
      resume_[msg.upload_id] = std::move(state);
    }
    if (any_deferred) {
      out.status = net::UploadAckStatus::kRetryLater;
      out.retry_after_ms = retry_after_ms;
      return out;
    }
    return std::nullopt;  // silence only — let the ack timeout run
  }

  // Every leg settled: the parent is terminal. Report the cross-attempt
  // aggregate, then drop the memo.
  if (msg.upload_id != 0) {
    std::lock_guard lk(resume_mu_);
    resume_.erase(msg.upload_id);
  }
  out.status = state.any_accepted ? net::UploadAckStatus::kAccepted
                                  : net::UploadAckStatus::kDuplicate;
  for (const auto& [partition, segs] : state.settled) {
    out.segments_indexed += segs;
  }
  return out;
}

net::UploadQueue::AttemptFn Router::upload_channel() {
  return [this](const std::vector<std::uint8_t>& bytes)
             -> std::optional<net::UploadAck> {
    const auto msg = net::decode_upload(bytes);
    if (!msg) return std::nullopt;
    return route_upload(*msg);
  };
}

std::vector<retrieval::RankedResult> Router::search(
    const retrieval::Query& q, std::uint32_t top_n, bool* complete,
    std::size_t attempts_per_node) {
  auto& m = obs::cluster_metrics();
  obs::Span span = obs::tracer().root_span("cluster.fanout");
  obs::ScopedTimer timer(m.fanout_ns, span.trace_id());
  m.queries.inc();
  if (complete != nullptr) *complete = true;

  // Prune with the box the per-node engines search: R (plus a rounding
  // margin) around p̂ with the filter on, whatever r̂ is, so only nodes
  // owning a cell within reach of a camera that can see p̂ are contacted,
  // and one in a neighbouring cell is never skipped.
  const index::GeoTimeRange range = retrieval_.search_range(q);
  const std::vector<std::size_t> parts =
      partitioner_.partitions_for_range(range);

  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> targets;  // owning nodes, deduplicated
  std::size_t serving_nodes = 0;
  {
    std::shared_lock lk(table_mu_);
    epoch = table_.epoch;
    for (const std::size_t p : parts) targets.push_back(table_.primary_of[p]);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    std::vector<std::uint32_t> all = table_.primary_of;
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    serving_nodes = all.size();
  }
  span.tag("partitions", parts.size());
  span.tag("nodes", targets.size());
  m.fanout_nodes.inc(targets.size());
  m.fanout_skipped.inc(serving_nodes - targets.size());
  if (targets.empty()) return {};  // query misses the deployment entirely

  QueryFanoutMessage fan;
  fan.epoch = epoch;
  fan.t_start = q.t_start;
  fan.t_end = q.t_end;
  fan.center = q.center;
  fan.radius_m = q.radius_m;
  fan.top_n = top_n;
  const auto request = encode_query_fanout(fan);

  std::vector<std::vector<retrieval::RankedResult>> lists;
  lists.reserve(targets.size());
  for (const std::uint32_t node : targets) {
    std::optional<FanoutResultsMessage> answer;
    for (std::size_t attempt = 0;
         attempt < attempts_per_node && !answer; ++attempt) {
      for (const auto& reply : exchange_(node, request)) {
        const auto res = decode_fanout_results(reply);
        if (res) {
          answer = std::move(*res);
          break;
        }
      }
    }
    if (answer) {
      lists.push_back(std::move(answer->results));
    } else if (complete != nullptr) {
      *complete = false;
    }
  }

  // Followers may answer with copies of rows the owning primary also
  // returned (replication), so the merge deduplicates by segment identity.
  return retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), top_n,
      retrieval::RankedBefore{},
      [](const retrieval::RankedResult& a, const retrieval::RankedResult& b) {
        return a.rep.video_id == b.rep.video_id &&
               a.rep.segment_id == b.rep.segment_id;
      });
}

RoutingTableMessage Router::routing() const {
  std::shared_lock lk(table_mu_);
  return {partitioner_.config(), table_};
}

void Router::set_primary(std::size_t partition, std::uint32_t node) {
  std::unique_lock lk(table_mu_);
  table_.primary_of[partition] = node;
  ++table_.epoch;
}

std::vector<std::uint8_t> handle_fanout_query(
    net::CloudServer& server, std::size_t node_id,
    std::span<const std::uint8_t> bytes) {
  const auto msg = decode_query_fanout(bytes);
  if (!msg) return {};
  retrieval::Query q;
  q.t_start = msg->t_start;
  q.t_end = msg->t_end;
  q.center = msg->center;
  q.radius_m = msg->radius_m;
  FanoutResultsMessage out;
  out.node = node_id;
  out.results = server.search_n(q, msg->top_n);
  return encode_fanout_results(out);
}

}  // namespace svg::cluster
