// Epoch-fencing properties (cluster/fence.hpp): routing-table epochs are
// strictly monotonic per retarget, no two nodes accept writes for the
// same partition in the same epoch, a rejoined node lands in a strictly
// newer epoch than the one it crashed under, and — the split-brain
// scenario the fence exists for — an ASYMMETRIC partition (probe path
// dead, client path alive) never dual-acks and the cluster still
// converges byte-identically to the fault-free single-node oracle across
// many seeds.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fence.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "sim/crowd.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::cluster;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_fence_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::vector<net::UploadMessage> make_uploads(std::uint64_t seed,
                                             std::size_t count) {
  util::Xoshiro256 rng(seed);
  sim::CityModel city;
  std::vector<net::UploadMessage> uploads;
  for (std::size_t u = 0; u < count; ++u) {
    net::UploadMessage msg;
    msg.video_id = u + 1;
    msg.segments = sim::random_representative_fovs(
        5 + rng.bounded(4), city, 1'400'000'000'000, 3'600'000, rng);
    for (std::size_t i = 0; i < msg.segments.size(); ++i) {
      msg.segments[i].video_id = msg.video_id;
      msg.segments[i].segment_id = static_cast<std::uint32_t>(i);
    }
    uploads.push_back(std::move(msg));
  }
  return uploads;
}

ClusterConfig fencing_config(const std::string& dir) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.partition.bounds = sim::CityModel{}.bounds_deg();
  cfg.partition.cells_per_side = 16;
  cfg.data_dir = dir;
  cfg.fencing = true;
  return cfg;
}

bool drain(Cluster& cluster, const std::vector<net::UploadMessage>& uploads,
           std::uint64_t queue_seed) {
  net::RetryPolicy policy;
  policy.max_attempts = 64;
  net::UploadQueue queue(policy, queue_seed);
  for (const auto& m : uploads) queue.enqueue(m);
  return queue.drain(cluster.router().upload_channel());
}

/// One upload whose every segment falls in `partition` (probe positions
/// until the partitioner agrees), so an ack from a node IS an acceptance
/// for that partition.
net::UploadMessage single_partition_upload(const GeoPartitioner& partitioner,
                                           std::size_t partition,
                                           std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sim::CityModel city;
  for (int tries = 0; tries < 10'000; ++tries) {
    auto segs = sim::random_representative_fovs(1, city, 1'400'000'000'000,
                                                3'600'000, rng);
    const auto& rep = segs.front();
    if (partitioner.partition_of(rep.fov.p.lng, rep.fov.p.lat) != partition) {
      continue;
    }
    net::UploadMessage msg;
    msg.video_id = 9'000 + partition;
    msg.segments = std::move(segs);
    msg.segments.front().video_id = msg.video_id;
    msg.segments.front().segment_id = 0;
    return msg;
  }
  ADD_FAILURE() << "no position found for partition " << partition;
  return {};
}

/// Deliver one stamped upload straight to a node (bypassing the router)
/// and return the decoded ack, if any.
std::optional<net::UploadAck> offer(Cluster& cluster, std::size_t node,
                                    net::UploadMessage msg,
                                    std::uint64_t epoch, bool stamped) {
  msg.route_epoch = stamped ? std::optional(epoch) : std::nullopt;
  const auto bytes = net::encode_upload(msg);
  for (const auto& reply : cluster.exchange_fn()(node, bytes)) {
    if (const auto ack = net::decode_upload_ack(reply)) return ack;
  }
  return std::nullopt;
}

TEST(ClusterFencingPropertyTest, EpochBumpsMonotonicallyPerRetarget) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Xoshiro256 rng(seed);
    ScopedDir dir("mono" + std::to_string(seed));
    ClusterConfig cfg = fencing_config(dir.path + "/c");
    Cluster cluster(cfg);
    std::uint64_t last = cluster.router().routing().table.epoch;
    for (int step = 0; step < 20; ++step) {
      const std::size_t p =
          rng.bounded(cluster.router().routing().table.primary_of.size());
      cluster.router().set_primary(p, static_cast<std::uint32_t>(
                                          rng.bounded(cfg.nodes)));
      const std::uint64_t epoch = cluster.router().routing().table.epoch;
      EXPECT_GT(epoch, last) << "seed " << seed << " step " << step;
      last = epoch;
    }
  }
}

TEST(ClusterFencingPropertyTest, FenceRefusesBeforePromotionCanDualAck) {
  // The fence window: the victim must stop acking (miss_threshold = 2)
  // BEFORE its partitions are retargeted (probe_fail_threshold = 3), so
  // there is no epoch in which two nodes accept the same partition.
  ScopedDir dir("window");
  ClusterConfig cfg = fencing_config(dir.path + "/c");
  Cluster cluster(cfg);
  const GeoPartitioner partitioner(cluster.router().routing().partition);
  ASSERT_TRUE(drain(cluster, make_uploads(3, 4), 11));
  cluster.replicate_until_quiescent();

  const std::uint64_t epoch0 = cluster.router().routing().table.epoch;
  const std::size_t victim = 0;
  cluster.set_probe_reachable(victim, false);

  // Two missed heartbeats: fenced, not yet demoted.
  cluster.probe_round();
  cluster.probe_round();
  ASSERT_NE(cluster.fence(victim), nullptr);
  EXPECT_TRUE(cluster.fence(victim)->fenced());
  EXPECT_EQ(cluster.router().routing().table.primary_of[victim],
            static_cast<std::uint32_t>(victim))
      << "not demoted yet";
  EXPECT_EQ(obs::cluster_metrics().nodes_fenced.value(), 1);

  // A write stamped with the CURRENT epoch is refused by the fenced
  // victim — this is the window where pre-fencing clusters dual-acked.
  const auto msg = single_partition_upload(partitioner, victim, 5);
  util::SplitMix64 ids(99);
  net::UploadMessage attempt = msg;
  attempt.upload_id = ids.next();
  const auto ack = offer(cluster, victim, attempt, epoch0, true);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, net::UploadAckStatus::kStaleEpoch);
  EXPECT_EQ(ack->node_epoch, epoch0);

  // Third missed probe: partition retargeted in a strictly newer epoch.
  cluster.probe_round();
  const auto routing = cluster.router().routing();
  const std::uint32_t owner = routing.table.primary_of[victim];
  ASSERT_NE(owner, static_cast<std::uint32_t>(victim));
  ASSERT_GT(routing.table.epoch, epoch0);

  // Stale-epoch writes are refused by BOTH the old and the new owner;
  // only a current-epoch write to the new owner is accepted. One writer
  // per (partition, epoch).
  attempt.upload_id = ids.next();
  const auto stale_old = offer(cluster, victim, attempt, epoch0, true);
  ASSERT_TRUE(stale_old.has_value());
  EXPECT_EQ(stale_old->status, net::UploadAckStatus::kStaleEpoch);
  const auto stale_new = offer(cluster, owner, attempt, epoch0, true);
  ASSERT_TRUE(stale_new.has_value());
  EXPECT_EQ(stale_new->status, net::UploadAckStatus::kStaleEpoch);
  EXPECT_EQ(stale_new->node_epoch, routing.table.epoch);
  const auto current =
      offer(cluster, owner, attempt, routing.table.epoch, true);
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->status, net::UploadAckStatus::kAccepted);

  // The journal saw the fence go up and the refusals.
  bool saw_fenced = false;
  bool saw_rejected = false;
  for (const auto& rec : obs::Journal::global().tail()) {
    if (rec.event == obs::JournalEvent::kNodeFenced) saw_fenced = true;
    if (rec.event == obs::JournalEvent::kStaleEpochRejected) {
      saw_rejected = true;
    }
  }
  EXPECT_TRUE(saw_fenced);
  EXPECT_TRUE(saw_rejected);
}

TEST(ClusterFencingPropertyTest, RejoinLandsInStrictlyNewerEpoch) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ScopedDir dir("rejoin" + std::to_string(seed));
    ClusterConfig cfg = fencing_config(dir.path + "/c");
    Cluster cluster(cfg);
    ASSERT_TRUE(drain(cluster, make_uploads(seed, 3), seed * 7 + 1));
    cluster.replicate_until_quiescent();

    const std::size_t victim = seed % cfg.nodes;
    const std::uint64_t crash_epoch = cluster.fence(victim)->epoch();
    cluster.fail_node(victim);
    for (std::uint32_t r = 0; r < cfg.probe_fail_threshold; ++r) {
      cluster.probe_round();
    }
    ASSERT_NE(cluster.router().routing().table.primary_of[victim],
              static_cast<std::uint32_t>(victim));

    cluster.rejoin_node(victim);
    ASSERT_NE(cluster.fence(victim), nullptr);
    EXPECT_GT(cluster.fence(victim)->epoch(), crash_epoch)
        << "seed " << seed;
    // And the rejoined node refuses writes for its lost partition even at
    // the current epoch — it no longer owns it.
    const GeoPartitioner partitioner(cluster.router().routing().partition);
    auto msg = single_partition_upload(partitioner, victim, seed);
    msg.upload_id = seed * 1'000 + 17;
    const auto ack = offer(cluster, victim, msg,
                           cluster.router().routing().table.epoch, true);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->status, net::UploadAckStatus::kStaleEpoch);
  }
}

TEST(ClusterFencingPropertyTest, AsymmetricPartitionConvergesToOracle) {
  // ≥50 seeds: probe path to one node dies mid-stream while the client
  // path stays alive. The fence refuses the victim's ingest during the
  // window, the router defers each kStaleEpoch leg and the client's retry
  // re-offers it, failover retargets, and the final cluster content is
  // byte-identical to the fault-free single-node oracle.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ScopedDir dir("conv" + std::to_string(seed));
    const auto uploads = make_uploads(seed * 131 + 5, 8);

    net::CloudServer oracle;
    for (const auto& m : uploads) {
      net::UploadMessage msg = m;
      msg.upload_id = 0;  // content oracle; ids are a cluster concern
      const auto rt = net::decode_upload(net::encode_upload(msg));
      ASSERT_TRUE(rt.has_value());
      ASSERT_TRUE(oracle.ingest(*rt));
    }
    ASSERT_TRUE(oracle.save_snapshot(dir.path + "/oracle.snap"));
    const auto snap =
        store::load_snapshot_file_full(dir.path + "/oracle.snap");
    ASSERT_TRUE(snap.has_value());
    const auto want = canonical_fingerprint(snap->reps);

    ClusterConfig cfg = fencing_config(dir.path + "/cluster");
    Cluster cluster(cfg);

    // Phase 1: half the corpus lands cleanly.
    const std::size_t prefix = uploads.size() / 2;
    ASSERT_TRUE(drain(cluster,
                      {uploads.begin(), uploads.begin() + prefix},
                      seed * 31 + 7));
    cluster.replicate_until_quiescent();

    // Phase 2: asymmetric partition on a seed-chosen victim. Probes miss
    // (fence, then failover) while the client path keeps delivering — the
    // victim refuses with kStaleEpoch rather than dual-acking, and the
    // retries land on the promoted follower.
    const std::size_t victim = seed % cfg.nodes;
    cluster.set_probe_reachable(victim, false);
    for (std::uint32_t r = 0; r < cfg.probe_fail_threshold; ++r) {
      cluster.probe_round();
    }
    ASSERT_TRUE(drain(cluster, {uploads.begin() + prefix, uploads.end()},
                      seed * 31 + 8))
        << "seed " << seed;
    cluster.replicate_until_quiescent();

    // Heal the probe path: the victim unfences on the next heartbeat and
    // serves whatever partitions the current table still gives it.
    cluster.set_probe_reachable(victim, true);
    cluster.probe_round();
    EXPECT_FALSE(cluster.fence(victim)->fenced()) << "seed " << seed;

    const auto got = cluster.canonical_bytes(dir.path);
    ASSERT_TRUE(got.has_value()) << "seed " << seed;
    EXPECT_EQ(*got, want) << "content diverged at seed " << seed;
  }
}

}  // namespace
