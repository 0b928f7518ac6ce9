#pragma once
// The machinery the two workloads share: the cluster under test, seeded
// input generation, the phone → link → router upload path, compaction,
// replication and crash/rejoin steps with their counts, the host-speed
// probe, and sample statistics. Everything here calls the program through
// its public API; the benchmark's own spans (bench.*) wrap those calls so
// the program's spans nest beneath them in a traced run.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/router.hpp"
#include "core/similarity.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "retrieval/engine.hpp"
#include "util/rng.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// The captured day every workload lives in (epoch milliseconds).
inline constexpr svg::core::TimestampMs kDayStart = 1'400'000'000'000;
inline constexpr svg::core::TimestampMs kHourMs = 3'600'000;
inline constexpr svg::core::TimestampMs kDayMs = 24 * kHourMs;
/// Results per query, as an investigator's client asks for them.
inline constexpr std::uint32_t kTopN = 10;

/// Independent 64-bit stream id for one purpose of one seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t purpose);

// --- statistics -------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

// The host slows by up to 1.6x, for a few seconds or for most of a run.
// Work that repeats exactly (a phone recording, a query_city pass) is timed
// at its fastest repetition. Work that does not (upload_day's queries and
// upload attempts) is taken over consecutive fixed-work windows of about a
// second each and read from the fastest tenth of them: the window at the
// 10th percentile of the run's windows, by speed. Some windows of every run
// fall in a quiet stretch of the host, so that window moves with the
// program rather than with the neighbours. A regression confined to fewer
// than nine in ten windows does not move it; the whole-phase distribution
// is printed beside it for that.
inline constexpr double kFastWindow = 0.1;

/// The kFastWindow quantile, over consecutive windows of at least `window`
/// samples (one window when there are fewer), of each window's
/// q-percentile.
[[nodiscard]] double windowed_percentile(const std::vector<double>& v,
                                         std::size_t window, double q);

/// The ratio of two running totals over each window between marks.
class WindowedRatio {
 public:
  /// Close a window at these totals; a window in which either total did
  /// not grow is skipped.
  void mark(double num, double den);
  /// The fastest tenth's window: the highest tenth for a rate, the lowest
  /// for a cost.
  [[nodiscard]] double fast(bool is_rate) const {
    return percentile(values_, is_rate ? 1.0 - kFastWindow : kFastWindow);
  }
  [[nodiscard]] std::size_t windows() const noexcept { return values_.size(); }

 private:
  double num_ = 0.0;
  double den_ = 0.0;
  std::vector<double> values_;
};

// --- inputs -----------------------------------------------------------------

/// Raw per-frame sensor streams (30 fps, GPS noise, dropouts and a few
/// invalid fixes) of a fixed set of recordings. Each phone in a workload
/// replays one of them, shifted to its own capture time and moved to its
/// own place in the city, so a day of many thousand phones needs only a
/// few hundred generated streams.
class SessionPool {
 public:
  SessionPool(std::uint64_t seed, std::size_t sessions);

  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }

  /// Session `k` starting at `start_ms`, moved by an offset drawn from
  /// `rng` that keeps the whole recording inside the city.
  void materialize(std::size_t k, svg::core::TimestampMs start_ms,
                   svg::util::Xoshiro256& rng,
                   std::vector<svg::core::FovRecord>& out) const;

 private:
  struct Session {
    std::vector<svg::core::FovRecord> records;  ///< t from 0
    double lat_min = 0, lat_max = 0, lng_min = 0, lng_max = 0;
  };
  std::vector<Session> sessions_;
};

/// `fovs` representative FoVs already through the upload codec (positions
/// at 1e-7°, θ at 0.01°), as uploads of 6–16 segments: each upload is one
/// walk from a random anchor with back-to-back segments, and the uploads
/// are in capture-time order over [start, start + length). Every upload
/// has a non-zero upload_id.
[[nodiscard]] std::vector<svg::net::UploadMessage> make_archive(
    std::size_t fovs, svg::core::TimestampMs start,
    svg::core::TimestampMs length, std::uint64_t first_video_id,
    std::uint64_t seed);

/// `n` queries: a seeded shuffle of time-tight "accident" queries (1-hour
/// window inside [start, start + length), radius 50–300 m) and
/// round(n × sweep_share) whole-window sweeps (radius 500–800 m).
[[nodiscard]] std::vector<svg::retrieval::Query> make_query_mix(
    std::size_t n, double sweep_share, svg::core::TimestampMs start,
    svg::core::TimestampMs length, std::uint64_t seed);

/// A tight query over the hour before `now` at a random place.
[[nodiscard]] svg::retrieval::Query recent_query(svg::core::TimestampMs now,
                                                 svg::util::Xoshiro256& rng);

// --- the cluster under test -------------------------------------------------

/// Per-thread tally of the node legs the benchmark's router made.
struct LegTally {
  std::uint64_t upload_legs = 0;
  std::uint64_t query_legs = 0;
  std::uint64_t leg_sum_ns = 0;  ///< legs of the current query
  std::uint64_t leg_max_ns = 0;
};
[[nodiscard]] LegTally& leg_tally();

/// Three durable nodes on the tiered index — the configuration is chosen
/// here and nowhere else — behind the benchmark's own cluster::Router over
/// Cluster::exchange_fn(), wrapped so each node leg is a "bench.leg" span
/// and is timed. Admission is on and provisioned so that it sheds nothing;
/// the compactor thread is off; WAL fsync policy is none.
class BenchCluster {
 public:
  explicit BenchCluster(const std::string& data_dir);
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  [[nodiscard]] svg::cluster::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] svg::cluster::Router& router() noexcept { return *router_; }
  [[nodiscard]] std::size_t nodes() const noexcept { return cluster_->size(); }
  [[nodiscard]] const std::string& data_dir() const noexcept {
    return data_dir_;
  }

 private:
  std::string data_dir_;
  svg::net::SimClock admission_clock_;  ///< never advanced
  std::unique_ptr<svg::cluster::Cluster> cluster_;
  std::unique_ptr<svg::cluster::Router> router_;
};

/// The retrieval settings every node and the oracle use.
[[nodiscard]] svg::retrieval::RetrievalConfig retrieval_config();

/// Route a server-side corpus through the router (no client, no link),
/// compacting every node after each `compact_every` uploads. Returns the
/// number of uploads not accepted.
std::size_t preload(BenchCluster& bc,
                    const std::vector<svg::net::UploadMessage>& archive,
                    std::size_t compact_every);

struct CompactTally {
  std::uint64_t calls = 0;
  std::uint64_t merged_runs = 0;
  std::uint64_t input_rows = 0;
};
/// One compaction round on every node ("bench.compact" root span).
void compact_all(BenchCluster& bc, CompactTally& tally);

/// One replication sweep shipping everything pending ("bench.replicate"
/// root span). Returns records applied.
std::size_t replicate(BenchCluster& bc);
/// Replicate until a sweep applies nothing and no stream lags.
std::size_t replicate_to_quiescence(BenchCluster& bc);

/// Bytes of every regular file under `dir`.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

/// fdatasync every regular file under `dir`. With fsync policy none the
/// nodes' WALs sit dirty in the page cache, and the kernel writes them back
/// about 30 s after they were written; flushing them before a timed phase
/// keeps that writeback out of it.
void flush_files(const std::string& dir);

/// Crash node `node` and rejoin it `times` times ("bench.recover" root
/// span each); records each rejoin's seconds. False when the rejoined node
/// does not hold what it held before the crash.
struct RecoverResult {
  std::vector<double> seconds;
  std::uint64_t replayed_records = 0;
  bool ok = true;
};
[[nodiscard]] RecoverResult crash_and_rejoin(BenchCluster& bc,
                                             std::size_t node, int times);

// --- the phone → router upload path ----------------------------------------

/// One client→router hop: a seeded FaultyLink in front of the benchmark's
/// router, fed by the phones' UploadQueue. Each attempt is timed from the
/// hand-off to the link until its ack is decoded; simulated airtime and
/// backoff run on a SimClock, never on the wall clock.
class UploadPath {
 public:
  UploadPath(svg::cluster::Router& router, svg::net::FaultPlan plan,
             std::uint64_t queue_seed);
  UploadPath(const UploadPath&) = delete;
  UploadPath& operator=(const UploadPath&) = delete;

  /// Deliver everything enqueued. True iff all of it was acked.
  bool drain() { return queue_.drain(attempt_fn_); }

  [[nodiscard]] svg::net::UploadQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const svg::net::UploadQueue& queue() const noexcept {
    return queue_;
  }
  [[nodiscard]] const svg::net::FaultyLink& link() const noexcept {
    return faulty_;
  }
  [[nodiscard]] const svg::net::Link& inner_link() const noexcept {
    return link_;
  }
  /// Wall time of each attempt that got an ack back, in microseconds.
  [[nodiscard]] const std::vector<double>& attempt_us() const noexcept {
    return attempt_us_;
  }
  [[nodiscard]] std::uint64_t route_calls() const noexcept {
    return route_calls_;
  }
  /// FoVs in the uploads the router accepted.
  [[nodiscard]] std::uint64_t accepted_fovs() const noexcept {
    return accepted_fovs_;
  }
  /// Decoded segments of every upload the router accepted, in order —
  /// exactly what the nodes received.
  [[nodiscard]] const std::vector<std::vector<svg::core::RepresentativeFov>>&
  accepted() const noexcept {
    return accepted_;
  }

 private:
  std::optional<svg::net::UploadAck> attempt(
      const std::vector<std::uint8_t>& bytes);

  svg::cluster::Router& router_;
  svg::net::SimClock clock_;
  svg::net::Link link_;
  svg::net::FaultyLink faulty_;
  svg::net::UploadQueue queue_;
  svg::net::UploadQueue::AttemptFn attempt_fn_;
  std::vector<double> attempt_us_;
  std::uint64_t route_calls_ = 0;
  std::uint64_t accepted_fovs_ = 0;
  std::vector<std::vector<svg::core::RepresentativeFov>> accepted_;
};

/// A phone: segments one recording with MobileClient and hands the upload
/// to the queue ("bench.client" span: segmentation, abstraction and the
/// upload encoding). Accumulates the phone-side counts.
struct ClientTally {
  std::uint64_t recordings = 0;
  std::uint64_t frames = 0;
  std::uint64_t frames_repaired = 0;
  std::uint64_t fovs = 0;
  std::uint64_t cpu_ns = 0;  ///< every replay
  double video_s = 0.0;      ///< every replay
  /// Per library recording (SessionPool index): its video seconds and the
  /// fastest of its replays; 0 while it has not been replayed.
  std::vector<double> session_video_s;
  std::vector<double> session_best_ns;

  /// Phone time per second of video over the library: each recording
  /// replayed in the run counts once, at its fastest replay. A replay is
  /// the same fixed work every time (a fresh MobileClient over the same
  /// frames), and its replays are spread over the whole run, so the
  /// fastest is the one the host's neighbours slowed least. The mean over
  /// every replay is printed beside it.
  [[nodiscard]] double us_per_video_s() const;
};
void record_and_enqueue(const svg::core::SimilarityModel& model,
                        std::uint64_t video_id, std::size_t session,
                        std::span<const svg::core::FovRecord> records,
                        svg::net::UploadQueue& queue, ClientTally& tally);

/// One investigator query through the benchmark's router ("bench.query"
/// root span).
struct QueryOutcome {
  std::vector<svg::retrieval::RankedResult> hits;
  bool complete = false;
  std::uint64_t ns = 0;
  std::uint64_t legs = 0;
  std::uint64_t leg_sum_ns = 0;
  std::uint64_t leg_max_ns = 0;
};
[[nodiscard]] QueryOutcome run_query(BenchCluster& bc,
                                     const svg::retrieval::Query& q);

/// Exact equality of two ranked lists (identity, interval, and the ranking
/// doubles bit for bit).
[[nodiscard]] bool same_results(
    const std::vector<svg::retrieval::RankedResult>& a,
    const std::vector<svg::retrieval::RankedResult>& b);

// --- host -------------------------------------------------------------------

/// Host-speed probe: a fixed, seeded, in-cache block of 512
/// SimilarityModel evaluations, timed between operations all through a run
/// so a reader can tell host drift from a code change.
class HostProbe {
 public:
  HostProbe();
  /// Time one block; returns the nanoseconds it took.
  std::uint64_t sample();
  [[nodiscard]] double median_ns() const;

 private:
  svg::core::SimilarityModel model_;
  std::vector<std::pair<svg::core::FoV, svg::core::FoV>> pairs_;
  std::vector<double> ns_;
  double sink_ = 0.0;
};

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace e2ebench
