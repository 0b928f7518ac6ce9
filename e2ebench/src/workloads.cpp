#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "harness.hpp"
#include "index/fov_index.hpp"
#include "net/client.hpp"
#include "obs/trace.hpp"

namespace e2ebench {

using svg::core::FovRecord;
using svg::core::RepresentativeFov;
using svg::core::TimestampMs;
using svg::retrieval::Query;
using svg::retrieval::RankedResult;

namespace {

// --- sizes (per second of --seconds, or absolute) ---------------------------

// The library of raw recordings the phones replay is the same for every
// seed: a few heavy recordings (a fast pan yields many segments) would
// otherwise swing FoVs per upload, phone CPU and memory by 15 % from seed
// to seed. The seed still picks each phone's recording, time, place, link
// faults and queries.
constexpr std::size_t kPoolSessions = 256;
constexpr std::uint64_t kPoolSeed = 0x706f6f6c;
constexpr int kRecoverRepeats = 9;
constexpr std::uint64_t kArchiveVideoBase = 1'000'000'000;

// upload_day: a crowd's recordings, one phone after another.
constexpr double kDayPhonesPerSecond = 1500;
constexpr std::size_t kDayPreloadFovs = 30'000;  // the two hours before
constexpr std::size_t kDayQueryEvery = 2;  // uploads per trickle query
constexpr std::size_t kDayReplicateEvery = 2048;
constexpr std::size_t kDayCompactEvery = 1024;
constexpr double kDayLinkDrop = 0.05;
constexpr double kDayLinkDuplicate = 0.05;
constexpr int kDaySetups = 9;  // ~0.15 s each

// query_city: one investigator against an archive larger than L3.
constexpr std::size_t kCityArchiveFovs = 1'000'000;
constexpr double kCityQueriesPerSecond = 2500;
constexpr double kSweepShare = 0.05;
constexpr std::size_t kCityQueriesPerUpload = 10;
// The trickle replays the first 64 library recordings, ~80 times each in a
// 20 s run, so that each has a replay in a quiet stretch of the host.
constexpr std::size_t kCityTrickleSessions = 64;
constexpr std::size_t kArchiveCompactEvery = 2048;
constexpr std::size_t kOracleSample = 256;
constexpr int kCitySetups = 3;  // ~5.5 s each
// The query stream is kCityPasses passes over the same queries. Between two
// runs of one query a whole pass (thousands of queries over a 105 MiB
// archive) goes by, so no run finds the previous one's data in cache; the
// nodes keep no result cache.
constexpr std::size_t kCityPasses = 20;
constexpr std::size_t kCityChunkQueries = 125;

// upload_day's timing windows (see kFastWindow). A latency window holds
// 1000 samples, so its p99 has ten beyond it. A rate window is a fixed
// amount of work: kDayReplicateEvery phones with their queries, one
// replication round and two compactions.
constexpr std::size_t kLatencyWindow = 1000;

constexpr std::size_t kTraceDrainEvery = 512;

/// Spans whose self time the per-layer output reports.
const char* const kProfiledSpans[] = {
    "bench.client",       "bench.link",        "bench.codec",
    "bench.leg",          "server.upload",     "server.admit",
    "server.ingest",      "server.dedup_claim", "server.query",
    "cluster.route",      "cluster.fanout",    "cluster.replicate",
    "wal.append",         "bench.recover",     "index.insert",
    "index.seal",         "index.compact",     "index.query",
    "retrieval.search",   "retrieval.range_search",
    "retrieval.filter",   "retrieval.rank"};

std::size_t per_second(double rate, const Options& o, std::size_t floor) {
  return std::max<std::size_t>(
      floor, static_cast<std::size_t>(std::llround(rate * o.seconds)));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- tracing ----------------------------------------------------------------

/// Keeps spans in memory for a traced pass: the tracer's ring is drained
/// into a Profile every few hundred requests, and tracing is switched off
/// again at stop(). Only the driver thread emits spans.
class TraceCollector {
 public:
  explicit TraceCollector(bool on) : on_(on) {
    if (!on_) return;
    svg::obs::TracerConfig cfg;
    cfg.enabled = true;
    cfg.sample_every = 1;
    cfg.slow_ns = std::numeric_limits<std::uint64_t>::max();
    cfg.ring_slots = 8192;
    cfg.slow_ring_slots = 1;
    cfg.max_spans = std::size_t{1} << 17;  // a replication round is large
    svg::obs::tracer().configure(cfg);
  }
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;
  ~TraceCollector() { stop(); }

  /// Fold every trace completed since the last drain, and empty the ring.
  void drain() {
    if (!on_) return;
    for (const svg::obs::TracePtr& t : svg::obs::tracer().ring().snapshot()) {
      profile_.add(*t);
      ++folded_;
    }
    svg::obs::tracer().ring().clear();
  }

  /// Fold the rest and switch tracing off.
  void stop() {
    if (!on_) return;
    drain();
    lost_ = svg::obs::tracer().ring().pushed() - folded_;
    svg::obs::tracer().configure(svg::obs::TracerConfig{});
    on_ = false;
  }

  [[nodiscard]] Profile& profile() noexcept { return profile_; }
  [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }

 private:
  bool on_;
  Profile profile_;
  std::uint64_t folded_ = 0;
  std::uint64_t lost_ = 0;
};

// --- the tallies every workload fills ---------------------------------------

/// The timed queries.
struct QueryTally {
  std::vector<double> us;
  std::uint64_t queries = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t legs = 0;
  std::vector<double> leg_max_over_sum;

  void note(const QueryOutcome& q) {
    ++queries;
    us.push_back(static_cast<double>(q.ns) / 1e3);
    if (!q.complete) ++incomplete;
    legs += q.legs;
    if (q.leg_sum_ns > 0) {
      leg_max_over_sum.push_back(static_cast<double>(q.leg_max_ns) /
                                 static_cast<double>(q.leg_sum_ns));
    }
  }
};

struct Tallies {
  std::vector<double> setup_s;
  ClientTally client;
  std::vector<double> upload_us;
  std::uint64_t ingest_ns = 0;  ///< upload path + replication + compaction
  std::uint64_t acked_fovs = 0;   ///< accepted in the timed phase
  std::uint64_t stored_fovs = 0;  ///< everything the nodes hold
  QueryTally q;
  WindowedRatio query_qps;
  /// query_city only, whose stream is passes over the same queries in the
  /// same order: each distinct query's fastest run, and each chunk's
  /// (kCityChunkQueries consecutive queries with their trickle uploads)
  /// fastest pass, in seconds.
  std::vector<double> best_query_us;
  std::vector<double> best_chunk_s;
  std::uint64_t upload_legs = 0;
  std::uint64_t route_calls = 0;
  std::uint64_t replicated = 0;
  CompactTally compact;
  std::uint64_t disk_bytes = 0;
  std::uint64_t uplink_bytes = 0;
  svg::net::UploadQueueStats queue;
  svg::net::FaultStats link;
  std::uint64_t shed = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t seals = 0;
  std::uint64_t compactions = 0;
  double runs_per_node = 0.0;
  RecoverResult recover;
  double peak_rss_mb = 0.0;
  HostProbe probe;

  /// Close one timing window of the rate metrics. `phase_ns` is the timed
  /// phase's wall time so far, the benchmark's own work (input generation,
  /// host probes) taken out.
  void mark_window(std::uint64_t phase_ns) {
    query_qps.mark(static_cast<double>(q.queries),
                   static_cast<double>(phase_ns) / 1e9);
  }

  /// Everything read once the timed phase is over: the upload path's
  /// counts, the FoVs accepted and held, and the nodes' state. Called
  /// before the benchmark builds the oracle's inputs, whose allocations
  /// would otherwise land in peak_rss_mb.
  void note_phase_end(const UploadPath& path, BenchCluster& bc,
                      const std::vector<svg::net::UploadMessage>& preloaded,
                      std::uint64_t legs_before) {
    upload_us = path.attempt_us();
    upload_legs = leg_tally().upload_legs - legs_before;
    queue = path.queue().stats();
    link = path.link().stats();
    uplink_bytes = path.inner_link().stats().bytes_up;
    route_calls = path.route_calls();
    acked_fovs = path.accepted_fovs();
    stored_fovs = acked_fovs;
    for (const auto& m : preloaded) stored_fovs += m.segments.size();
    std::size_t up = 0;
    std::uint64_t runs = 0;
    for (std::size_t i = 0; i < bc.nodes(); ++i) {
      const svg::net::CloudServer* s = bc.cluster().node(i);
      if (s == nullptr) continue;
      ++up;
      shed += s->stats().uploads_shed;
      wal_records += s->last_wal_seq();
      if (const auto ts = s->tiered_run_stats()) {
        seals += ts->seals;
        compactions += ts->compactions;
        runs += ts->runs.size();
      }
    }
    runs_per_node = ratio(static_cast<double>(runs), static_cast<double>(up));
    disk_bytes = dir_bytes(bc.data_dir());
    peak_rss_mb = peak_rss_mib() * 1024.0 * 1024.0 / 1e6;
  }
};

/// Shared by every pass: where its files go, and the failure book.
class Pass {
 public:
  Pass(const Options& opt, PassResult& out)
      : out_(out),
        nodes_dir_(opt.run_dir + "/nodes"),
        scratch_dir_(opt.run_dir + "/scratch") {
    std::filesystem::create_directories(scratch_dir_);
  }

  void fail(std::string what) {
    out_.correct = false;
    ++out_.failed;
    out_.failures.push_back(std::move(what));
  }

  /// Build the cluster from empty directories `setups` times, keeping the
  /// last; `load` preloads and warms it. Each build's wall time, node
  /// start-up to ready, is a setup_s sample. The kept cluster's files are
  /// then flushed to disk, untimed.
  template <typename Load>
  std::unique_ptr<BenchCluster> set_up(int setups, Tallies& t, Load&& load) {
    std::unique_ptr<BenchCluster> bc;
    for (int s = 0; s < setups; ++s) {
      bc.reset();
      std::error_code ec;
      std::filesystem::remove_all(nodes_dir_, ec);
      const auto t0 = Clock::now();
      bc = std::make_unique<BenchCluster>(nodes_dir_);
      load(*bc);
      t.setup_s.push_back(static_cast<double>(ns_since(t0)) / 1e9);
      t.probe.sample();
    }
    flush_files(bc->data_dir());
    return bc;
  }

  [[nodiscard]] const std::string& scratch() const { return scratch_dir_; }

 private:
  PassResult& out_;
  std::string nodes_dir_;
  std::string scratch_dir_;
};

/// Set-up work users pay once per deployment, timed in setup_s: the
/// client code path and the query path are run once before timing.
void warm_up(BenchCluster& bc, const SessionPool& pool,
             const svg::core::SimilarityModel& model, std::uint64_t seed) {
  svg::util::Xoshiro256 rng(seed);
  std::vector<FovRecord> buf;
  for (std::size_t k = 0; k < 4; ++k) {
    pool.materialize(k % pool.size(), kDayStart, rng, buf);
    svg::net::MobileClient client(0, model, svg::core::SegmenterConfig{});
    (void)svg::net::capture_session(client, buf);
  }
  for (const Query& q : make_query_mix(128, kSweepShare, kDayStart, kDayMs,
                                       derive_seed(seed, 1))) {
    (void)run_query(bc, q);
  }
}

std::vector<RepresentativeFov> flatten(
    const std::vector<svg::net::UploadMessage>& msgs) {
  std::vector<RepresentativeFov> out;
  for (const auto& m : msgs) {
    out.insert(out.end(), m.segments.begin(), m.segments.end());
  }
  return out;
}

/// Capture start times of `n` recordings spread over the day, in order —
/// the order the phones upload in.
std::vector<TimestampMs> capture_starts(std::size_t n, std::uint64_t seed) {
  svg::util::Xoshiro256 rng(seed);
  std::vector<TimestampMs> starts(n);
  for (TimestampMs& s : starts) {
    s = kDayStart + static_cast<TimestampMs>(rng.bounded(kDayMs));
  }
  std::sort(starts.begin(), starts.end());
  return starts;
}

/// A query result recorded in the timed phase, checked afterwards.
struct Logged {
  Query q;
  std::vector<RankedResult> hits;
  std::size_t accepted = 0;  ///< accepted uploads when it ran
};

/// The oracle: an index::FovIndex + RetrievalEngine over the same
/// wire-decoded FoVs the nodes received — `base`, then the accepted uploads
/// replayed in order — checked against each logged query at the point in
/// the upload stream where it ran.
void check_logged(Pass& pass, const std::vector<RepresentativeFov>& base,
                  const std::vector<std::vector<RepresentativeFov>>& accepted,
                  const std::vector<Logged>& log) {
  svg::index::FovIndex oracle = svg::index::FovIndex::bulk_load(base);
  const svg::retrieval::RetrievalEngine<svg::index::FovIndex> engine(
      oracle, retrieval_config(), nullptr);
  std::size_t pos = 0;
  std::size_t mismatches = 0;
  for (const Logged& l : log) {
    while (pos < l.accepted && pos < accepted.size()) {
      for (const RepresentativeFov& r : accepted[pos++]) oracle.insert(r);
    }
    if (!same_results(l.hits, engine.search(l.q))) ++mismatches;
  }
  if (mismatches > 0) {
    pass.fail(std::to_string(mismatches) + " of " +
              std::to_string(log.size()) +
              " checked queries differ from the FovIndex oracle");
  }
}

// --- end-to-end and count metrics -------------------------------------------

void fill_metrics(const Tallies& t, PassResult& out) {
  auto e2e = [&](const char* name, double v, const char* unit,
                 std::uint64_t n) {
    out.end_to_end.push_back({name, v, unit, n});
  };
  auto ungated = [&](const char* name, double v, const char* unit,
                     std::uint64_t n) {
    out.ungated.push_back({name, v, unit, n});
  };
  const auto acked = static_cast<double>(t.acked_fovs);
  const auto latency = [](const std::vector<double>& v, double q) {
    return windowed_percentile(v, kLatencyWindow, q);
  };
  // upload_day's queries are each run once: windows of its one stream.
  // query_city runs each query once per pass: the fastest run of each.
  const bool passes = !t.best_query_us.empty();
  const std::vector<double>& query_us = passes ? t.best_query_us : t.q.us;
  const auto query_latency = [&](double q) {
    return passes ? percentile(query_us, q) : latency(query_us, q);
  };
  double best_pass_s = 0.0;
  for (const double s : t.best_chunk_s) best_pass_s += s;
  e2e("setup_s", percentile(t.setup_s, 0.5), "s", t.setup_s.size());
  e2e("client_us_per_video_s", t.client.us_per_video_s(), "us/s",
      t.client.recordings);
  e2e("query_p50_us", query_latency(0.5), "us", query_us.size());
  e2e("query_p99_us", query_latency(0.99), "us", query_us.size());
  e2e("query_qps",
      passes ? ratio(static_cast<double>(query_us.size()), best_pass_s)
             : t.query_qps.fast(true),
      "1/s", t.q.queries);
  e2e("uplink_bytes_per_fov",
      ratio(static_cast<double>(t.uplink_bytes), acked), "B", t.acked_fovs);
  e2e("disk_bytes_per_fov",
      ratio(static_cast<double>(t.disk_bytes),
            static_cast<double>(t.stored_fovs)),
      "B", t.stored_fovs);
  e2e("peak_rss_mb", t.peak_rss_mb, "MB", 1);
  ungated("upload_p50_us", latency(t.upload_us, 0.5), "us",
          t.upload_us.size());
  ungated("upload_p99_us", latency(t.upload_us, 0.99), "us",
          t.upload_us.size());
  // The whole phase: replication rounds and compactions grow through the
  // day, so its windows are not alike.
  ungated("ingest_fovs_per_s",
          ratio(acked, static_cast<double>(t.ingest_ns) / 1e9), "1/s",
          t.acked_fovs);
  if (!t.recover.seconds.empty()) {
    // One-shot rejoins at the end of a run, not windows: the median of them.
    ungated("recover_s", percentile(t.recover.seconds, 0.5), "s",
            t.recover.seconds.size());
  }
  out.upload_p50_us = latency(t.upload_us, 0.5);
  out.query_p50_us = query_latency(0.5);
  const auto dist = [](const char* what, const std::vector<double>& v) {
    std::string s = std::string(what) + " us, whole phase:";
    for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
      s += " p" + std::to_string(q * 100).substr(0, 4) + "=" +
           std::to_string(percentile(v, q));
    }
    return s + " (n=" + std::to_string(v.size()) + ")";
  };
  out.notes.push_back(dist("upload latency", t.upload_us));
  out.notes.push_back(dist("query latency", t.q.us));
  out.notes.push_back(
      "client us per video second, every replay: " +
      std::to_string(ratio(static_cast<double>(t.client.cpu_ns) / 1e3,
                           t.client.video_s)) +
      " (" + std::to_string(t.client.recordings) + " replays)");
  out.notes.push_back(
      passes ? "timing: fastest of " + std::to_string(kCityPasses) +
                   " passes per query and per chunk of " +
                   std::to_string(kCityChunkQueries) + " queries; " +
                   std::to_string(t.best_chunk_s.size()) + " chunks"
             : "timing windows: latency " + std::to_string(kLatencyWindow) +
                   " samples; query_qps " +
                   std::to_string(t.query_qps.windows()) + " windows");

  auto count = [&](const char* name, double v, const char* unit) {
    out.counts.push_back({name, v, unit, 1});
  };
  const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
  count("core.frames_per_fov", ratio(u64(t.client.frames), u64(t.client.fovs)),
        "count");
  count("core.frames_repaired", u64(t.client.frames_repaired), "count");
  count("net.attempts_per_upload",
        ratio(u64(t.queue.attempts), u64(t.queue.enqueued)), "count");
  count("net.link_drops", u64(t.link.dropped), "count");
  count("net.link_dups", u64(t.link.duplicated), "count");
  count("net.deduped", u64(t.queue.duplicate_acks), "count");
  count("net.exhausted", u64(t.queue.exhausted), "count");
  count("net.bytes_per_upload",
        ratio(u64(t.uplink_bytes), u64(t.queue.attempts)), "B");
  count("net.shed", u64(t.shed), "count");
  count("cluster.legs_per_upload",
        ratio(u64(t.upload_legs), u64(t.route_calls)), "count");
  count("cluster.nodes_per_query", ratio(u64(t.q.legs), u64(t.q.queries)),
        "count");
  count("cluster.leg_max_over_sum", percentile(t.q.leg_max_over_sum, 0.5),
        "ratio");
  count("cluster.replicated_records_per_fov", ratio(u64(t.replicated), acked),
        "count");
  count("store.wal_records", u64(t.wal_records), "count");
  count("store.recovered_records", u64(t.recover.replayed_records), "count");
  count("index.seals", u64(t.seals), "count");
  count("index.compactions", u64(t.compactions), "count");
  count("index.compacted_rows_per_fov", ratio(u64(t.compact.input_rows), acked),
        "count");
  count("index.runs", t.runs_per_node, "count");
  count("bench.host_ref_ns", t.probe.median_ns(), "ns");
}

void finish(Tallies& t, PassResult& out, TraceCollector& tc) {
  tc.stop();
  if (tc.lost() > 0 || tc.profile().traces() > 0) {
    out.profile = std::move(tc.profile());
    out.traces_lost = tc.lost();
  }
  out.attempted += t.queue.enqueued + t.q.queries;
  out.failed += t.queue.exhausted + t.queue.rejected + t.q.incomplete;
  if (t.queue.exhausted + t.queue.rejected > 0) {
    out.correct = false;
    out.failures.push_back("uploads exhausted or rejected");
  }
  if (t.q.incomplete > 0) {
    out.correct = false;
    out.failures.push_back("queries missed a node");
  }
  fill_metrics(t, out);
}

// --- upload_day -------------------------------------------------------------

/// A crowd's day of recordings from raw sensor streams through the whole
/// upload path into durable, replicating nodes, with a trickle of recent
/// queries; one node crashes and rejoins at the end.
void upload_day(const Options& opt, bool traced, int setups,
                PassResult& out) {
  Pass pass(opt, out);
  Tallies t;
  const std::size_t phones = per_second(kDayPhonesPerSecond, opt, 64);
  const SessionPool pool(kPoolSeed, kPoolSessions);
  const auto archive =
      make_archive(kDayPreloadFovs, kDayStart - 2 * kHourMs, 2 * kHourMs,
                   kArchiveVideoBase, derive_seed(opt.seed, 2));
  const std::vector<TimestampMs> starts =
      capture_starts(phones, derive_seed(opt.seed, 3));
  const svg::core::SimilarityModel model(svg::core::CameraIntrinsics{});
  t.probe.sample();

  auto bc = pass.set_up(setups, t, [&](BenchCluster& c) {
    if (preload(c, archive, kDayCompactEvery) != 0) {
      pass.fail("preload refused");
    }
    replicate_to_quiescence(c);
    warm_up(c, pool, model, derive_seed(opt.seed, 4));
  });

  TraceCollector tc(traced);
  svg::net::FaultPlan plan;
  plan.seed = derive_seed(opt.seed, 5);
  plan.drop = kDayLinkDrop;
  plan.duplicate = kDayLinkDuplicate;
  UploadPath path(bc->router(), plan, derive_seed(opt.seed, 6));
  const std::uint64_t legs_before = leg_tally().upload_legs;
  svg::util::Xoshiro256 qrng(derive_seed(opt.seed, 7));
  std::vector<Logged> log;
  std::vector<FovRecord> buf;
  constexpr std::size_t probe_every = 16;
  const auto phase_start = Clock::now();
  std::uint64_t bench_ns = 0;  // input generation and host probes
  for (std::size_t i = 0; i < phones; ++i) {
    const auto g0 = Clock::now();
    svg::util::Xoshiro256 prng(derive_seed(opt.seed, 1000 + i));
    const std::size_t session = prng.bounded(pool.size());
    pool.materialize(session, starts[i], prng, buf);
    bench_ns += ns_since(g0);
    {
      svg::obs::Span root = svg::obs::tracer().root_span("bench.upload");
      record_and_enqueue(model, i + 1, session, buf, path.queue(), t.client);
      const auto t0 = Clock::now();
      (void)path.drain();
      t.ingest_ns += ns_since(t0);
    }
    if ((i + 1) % kDayQueryEvery == 0) {
      const Query q = recent_query(starts[i], qrng);
      QueryOutcome res = run_query(*bc, q);
      t.q.note(res);
      log.push_back({q, std::move(res.hits), path.accepted().size()});
    }
    if ((i + 1) % kDayReplicateEvery == 0) {
      const auto t0 = Clock::now();
      t.replicated += replicate(*bc);
      t.ingest_ns += ns_since(t0);
    }
    if ((i + 1) % kDayCompactEvery == 0) {
      const auto t0 = Clock::now();
      compact_all(*bc, t.compact);
      t.ingest_ns += ns_since(t0);
    }
    if ((i + 1) % kTraceDrainEvery == 0) tc.drain();
    if ((i + 1) % probe_every == 0) bench_ns += t.probe.sample();
    if ((i + 1) % kDayReplicateEvery == 0) {
      t.mark_window(ns_since(phase_start) - bench_ns);
    }
  }
  {
    const auto t0 = Clock::now();
    t.replicated += replicate_to_quiescence(*bc);
    t.ingest_ns += ns_since(t0);
    t.mark_window(ns_since(phase_start) - bench_ns);
  }
  t.note_phase_end(path, *bc, archive, legs_before);
  const std::vector<RepresentativeFov> base = flatten(archive);

  // Every acked FoV, once, on the nodes that serve it.
  std::vector<RepresentativeFov> all = base;
  for (const auto& u : path.accepted()) all.insert(all.end(), u.begin(), u.end());
  const auto want = svg::cluster::canonical_fingerprint(std::move(all));
  auto got = bc->cluster().canonical_bytes(pass.scratch());
  if (!got || *got != want) {
    pass.fail("canonical bytes differ from the acked FoVs after replication");
  }
  // Each rejoin replays the WAL; flushed first so none races the kernel's
  // writeback of the timed phase's appends.
  flush_files(bc->data_dir());
  t.recover = crash_and_rejoin(*bc, 0, kRecoverRepeats);
  if (!t.recover.ok) pass.fail("a rejoined node lost indexed segments");
  got = bc->cluster().canonical_bytes(pass.scratch());
  if (!got || *got != want) {
    pass.fail("canonical bytes differ from the acked FoVs after rejoin");
  }
  finish(t, out, tc);
  bc.reset();
  check_logged(pass, base, path.accepted(), log);
}

// --- query_city -------------------------------------------------------------

/// One investigator's closed-loop stream — tight accident queries with a
/// few percent whole-day sweeps, shuffled — against a preloaded archive
/// larger than L3, with a trickle of phone uploads. The stream is
/// kCityPasses passes over the same queries in the same order; the
/// trickle goes on through all of them.
void query_city(const Options& opt, bool traced, int setups, PassResult& out) {
  Pass pass(opt, out);
  Tallies t;
  const std::size_t n = per_second(kCityQueriesPerSecond, opt, 200);
  const std::size_t distinct = n / kCityPasses;
  const SessionPool pool(kPoolSeed, kPoolSessions);
  const auto archive = make_archive(kCityArchiveFovs, kDayStart, kDayMs,
                                    kArchiveVideoBase, derive_seed(opt.seed, 2));
  const auto queries = make_query_mix(distinct, kSweepShare, kDayStart, kDayMs,
                                      derive_seed(opt.seed, 3));
  const svg::core::SimilarityModel model(svg::core::CameraIntrinsics{});
  const std::size_t sample_stride = std::max<std::size_t>(1, n / kOracleSample);
  t.best_query_us.assign(distinct, 0.0);
  t.best_chunk_s.assign((distinct + kCityChunkQueries - 1) / kCityChunkQueries,
                        0.0);
  t.probe.sample();

  auto bc = pass.set_up(setups, t, [&](BenchCluster& c) {
    if (preload(c, archive, kArchiveCompactEvery) != 0) {
      pass.fail("preload refused");
    }
    warm_up(c, pool, model, derive_seed(opt.seed, 4));
  });

  TraceCollector tc(traced);
  svg::net::FaultPlan clean;
  clean.seed = derive_seed(opt.seed, 5);
  UploadPath path(bc->router(), clean, derive_seed(opt.seed, 6));
  const std::uint64_t legs_before = leg_tally().upload_legs;
  svg::util::Xoshiro256 urng(derive_seed(opt.seed, 7));
  std::vector<Logged> log;
  std::vector<FovRecord> buf;
  std::uint64_t video_id = 0;
  constexpr std::size_t probe_every = 32;
  const auto keep_best = [](double& best, double v) {
    if (best == 0.0 || v < best) best = v;
  };
  std::size_t issued = 0;
  for (std::size_t p = 0; p < kCityPasses; ++p) {
    auto chunk_start = Clock::now();
    std::uint64_t bench_ns = 0;  // input generation and host probes
    for (std::size_t j = 0; j < distinct; ++j, ++issued) {
      QueryOutcome res = run_query(*bc, queries[j]);
      t.q.note(res);
      keep_best(t.best_query_us[j], static_cast<double>(res.ns) / 1e3);
      if (issued % sample_stride == sample_stride / 2) {
        log.push_back({queries[j], std::move(res.hits), path.accepted().size()});
      }
      if ((issued + 1) % kCityQueriesPerUpload == 0) {
        const auto g0 = Clock::now();
        const auto start =
            kDayStart + static_cast<TimestampMs>(urng.bounded(kDayMs));
        const std::size_t session = urng.bounded(kCityTrickleSessions);
        pool.materialize(session, start, urng, buf);
        bench_ns += ns_since(g0);
        svg::obs::Span root = svg::obs::tracer().root_span("bench.upload");
        record_and_enqueue(model, ++video_id, session, buf, path.queue(),
                           t.client);
        const auto t0 = Clock::now();
        (void)path.drain();
        t.ingest_ns += ns_since(t0);
      }
      if ((issued + 1) % kTraceDrainEvery == 0) tc.drain();
      if ((issued + 1) % probe_every == 0) bench_ns += t.probe.sample();
      if ((j + 1) % kCityChunkQueries == 0 || j + 1 == distinct) {
        keep_best(t.best_chunk_s[j / kCityChunkQueries],
                  static_cast<double>(ns_since(chunk_start) - bench_ns) / 1e9);
        chunk_start = Clock::now();
        bench_ns = 0;
      }
    }
  }
  t.note_phase_end(path, *bc, archive, legs_before);
  const std::vector<RepresentativeFov> base = flatten(archive);
  finish(t, out, tc);
  bc.reset();
  check_logged(pass, base, path.accepted(), log);
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "upload_day" || name == "query_city";
}

int timed_setups(const std::string& workload) {
  return workload == "upload_day" ? kDaySetups : kCitySetups;
}

PassResult run_pass(const Options& opt, bool traced, int setups) {
  PassResult out;
  std::filesystem::create_directories(opt.run_dir);
  if (opt.workload == "upload_day") {
    upload_day(opt, traced, setups, out);
  } else if (opt.workload == "query_city") {
    query_city(opt, traced, setups, out);
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.run_dir, ec);
  return out;
}

std::vector<Metric> per_layer(const PassResult& untraced,
                              const PassResult& traced) {
  std::vector<Metric> out = untraced.counts;
  std::map<std::string, Profile::Row> rows;
  if (traced.profile) {
    for (Profile::Row& r : traced.profile->rows()) rows[r.name] = std::move(r);
  }
  for (const char* name : kProfiledSpans) {
    const auto it = rows.find(name);
    const bool seen = it != rows.end();
    const std::uint64_t n = seen ? it->second.count : 0;
    const std::string base = name;
    out.push_back({base + ".self_p50_ns",
                   seen ? static_cast<double>(it->second.self_p50_ns) : 0.0,
                   "ns", n});
    out.push_back({base + ".self_p99_ns",
                   seen ? static_cast<double>(it->second.self_p99_ns) : 0.0,
                   "ns", n});
    out.push_back({base + ".share", seen ? it->second.share : 0.0, "ratio", n});
  }
  const auto tag_sum = [&](const char* span, const char* key) {
    const auto it = rows.find(span);
    if (it == rows.end()) return 0.0;
    const auto t = it->second.tags.find(key);
    return t == it->second.tags.end() ? 0.0
                                      : static_cast<double>(t->second.first);
  };
  const auto spans_named = [&](const char* span) {
    const auto it = rows.find(span);
    return it == rows.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double queries = spans_named("bench.query");
  const double candidates = tag_sum("retrieval.range_search", "candidates");
  out.push_back({"retrieval.candidates_per_query", ratio(candidates, queries),
                 "count", static_cast<std::uint64_t>(queries)});
  out.push_back({"retrieval.keep_ratio",
                 ratio(tag_sum("retrieval.filter", "after_filter"), candidates),
                 "ratio", static_cast<std::uint64_t>(queries)});
  out.push_back({"retrieval.returned_per_query",
                 ratio(tag_sum("retrieval.rank", "returned"), queries), "count",
                 static_cast<std::uint64_t>(queries)});
  const double up = ratio(traced.upload_p50_us, untraced.upload_p50_us);
  const double q = ratio(traced.query_p50_us, untraced.query_p50_us);
  out.push_back({"obs.trace_overhead", std::sqrt(up * q), "ratio", 2});
  return out;
}

const char* build_type() { return E2EBENCH_BUILD_TYPE; }

}  // namespace e2ebench
