#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numbers>
#include <tuple>
#include <utility>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "cluster/wire.hpp"
#include "geo/angle.hpp"
#include "geo/geodesy.hpp"
#include "net/client.hpp"
#include "obs/trace.hpp"
#include "sim/crowd.hpp"

namespace e2ebench {

using svg::core::FovRecord;
using svg::core::RepresentativeFov;
using svg::core::TimestampMs;

namespace {

/// Share of raw frames carrying an invalid fix (NaN latitude), the garbage
/// a phone's location stack emits around cold starts; the segmenter
/// repairs them by holding the last valid fix.
constexpr double kInvalidFixShare = 0.002;

svg::geo::LatLng clamp_to_city(svg::geo::LatLng p) {
  const svg::geo::Box2 b = svg::sim::CityModel{}.bounds_deg();
  p.lng = std::clamp(p.lng, b.min[0], b.max[0]);
  p.lat = std::clamp(p.lat, b.min[1], b.max[1]);
  return p;
}

/// Rows of the runs present before a compaction and gone after it — the
/// compaction's input.
std::uint64_t removed_rows(const std::vector<svg::index::RunStats>& before,
                           const std::vector<svg::index::RunStats>& after) {
  std::map<std::tuple<std::size_t, TimestampMs, TimestampMs>, std::int64_t>
      count;
  for (const auto& r : before) ++count[{r.rows, r.ts_min, r.ts_max}];
  for (const auto& r : after) --count[{r.rows, r.ts_min, r.ts_max}];
  std::uint64_t rows = 0;
  for (const auto& [key, n] : count) {
    if (n > 0) rows += std::get<0>(key) * static_cast<std::uint64_t>(n);
  }
  return rows;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  svg::util::SplitMix64 mix(seed ^ (purpose + 1) * 0x9E3779B97F4A7C15ULL);
  mix.next();
  return mix.next();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * n));
  idx = std::clamp<std::size_t>(idx, 1, v.size()) - 1;
  return v[idx];
}

double windowed_percentile(const std::vector<double>& v, std::size_t window,
                           double q) {
  const std::size_t n = v.size();
  const std::size_t windows = std::max<std::size_t>(1, n / window);
  const auto at = [&](std::size_t k) {
    return v.begin() + static_cast<std::ptrdiff_t>(k * n / windows);
  };
  std::vector<double> per;
  per.reserve(windows);
  for (std::size_t k = 0; k < windows; ++k) {
    per.push_back(percentile(std::vector<double>(at(k), at(k + 1)), q));
  }
  return percentile(std::move(per), kFastWindow);
}

void WindowedRatio::mark(double num, double den) {
  if (num > num_ && den > den_) {
    values_.push_back((num - num_) / (den - den_));
    num_ = num;
    den_ = den;
  }
}

// --- inputs -----------------------------------------------------------------

SessionPool::SessionPool(std::uint64_t seed, std::size_t sessions) {
  svg::util::Xoshiro256 rng(seed);
  svg::sim::CrowdConfig cfg;
  cfg.providers = static_cast<std::uint32_t>(sessions);
  cfg.min_sessions = 1;
  cfg.max_sessions = 1;
  cfg.window_start = 0;
  cfg.window_length_ms = 1;  // every recording starts at t = 0
  auto crowd = svg::sim::generate_crowd(svg::sim::CityModel{}, cfg, rng);
  sessions_.reserve(crowd.size());
  for (auto& s : crowd) {
    Session out;
    out.records = std::move(s.records);
    out.lat_min = out.lng_min = std::numeric_limits<double>::max();
    out.lat_max = out.lng_max = std::numeric_limits<double>::lowest();
    for (FovRecord& rec : out.records) {
      if (rng.chance(kInvalidFixShare)) {
        rec.fov.p.lat = std::numeric_limits<double>::quiet_NaN();
        continue;
      }
      out.lat_min = std::min(out.lat_min, rec.fov.p.lat);
      out.lat_max = std::max(out.lat_max, rec.fov.p.lat);
      out.lng_min = std::min(out.lng_min, rec.fov.p.lng);
      out.lng_max = std::max(out.lng_max, rec.fov.p.lng);
    }
    sessions_.push_back(std::move(out));
  }
}

void SessionPool::materialize(std::size_t k, TimestampMs start_ms,
                              svg::util::Xoshiro256& rng,
                              std::vector<FovRecord>& out) const {
  const Session& s = sessions_[k];
  const svg::geo::Box2 b = svg::sim::CityModel{}.bounds_deg();
  const double lat_lo = b.min[1] - s.lat_min;
  const double lat_hi = b.max[1] - s.lat_max;
  const double lng_lo = b.min[0] - s.lng_min;
  const double lng_hi = b.max[0] - s.lng_max;
  const double dlat = lat_lo < lat_hi ? rng.uniform(lat_lo, lat_hi) : 0.0;
  const double dlng = lng_lo < lng_hi ? rng.uniform(lng_lo, lng_hi) : 0.0;
  out.resize(s.records.size());
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    out[i] = s.records[i];
    out[i].t += start_ms;
    out[i].fov.p.lat += dlat;
    out[i].fov.p.lng += dlng;
  }
}

std::vector<svg::net::UploadMessage> make_archive(std::size_t fovs,
                                                  TimestampMs start,
                                                  TimestampMs length,
                                                  std::uint64_t first_video_id,
                                                  std::uint64_t seed) {
  svg::util::Xoshiro256 rng(seed);
  const svg::sim::CityModel city;
  std::vector<svg::net::UploadMessage> out;
  std::size_t made = 0;
  std::uint64_t video_id = first_video_id;
  while (made < fovs) {
    svg::net::UploadMessage m;
    m.video_id = video_id++;
    const std::size_t k =
        std::min<std::size_t>(6 + rng.bounded(11), fovs - made);
    svg::geo::LatLng at = city.random_point(rng);
    TimestampMs t =
        start + static_cast<TimestampMs>(
                    rng.bounded(static_cast<std::uint64_t>(length)));
    m.segments.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      RepresentativeFov r;
      r.video_id = m.video_id;
      r.segment_id = static_cast<std::uint32_t>(s);
      r.fov.p = at;
      r.fov.theta_deg = rng.uniform(0.0, 360.0);
      r.t_start = t;
      r.t_end = t + 5'000 + static_cast<TimestampMs>(rng.bounded(25'001));
      t = r.t_end;
      m.segments.push_back(r);
      const double step = rng.uniform(10.0, 60.0);
      const double dir = rng.uniform(0.0, 2.0 * std::numbers::pi);
      at = clamp_to_city(svg::geo::offset_m(at, step * std::sin(dir),
                                            step * std::cos(dir)));
    }
    made += k;
    out.push_back(std::move(m));
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.segments.front().t_start < b.segments.front().t_start;
  });
  svg::util::SplitMix64 ids(derive_seed(seed, 0xA5C1));
  for (svg::net::UploadMessage& m : out) {
    do {
      m.upload_id = ids.next();
    } while (m.upload_id == 0);
    // The nodes index what the wire delivers: quantize once, here, so the
    // corpus the oracle sees is the corpus the nodes hold.
    m = *svg::net::decode_upload(svg::net::encode_upload(m));
  }
  return out;
}

std::vector<svg::retrieval::Query> make_query_mix(std::size_t n,
                                                  double sweep_share,
                                                  TimestampMs start,
                                                  TimestampMs length,
                                                  std::uint64_t seed) {
  svg::util::Xoshiro256 rng(seed);
  const svg::sim::CityModel city;
  const auto sweeps = static_cast<std::size_t>(
      std::llround(static_cast<double>(n) * sweep_share));
  std::vector<svg::retrieval::Query> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    svg::retrieval::Query q;
    q.center = city.random_point(rng);
    if (i < sweeps) {
      q.t_start = start;
      q.t_end = start + length;
      q.radius_m = rng.uniform(500.0, 800.0);
    } else {
      q.t_start = start + static_cast<TimestampMs>(rng.bounded(
                              static_cast<std::uint64_t>(length - kHourMs)));
      q.t_end = q.t_start + kHourMs;
      q.radius_m = rng.uniform(50.0, 300.0);
    }
    out.push_back(q);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.bounded(i)]);
  }
  return out;
}

svg::retrieval::Query recent_query(TimestampMs now,
                                   svg::util::Xoshiro256& rng) {
  svg::retrieval::Query q;
  q.center = svg::sim::CityModel{}.random_point(rng);
  q.t_start = now - kHourMs;
  q.t_end = now;
  q.radius_m = rng.uniform(50.0, 300.0);
  return q;
}

// --- the cluster under test -------------------------------------------------

LegTally& leg_tally() {
  thread_local LegTally tally;
  return tally;
}

svg::retrieval::RetrievalConfig retrieval_config() {
  svg::retrieval::RetrievalConfig c;
  c.top_n = kTopN;
  return c;
}

BenchCluster::BenchCluster(const std::string& data_dir) : data_dir_(data_dir) {
  std::filesystem::create_directories(data_dir_);
  svg::cluster::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.partition.bounds = svg::sim::CityModel{}.bounds_deg();
  cfg.index = svg::net::ServerIndexConfig(
      svg::net::ServerIndexConfig::Backend::kTiered);
  cfg.index.compact_interval_ms = 0;  // compaction only where we call it
  cfg.retrieval = retrieval_config();
  // Admission runs on every ingest but is provisioned to shed nothing: no
  // virtual-queue capacity limit, no per-client rate, no deadline, and a
  // clock that never moves — so no verdict depends on timing.
  cfg.admission.enabled = true;
  cfg.admission.clock = &admission_clock_;
  cfg.data_dir = data_dir_;
  cfg.fsync = svg::store::FsyncPolicy::kNone;
  cluster_ = std::make_unique<svg::cluster::Cluster>(cfg);

  const svg::cluster::GeoPartitioner& part = cluster_->router().partitioner();
  router_ = std::make_unique<svg::cluster::Router>(
      part, cfg.retrieval,
      svg::cluster::RoutingTable::identity(part.config().partitions),
      [exchange = cluster_->exchange_fn()](
          std::size_t node, std::span<const std::uint8_t> request) {
        svg::obs::Span span = svg::obs::tracer().span("bench.leg");
        const auto t0 = Clock::now();
        auto replies = exchange(node, request);
        const std::uint64_t ns = ns_since(t0);
        LegTally& t = leg_tally();
        if (!request.empty() &&
            request.front() == svg::cluster::kMsgQueryFanout) {
          ++t.query_legs;
          t.leg_sum_ns += ns;
          t.leg_max_ns = std::max(t.leg_max_ns, ns);
        } else {
          ++t.upload_legs;
        }
        return replies;
      });
}

std::size_t preload(BenchCluster& bc,
                    const std::vector<svg::net::UploadMessage>& archive,
                    std::size_t compact_every) {
  CompactTally ignored;
  std::size_t refused = 0;
  for (std::size_t i = 0; i < archive.size(); ++i) {
    const auto ack = bc.router().route_upload(archive[i]);
    if (!ack || ack->status != svg::net::UploadAckStatus::kAccepted) ++refused;
    if (compact_every != 0 && (i + 1) % compact_every == 0) {
      compact_all(bc, ignored);
    }
  }
  return refused;
}

void compact_all(BenchCluster& bc, CompactTally& tally) {
  svg::obs::Span root = svg::obs::tracer().root_span("bench.compact");
  ++tally.calls;
  for (std::size_t i = 0; i < bc.nodes(); ++i) {
    svg::net::CloudServer* server = bc.cluster().node(i);
    if (server == nullptr) continue;
    const auto before = server->tiered_run_stats();
    const std::size_t merged = server->compact_index_now();
    if (merged == 0 || !before) continue;
    const auto after = server->tiered_run_stats();
    tally.merged_runs += merged;
    tally.input_rows += removed_rows(before->runs, after->runs);
  }
}

std::size_t replicate(BenchCluster& bc) {
  svg::obs::Span root = svg::obs::tracer().root_span("bench.replicate");
  return bc.cluster().replicate_round(std::size_t{1} << 20);
}

std::size_t replicate_to_quiescence(BenchCluster& bc) {
  std::size_t total = 0;
  for (int round = 0; round < 64; ++round) {
    const std::size_t applied = replicate(bc);
    total += applied;
    bool lagging = false;
    for (std::size_t i = 0; i < bc.nodes(); ++i) {
      lagging = lagging || bc.cluster().replication_lag(i) > 0;
    }
    if (applied == 0 && !lagging) break;
  }
  return total;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void flush_files(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    (void)::fdatasync(fd);
    ::close(fd);
  }
}

RecoverResult crash_and_rejoin(BenchCluster& bc, std::size_t node,
                               int times) {
  RecoverResult r;
  const svg::net::CloudServer* server = bc.cluster().node(node);
  const std::size_t held = server != nullptr ? server->indexed_segments() : 0;
  for (int i = 0; i < times; ++i) {
    bc.cluster().fail_node(node);
    {
      svg::obs::Span root = svg::obs::tracer().root_span("bench.recover");
      const auto t0 = Clock::now();
      bc.cluster().rejoin_node(node);
      r.seconds.push_back(static_cast<double>(ns_since(t0)) / 1e9);
    }
    const svg::net::CloudServer* back = bc.cluster().node(node);
    if (back == nullptr || back->indexed_segments() != held) {
      r.ok = false;
      continue;
    }
    r.replayed_records = back->recovery().wal_records_replayed;
  }
  return r;
}

// --- the phone → router upload path ----------------------------------------

UploadPath::UploadPath(svg::cluster::Router& router, svg::net::FaultPlan plan,
                       std::uint64_t queue_seed)
    : router_(router),
      faulty_(link_, std::move(plan), &clock_),
      queue_(svg::net::RetryPolicy{}, queue_seed, &clock_),
      attempt_fn_([this](const std::vector<std::uint8_t>& bytes) {
        return attempt(bytes);
      }) {}

std::optional<svg::net::UploadAck> UploadPath::attempt(
    const std::vector<std::uint8_t>& bytes) {
  auto& tracer = svg::obs::tracer();
  const auto t0 = Clock::now();
  svg::net::FaultyLink::Delivery up;
  {
    svg::obs::Span span = tracer.span("bench.link");
    up = faulty_.transfer_up(bytes);
  }
  std::optional<svg::net::UploadAck> result;
  for (const auto& copy : up.copies) {
    std::optional<svg::net::UploadMessage> msg;
    {
      svg::obs::Span span = tracer.span("bench.codec");
      msg = svg::net::decode_upload(copy);
    }
    if (!msg) continue;
    ++route_calls_;
    const auto ack = router_.route_upload(*msg);
    if (!ack) continue;
    if (ack->status == svg::net::UploadAckStatus::kAccepted) {
      accepted_fovs_ += msg->segments.size();
      accepted_.push_back(std::move(msg->segments));
    }
    std::vector<std::uint8_t> ack_bytes;
    {
      svg::obs::Span span = tracer.span("bench.codec");
      ack_bytes = svg::net::encode_upload_ack(*ack);
    }
    svg::net::FaultyLink::Delivery down;
    {
      svg::obs::Span span = tracer.span("bench.link");
      down = faulty_.transfer_down(ack_bytes);
    }
    for (const auto& reply : down.copies) {
      svg::obs::Span span = tracer.span("bench.codec");
      auto decoded = svg::net::decode_upload_ack(reply);
      if (decoded && !result) result = decoded;
    }
  }
  if (result) attempt_us_.push_back(static_cast<double>(ns_since(t0)) / 1e3);
  return result;
}

void record_and_enqueue(const svg::core::SimilarityModel& model,
                        std::uint64_t video_id, std::size_t session,
                        std::span<const FovRecord> records,
                        svg::net::UploadQueue& queue, ClientTally& tally) {
  svg::obs::Span span = svg::obs::tracer().span("bench.client");
  const auto t0 = Clock::now();
  svg::net::MobileClient client(video_id, model, svg::core::SegmenterConfig{});
  const svg::net::UploadMessage msg = svg::net::capture_session(client, records);
  queue.enqueue(msg);
  const std::uint64_t ns = ns_since(t0);
  span.end();
  tally.cpu_ns += ns;
  const svg::net::ClientStats& st = client.stats();
  ++tally.recordings;
  tally.frames += st.frames_processed;
  tally.frames_repaired += st.frames_held;
  tally.fovs += msg.segments.size();
  const double video_s =
      records.empty()
          ? 0.0
          : static_cast<double>(records.back().t - records.front().t) / 1000.0;
  tally.video_s += video_s;
  if (tally.session_best_ns.size() <= session) {
    tally.session_best_ns.resize(session + 1, 0.0);
    tally.session_video_s.resize(session + 1, 0.0);
  }
  double& best = tally.session_best_ns[session];
  if (best == 0.0 || static_cast<double>(ns) < best) {
    best = static_cast<double>(ns);
  }
  tally.session_video_s[session] = video_s;
}

double ClientTally::us_per_video_s() const {
  double ns = 0.0;
  double video = 0.0;
  for (std::size_t k = 0; k < session_best_ns.size(); ++k) {
    if (session_best_ns[k] == 0.0) continue;
    ns += session_best_ns[k];
    video += session_video_s[k];
  }
  return video == 0.0 ? 0.0 : ns / 1e3 / video;
}

QueryOutcome run_query(BenchCluster& bc, const svg::retrieval::Query& q) {
  QueryOutcome out;
  LegTally& t = leg_tally();
  const std::uint64_t legs_before = t.query_legs;
  t.leg_sum_ns = 0;
  t.leg_max_ns = 0;
  {
    svg::obs::Span root = svg::obs::tracer().root_span("bench.query");
    const auto t0 = Clock::now();
    out.hits = bc.router().search(q, kTopN, &out.complete);
    out.ns = ns_since(t0);
  }
  out.legs = t.query_legs - legs_before;
  out.leg_sum_ns = t.leg_sum_ns;
  out.leg_max_ns = t.leg_max_ns;
  return out;
}

bool same_results(const std::vector<svg::retrieval::RankedResult>& a,
                  const std::vector<svg::retrieval::RankedResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RepresentativeFov& x = a[i].rep;
    const RepresentativeFov& y = b[i].rep;
    if (x.video_id != y.video_id || x.segment_id != y.segment_id ||
        x.t_start != y.t_start || x.t_end != y.t_end || !(x.fov == y.fov) ||
        a[i].distance_m != b[i].distance_m ||
        a[i].relevance != b[i].relevance) {
      return false;
    }
  }
  return true;
}

// --- host -------------------------------------------------------------------

HostProbe::HostProbe() : model_(svg::core::CameraIntrinsics{}) {
  svg::util::Xoshiro256 rng(0x686f73745f726566ULL);  // fixed on purpose
  const svg::sim::CityModel city;
  pairs_.reserve(512);
  for (int i = 0; i < 512; ++i) {
    svg::core::FoV a{city.random_point(rng), rng.uniform(0.0, 360.0)};
    svg::core::FoV b{svg::geo::offset_m(a.p, rng.uniform(-60.0, 60.0),
                                        rng.uniform(-60.0, 60.0)),
                     svg::geo::wrap_deg(a.theta_deg +
                                        rng.uniform(-40.0, 40.0))};
    pairs_.emplace_back(a, b);
  }
}

std::uint64_t HostProbe::sample() {
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (const auto& [a, b] : pairs_) acc += model_.similarity(a, b);
  const std::uint64_t ns = ns_since(t0);
  ns_.push_back(static_cast<double>(ns));
  sink_ += acc;
  return ns;
}

double HostProbe::median_ns() const { return percentile(ns_, 0.5); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace e2ebench
