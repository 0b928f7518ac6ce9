// Micro-benchmarks (google-benchmark) for the hot kernels behind every
// paper number: similarity evaluation, the per-frame segmentation step,
// R-tree insert/query, wire encode/decode, frame differencing, and the
// tiered index's columnar scan kernels vs their scalar AoS equivalents.
// These are the per-operation costs that the figure-level benches
// aggregate.
//
// Beyond the google-benchmark registry, two flags drive the columnar
// kernel acceptance gate:
//   --gate  hand-rolled best-of-attempts throughput comparison; exit 1
//           unless the columnar range scan AND the serving composition
//           (scan_range, then the orientation test on the hits' columns)
//           both beat their scalar AoS counterparts on rows/s (the SoA
//           layout + branch-free append exist for exactly this)
//   --json  machine-readable kernel throughputs — the generator for
//           BENCH_kernels.json, the committed record of what this box
//           measured when the gate last passed
// Both flags bypass the google-benchmark runner; without them the binary
// behaves as before.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/segmentation.hpp"
#include "core/similarity.hpp"
#include "cv/renderer.hpp"
#include "cv/similarity.hpp"
#include "geo/geodesy.hpp"
#include "geo/sector.hpp"
#include "index/columnar.hpp"
#include "index/fov_index.hpp"
#include "net/wire.hpp"
#include "sim/crowd.hpp"
#include "sim/sensors.hpp"
#include "sim/trajectory.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace svg;

const core::CameraIntrinsics kCam{30.0, 100.0};

void BM_FovSimilarity(benchmark::State& state) {
  const core::SimilarityModel model(kCam);
  const core::FoV f1{{39.9042, 116.4074}, 15.0};
  const core::FoV f2{{39.9045, 116.4079}, 40.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.similarity(f1, f2));
  }
}
BENCHMARK(BM_FovSimilarity);

void BM_SegmenterPush(benchmark::State& state) {
  // A sampled 60 s walk, as Fig. 6(a) records it: splits are as rare as on
  // a phone, so this times the steady no-split step. Replaying the walk
  // from its start adds one split per pass.
  const core::SimilarityModel model(kCam);
  core::StreamingAbstractionPipeline pipe(model, {0.5}, 1);
  const sim::StraightTrajectory walk({39.9042, 116.4074}, 0.0, 1.4, 60.0);
  util::Xoshiro256 rng(7);
  const auto records = sim::SensorSampler({}, {30.0, 0}).sample(walk, rng);
  std::size_t i = 0;
  std::int64_t splits = 0;
  for (auto _ : state) {
    const auto closed = pipe.push(records[i]);
    splits += closed.has_value();
    benchmark::DoNotOptimize(closed);
    if (++i == records.size()) i = 0;
  }
  state.counters["frames_per_split"] =
      static_cast<double>(state.iterations()) /
      static_cast<double>(std::max<std::int64_t>(splits, 1));
}
BENCHMARK(BM_SegmenterPush);

void BM_RTreeInsert(benchmark::State& state) {
  sim::CityModel city;
  util::Xoshiro256 rng(2);
  const auto reps = sim::random_representative_fovs(
      static_cast<std::size_t>(state.range(0)), city, 0, 86'400'000, rng);
  for (auto _ : state) {
    index::FovIndex idx;
    for (const auto& r : reps) idx.insert(r);
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000);

void BM_RTreeQuery(benchmark::State& state) {
  sim::CityModel city;
  util::Xoshiro256 rng(3);
  const auto reps = sim::random_representative_fovs(
      static_cast<std::size_t>(state.range(0)), city, 0, 86'400'000, rng);
  index::FovIndex idx;
  for (const auto& r : reps) idx.insert(r);
  std::vector<index::GeoTimeRange> queries;
  for (int i = 0; i < 64; ++i) {
    const auto c = city.random_point(rng);
    queries.push_back({c.lng - 0.002, c.lng + 0.002, c.lat - 0.002,
                       c.lat + 0.002,
                       static_cast<core::TimestampMs>(rng.bounded(80'000'000)),
                       static_cast<core::TimestampMs>(80'000'000 +
                                                      rng.bounded(6'000'000))});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    idx.query(queries[i++ & 63],
              [&](const core::RepresentativeFov&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeQuery)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_LinearQuery(benchmark::State& state) {
  sim::CityModel city;
  util::Xoshiro256 rng(4);
  const auto reps = sim::random_representative_fovs(
      static_cast<std::size_t>(state.range(0)), city, 0, 86'400'000, rng);
  index::LinearIndex idx;
  for (const auto& r : reps) idx.insert(r);
  const auto c = city.center;
  const index::GeoTimeRange q{c.lng - 0.002, c.lng + 0.002, c.lat - 0.002,
                              c.lat + 0.002, 0, 86'400'000};
  for (auto _ : state) {
    std::size_t hits = 0;
    idx.query(q, [&](const core::RepresentativeFov&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_LinearQuery)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_WireEncodeUpload(benchmark::State& state) {
  sim::CityModel city;
  util::Xoshiro256 rng(5);
  net::UploadMessage msg;
  msg.video_id = 1;
  for (const auto& r :
       sim::random_representative_fovs(64, city, 0, 86'400'000, rng)) {
    msg.segments.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_upload(msg));
  }
}
BENCHMARK(BM_WireEncodeUpload);

void BM_WireDecodeUpload(benchmark::State& state) {
  sim::CityModel city;
  util::Xoshiro256 rng(6);
  net::UploadMessage msg;
  msg.video_id = 1;
  for (const auto& r :
       sim::random_representative_fovs(64, city, 0, 86'400'000, rng)) {
    msg.segments.push_back(r);
  }
  const auto bytes = net::encode_upload(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_upload(bytes));
  }
}
BENCHMARK(BM_WireDecodeUpload);

void BM_FrameDifference(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int h = w * 3 / 4;
  util::Xoshiro256 rng(7);
  cv::Frame a(w, h), b(w, h);
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    a.data()[i] = static_cast<std::uint8_t>(rng.bounded(256));
    b.data()[i] = static_cast<std::uint8_t>(rng.bounded(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cv::frame_difference_similarity(a, b));
  }
  state.SetBytesProcessed(state.iterations() * a.pixel_count() * 2);
}
BENCHMARK(BM_FrameDifference)->Arg(320)->Arg(640)->Arg(1280);

// --- columnar scan kernels vs the scalar AoS path ----------------------
// Same rows, same predicates, two layouts. The range row: FovColumns +
// the branch-free scan_range against an AoS RepresentativeFov vector
// walked with the early-exit per-row test the R-tree leaf visitor
// performs. The sight row is what serves a query: the tiered index's
// scan_range and then geo::sight on the hits' position and heading
// columns (FovColumns::sight_at), against the engine's path for an AoS
// index — per row, the range test, then direction_of_azimuth(θ) and the
// same geo::sight.

struct KernelFixture {
  index::FovColumns cols;
  std::vector<core::RepresentativeFov> rows;
  index::GeoTimeRange range{};
  geo::SightTest sight{{}, 0.0, 0.0};

  explicit KernelFixture(std::size_t n) {
    sim::CityModel city;
    util::Xoshiro256 rng(42);
    const auto reps = sim::random_representative_fovs(
        n, city, 1'400'000'000'000, 24LL * 3600 * 1000, rng);
    cols.reserve(n);
    for (const auto& rep : reps) cols.push_back(rep);
    rows = reps;
    // ~1 km box, ~7 h window: enough survivors that the append path is
    // exercised, enough misses that the predicate actually filters.
    const auto c = city.center;
    range = {c.lng - 0.006, c.lng + 0.006, c.lat - 0.006, c.lat + 0.006,
             1'400'000'000'000, 1'400'000'000'000 + 25'000'000};
    const core::CameraIntrinsics cam{};
    sight = geo::SightTest(c, cam.radius_m, cam.half_angle_deg + 5.0);
  }

  [[nodiscard]] std::size_t aos_scan_range(
      std::vector<std::uint32_t>& out) const {
    const std::size_t before = out.size();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      if (r.fov.p.lng < range.lng_min || r.fov.p.lng > range.lng_max ||
          r.fov.p.lat < range.lat_min || r.fov.p.lat > range.lat_max ||
          r.t_end < range.t_start || r.t_start > range.t_end) {
        continue;
      }
      out.push_back(static_cast<std::uint32_t>(i));
    }
    return out.size() - before;
  }

  [[nodiscard]] std::size_t columnar_scan_sight(
      std::vector<std::uint32_t>& out) const {
    const std::size_t before = out.size();
    index::scan_range(cols, 0, static_cast<std::uint32_t>(cols.size()),
                      range, out);
    std::size_t w = before;
    for (std::size_t i = before; i < out.size(); ++i) {
      const std::uint32_t r = out[i];
      out[w] = r;
      w += static_cast<std::size_t>(cols.sight_at(r, sight).seen);
    }
    out.resize(w);
    return w - before;
  }

  [[nodiscard]] std::size_t aos_scan_sight(
      std::vector<std::uint32_t>& out) const {
    const std::size_t before = out.size();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      if (r.fov.p.lng < range.lng_min || r.fov.p.lng > range.lng_max ||
          r.fov.p.lat < range.lat_min || r.fov.p.lat > range.lat_max ||
          r.t_end < range.t_start || r.t_start > range.t_end) {
        continue;
      }
      if (sight.of(r.fov.p, r.fov.theta_deg).seen) {
        out.push_back(static_cast<std::uint32_t>(i));
      }
    }
    return out.size() - before;
  }
};

const KernelFixture& kernel_fixture() {
  static const KernelFixture fixture(1'000'000);
  return fixture;
}

void BM_ColumnarScanRange(benchmark::State& state) {
  const auto& f = kernel_fixture();
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(index::scan_range(
        f.cols, 0, static_cast<std::uint32_t>(f.cols.size()), f.range,
        out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.cols.size()));
}
BENCHMARK(BM_ColumnarScanRange);

void BM_AosScanRange(benchmark::State& state) {
  const auto& f = kernel_fixture();
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(f.aos_scan_range(out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.rows.size()));
}
BENCHMARK(BM_AosScanRange);

void BM_ColumnarScanSight(benchmark::State& state) {
  const auto& f = kernel_fixture();
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(f.columnar_scan_sight(out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.cols.size()));
}
BENCHMARK(BM_ColumnarScanSight);

void BM_AosScanSight(benchmark::State& state) {
  const auto& f = kernel_fixture();
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(f.aos_scan_sight(out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.rows.size()));
}
BENCHMARK(BM_AosScanSight);

// --- hand-rolled gate path ---------------------------------------------

struct KernelThroughput {
  double columnar_rows_per_us = 0;
  double aos_rows_per_us = 0;
  std::size_t hits = 0;
};

template <typename ColumnarFn, typename AosFn>
KernelThroughput measure_kernel(const KernelFixture& f, ColumnarFn col,
                                AosFn aos, int attempts) {
  KernelThroughput t;
  std::vector<std::uint32_t> out;
  out.reserve(f.cols.size());
  constexpr int kReps = 8;
  std::size_t col_hits = 0, aos_hits = 0;
  for (int a = 0; a < attempts; ++a) {
    util::Stopwatch sw;
    for (int r = 0; r < kReps; ++r) {
      out.clear();
      col_hits = col(out);
    }
    const double col_us = sw.elapsed_us() / kReps;
    t.columnar_rows_per_us = std::max(
        t.columnar_rows_per_us, static_cast<double>(f.cols.size()) / col_us);
  }
  for (int a = 0; a < attempts; ++a) {
    util::Stopwatch sw;
    for (int r = 0; r < kReps; ++r) {
      out.clear();
      aos_hits = aos(out);
    }
    const double aos_us = sw.elapsed_us() / kReps;
    t.aos_rows_per_us = std::max(
        t.aos_rows_per_us, static_cast<double>(f.rows.size()) / aos_us);
  }
  if (col_hits != aos_hits) {
    std::cerr << "kernel gate: layouts disagree (columnar " << col_hits
              << " hits, aos " << aos_hits << ")\n";
    std::exit(1);
  }
  t.hits = col_hits;
  return t;
}

int run_kernel_gate(bool gate, bool json, int attempts) {
  const auto& f = kernel_fixture();
  const auto range = measure_kernel(
      f,
      [&](std::vector<std::uint32_t>& out) {
        return index::scan_range(
            f.cols, 0, static_cast<std::uint32_t>(f.cols.size()), f.range,
            out);
      },
      [&](std::vector<std::uint32_t>& out) { return f.aos_scan_range(out); },
      attempts);
  const auto sight = measure_kernel(
      f,
      [&](std::vector<std::uint32_t>& out) {
        return f.columnar_scan_sight(out);
      },
      [&](std::vector<std::uint32_t>& out) { return f.aos_scan_sight(out); },
      attempts);

  if (json) {
    std::cout << "{\n"
              << "  \"note\": \"regenerate: build/bench/bench_micro_kernels"
                 " --json\",\n"
              << "  \"workload\": {\"rows\": " << f.cols.size()
              << ", \"attempts\": " << attempts << "},\n"
              << "  \"kernels\": [\n"
              << "    {\"kernel\": \"scan_range\", \"columnar_rows_per_us\": "
              << range.columnar_rows_per_us << ", \"aos_rows_per_us\": "
              << range.aos_rows_per_us << ", \"speedup\": "
              << range.columnar_rows_per_us / range.aos_rows_per_us
              << ", \"hits\": " << range.hits << "},\n"
              << "    {\"kernel\": \"scan_range+sight\", "
                 "\"columnar_rows_per_us\": "
              << sight.columnar_rows_per_us << ", \"aos_rows_per_us\": "
              << sight.aos_rows_per_us << ", \"speedup\": "
              << sight.columnar_rows_per_us / sight.aos_rows_per_us
              << ", \"hits\": " << sight.hits << "}\n"
              << "  ]\n}\n";
  } else {
    std::cout << "scan_range:       columnar " << range.columnar_rows_per_us
              << " rows/us vs aos " << range.aos_rows_per_us << " ("
              << range.columnar_rows_per_us / range.aos_rows_per_us
              << "x), " << range.hits << " hits\n"
              << "scan_range+sight: columnar " << sight.columnar_rows_per_us
              << " rows/us vs aos " << sight.aos_rows_per_us << " ("
              << sight.columnar_rows_per_us / sight.aos_rows_per_us
              << "x), " << sight.hits << " hits\n";
  }
  if (gate) {
    if (range.columnar_rows_per_us <= range.aos_rows_per_us ||
        sight.columnar_rows_per_us <= sight.aos_rows_per_us) {
      std::cerr << "gate: FAIL — columnar kernels must beat the scalar AoS "
                   "path on rows/s\n";
      return 1;
    }
    std::cerr << "gate: PASS\n";
  }
  return 0;
}

void BM_RenderFrame(benchmark::State& state) {
  util::Xoshiro256 rng(8);
  const auto world = cv::World::random_city(500, 500.0, rng);
  cv::RenderOptions opt;
  opt.resolution = {static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(0)) * 3 / 4};
  const cv::SceneRenderer renderer(world, kCam,
                                   geo::LocalFrame({39.9, 116.4}), opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderer.render_local({0, 0}, 45.0));
  }
}
BENCHMARK(BM_RenderFrame)->Arg(320)->Arg(640);

}  // namespace

int main(int argc, char** argv) {
  bool gate = false, json = false;
  int attempts = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--attempts") == 0 && i + 1 < argc) {
      attempts = std::atoi(argv[i + 1]);
    }
  }
  if (gate || json) return run_kernel_gate(gate, json, attempts);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
