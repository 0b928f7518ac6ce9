// Scenario: a city-scale deployment of the cloud side. Tens of thousands
// of representative FoVs stream in from providers all over a 5 km city
// while concurrent inquirers fire range queries; the example reports
// ingest throughput, query latency percentiles under concurrency, and the
// tiered index's advantage over a linear scan at this scale.
//
// Build & run:  ./example_city_scale_server

#include <atomic>
#include <future>
#include <iostream>

#include "net/server.hpp"
#include "sim/crowd.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace svg;
  const core::CameraIntrinsics camera{30.0, 100.0};

  sim::CityModel city;  // 5 km square
  util::Xoshiro256 rng(777);
  constexpr std::size_t kSegments = 40'000;
  const auto reps = sim::random_representative_fovs(
      kSegments, city, 1'400'000'000'000, 24LL * 3600 * 1000, rng);

  retrieval::RetrievalConfig rcfg;
  rcfg.camera = camera;
  rcfg.orientation_slack_deg = 10.0;
  rcfg.top_n = 20;
  net::CloudServer server({}, rcfg);

  // --- ingest: batched uploads of 20 segments (a finished recording) ----
  util::Stopwatch ingest_sw;
  for (std::size_t i = 0; i < reps.size(); i += 20) {
    net::UploadMessage msg;
    msg.video_id = reps[i].video_id;
    for (std::size_t j = i; j < std::min(reps.size(), i + 20); ++j) {
      msg.segments.push_back(reps[j]);
    }
    server.ingest(msg);
  }
  const double ingest_s = ingest_sw.elapsed_s();
  std::cout << "ingested " << server.indexed_segments() << " segments in "
            << util::Table::num(ingest_s, 2) << " s ("
            << util::Table::num(static_cast<double>(kSegments) / ingest_s,
                                0)
            << " segments/s)\n";

  // A server without a checkpointer cadence never compacts on its own, so
  // pack the bulk-loaded runs into one before serving — the shape a live
  // server's background compactor converges to.
  util::Stopwatch compact_sw;
  (void)server.seal_index_now();
  const std::size_t merged = server.compact_index_now(/*full=*/true);
  std::cout << "compacted " << merged << " runs in "
            << util::Table::num(compact_sw.elapsed_s(), 2) << " s\n\n";

  // --- concurrent query load --------------------------------------------
  auto make_query = [&](util::Xoshiro256& r) {
    retrieval::Query q;
    q.center = city.random_point(r);
    q.radius_m = r.chance(0.5) ? 20.0 : 100.0;
    q.t_start = 1'400'000'000'000 +
                static_cast<core::TimestampMs>(r.bounded(20LL * 3600 * 1000));
    q.t_end = q.t_start + 2LL * 3600 * 1000;
    return q;
  };

  for (const std::size_t threads : {1u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    constexpr int kQueriesPerThread = 500;
    std::vector<std::future<util::SampleSet>> futs;
    util::Stopwatch wall;
    for (std::size_t t = 0; t < threads; ++t) {
      futs.push_back(pool.submit([&, t] {
        util::Xoshiro256 qrng(1000 + t);
        util::SampleSet lat;
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const auto q = make_query(qrng);
          util::Stopwatch sw;
          const auto res = server.search(q);
          lat.add(sw.elapsed_us());
          if (res.size() > rcfg.top_n) std::abort();  // sanity
        }
        return lat;
      }));
    }
    util::SampleSet all;
    for (auto& f : futs) {
      auto s = f.get();
      for (double v : s.samples()) all.add(v);
    }
    const double wall_s = wall.elapsed_s();
    std::cout << threads << " querier(s): "
              << util::Table::num(
                     threads * kQueriesPerThread / wall_s, 0)
              << " queries/s; latency us avg="
              << util::Table::num(all.mean(), 1)
              << " p50=" << util::Table::num(all.median(), 1)
              << " p99=" << util::Table::num(all.p99(), 1)
              << " max=" << util::Table::num(all.max(), 1)
              << (all.p99() < 100'000 ? "  (<100 ms: OK)" : "  (>100 ms!)")
              << "\n";
  }

  // --- compare to a linear scan at the same scale ------------------------
  index::LinearIndex linear;
  for (const auto& r : reps) linear.insert(r);
  retrieval::RetrievalEngine<index::LinearIndex> linear_engine(linear,
                                                               rcfg);
  util::Xoshiro256 qrng(5);
  util::SampleSet lin;
  for (int i = 0; i < 100; ++i) {
    const auto q = make_query(qrng);
    util::Stopwatch sw;
    (void)linear_engine.search(q);
    lin.add(sw.elapsed_us());
  }
  std::cout << "\nlinear scan at " << kSegments
            << " segments: avg=" << util::Table::num(lin.mean(), 1)
            << " us/query";
  // Recompute a comparable server number single-threaded, same queries.
  util::SampleSet tree;
  util::Xoshiro256 qrng2(5);
  for (int i = 0; i < 100; ++i) {
    const auto q = make_query(qrng2);
    util::Stopwatch sw;
    (void)server.search(q);
    tree.add(sw.elapsed_us());
  }
  std::cout << "\ntiered index vs linear speedup at this scale: "
            << util::Table::num(lin.mean() / tree.mean(), 1) << "x\n";
  return 0;
}
