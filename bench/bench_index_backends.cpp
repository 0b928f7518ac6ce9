// Extended Fig. 6(c) ablation — the kept index structures on identical
// citywide workloads: the paper's R-tree (dynamic and STR bulk-loaded),
// the naive linear scan, and the server's tiered memtable+runs index (both
// freshly ingested — many small runs — and fully compacted). Reports build
// time, per-query latency, and hits.
//
// Flags:
//   --scale N   corpus multiplier over the 30k base (default 10 → 300k
//               rows, the acceptance-gate operating point; 100 → 3M rows).
//               The linear scan is skipped above 10× — at 3M rows it only
//               measures memory bandwidth, at length.
//   --json      machine-readable output (the generator for
//               BENCH_tiered.json)
//   --gate      exit 1 unless the compacted tiered index's query p99
//               strictly beats the paper's dynamic R-tree's (best of
//               --attempts passes each, default 3 — one noisy scheduler
//               quantum must not fail CI)
//   --queries N number of query rectangles (default 400)

#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "index/fov_index.hpp"
#include "index/tiered_fov_index.hpp"
#include "sim/crowd.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace svg;

struct Row {
  std::string backend;
  double build_ms = 0;
  double query_avg_us = 0;
  double query_p99_us = 0;
  double hits_avg = 0;
};

struct Options {
  std::size_t scale = 10;
  std::size_t queries = 400;
  int attempts = 3;
  bool json = false;
  bool gate = false;
};

template <typename Index>
Row measure(Index& idx, const char* name, double build_ms,
            const std::vector<index::GeoTimeRange>& queries, int attempts) {
  Row row;
  row.backend = name;
  row.build_ms = build_ms;
  // Best-of-attempts per backend: latency comparisons across backends are
  // about the structures, not about which pass a page-cache hiccup landed
  // in. The hit count is workload-determined and identical across passes.
  for (int a = 0; a < attempts; ++a) {
    util::SampleSet lat;
    double hits_total = 0.0;
    for (const auto& q : queries) {
      util::Stopwatch sw;
      std::size_t hits = 0;
      idx.query(q, [&](const core::RepresentativeFov&) { ++hits; });
      lat.add(sw.elapsed_us());
      hits_total += static_cast<double>(hits);
    }
    const double p99 = lat.p99();
    if (a == 0 || p99 < row.query_p99_us) {
      row.query_p99_us = p99;
      row.query_avg_us = lat.mean();
    }
    row.hits_avg = hits_total / static_cast<double>(queries.size());
  }
  return row;
}

void write_json(std::ostream& os, const std::vector<Row>& rows,
                const Options& opt, std::size_t corpus) {
  os << "{\n"
     << "  \"note\": \"regenerate: build/bench/bench_index_backends --json"
        " --scale "
     << opt.scale << "\",\n"
     << "  \"workload\": {\"corpus_segments\": " << corpus
     << ", \"queries\": " << opt.queries
     << ", \"attempts\": " << opt.attempts << "},\n"
     << "  \"backends\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "    {\"backend\": \"" << r.backend << "\", \"build_ms\": "
       << r.build_ms << ", \"query_avg_us\": " << r.query_avg_us
       << ", \"query_p99_us\": " << r.query_p99_us
       << ", \"hits_avg\": " << r.hits_avg << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace svg;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) opt.json = true;
    if (std::strcmp(argv[i], "--gate") == 0) opt.gate = true;
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      opt.scale = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      opt.queries = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--attempts") == 0 && i + 1 < argc) {
      opt.attempts = std::atoi(argv[i + 1]);
    }
  }
  if (opt.scale == 0) opt.scale = 1;

  sim::CityModel city;
  util::Xoshiro256 rng(88);
  const std::size_t kN = 30'000 * opt.scale;
  const auto reps = sim::random_representative_fovs(
      kN, city, 1'400'000'000'000, 24LL * 3600 * 1000, rng);

  std::vector<index::GeoTimeRange> queries;
  for (std::size_t i = 0; i < opt.queries; ++i) {
    const auto c = city.random_point(rng);
    const double half = rng.chance(0.5) ? 0.0005 : 0.002;
    const auto t0 = 1'400'000'000'000 +
                    static_cast<core::TimestampMs>(
                        rng.bounded(20LL * 3600 * 1000));
    queries.push_back({c.lng - half, c.lng + half, c.lat - half,
                       c.lat + half, t0, t0 + 2LL * 3600 * 1000});
  }

  std::vector<Row> rows;
  auto bench = [&](auto& idx, const char* name, double build_ms) {
    rows.push_back(measure(idx, name, build_ms, queries, opt.attempts));
  };

  {
    index::FovIndex rtree;
    util::Stopwatch sw;
    for (const auto& r : reps) rtree.insert(r);
    bench(rtree, "R-tree (paper, dynamic)", sw.elapsed_ms());
  }
  {
    util::Stopwatch sw;
    const auto rtree = index::FovIndex::bulk_load(reps);
    bench(rtree, "R-tree (STR bulk)", sw.elapsed_ms());
  }
  if (opt.scale <= 10) {
    index::LinearIndex linear;
    util::Stopwatch sw;
    for (const auto& r : reps) linear.insert(r);
    bench(linear, "linear scan", sw.elapsed_ms());
  }
  {
    // Fresh ingest: the run list as a live server would hold it right
    // after an upload storm — many memtable-sized sealed runs, none
    // merged. This is the tiered backend's worst query-side shape.
    index::TieredFovIndex tiered;
    util::Stopwatch sw;
    tiered.insert_batch(reps);
    bench(tiered, "tiered (fresh runs)", sw.elapsed_ms());
  }
  {
    // Steady state: what the background compactor converges to. Build
    // time includes the full merge — that cost is real, it is just paid
    // off the query path.
    index::TieredFovIndex tiered;
    util::Stopwatch sw;
    tiered.insert_batch(reps);
    tiered.seal_now();
    while (tiered.compact_now(/*full=*/true) > 0) {
    }
    bench(tiered, "tiered (compacted)", sw.elapsed_ms());
  }

  if (opt.json) {
    write_json(std::cout, rows, opt, kN);
  } else {
    std::cout << "=== Index backends on " << kN << " citywide segments, "
              << opt.queries << " mixed queries (best of " << opt.attempts
              << " passes) ===\n\n";
    util::Table table({"backend", "build_ms", "query_avg_us", "query_p99_us",
                       "hits_avg"});
    for (const auto& r : rows) {
      table.add_row({r.backend, util::Table::num(r.build_ms, 1),
                     util::Table::num(r.query_avg_us, 1),
                     util::Table::num(r.query_p99_us, 1),
                     util::Table::num(r.hits_avg, 2)});
    }
    table.print(std::cout);
    std::cout << "\nReading: every structured index beats the linear scan "
                 "by orders of magnitude. The compacted tiered index "
                 "pairs STR packing with columnar leaf scans, so its query "
                 "tail undercuts the pointer-chasing walk of the paper's "
                 "dynamic R-tree; fresh (uncompacted) runs show the "
                 "query-side price compaction exists to pay down "
                 "(docs/PERFORMANCE.md).\n";
  }

  if (opt.gate) {
    auto find = [&](const char* name) -> const Row* {
      for (const auto& r : rows) {
        if (r.backend == name) return &r;
      }
      return nullptr;
    };
    const Row* tiered = find("tiered (compacted)");
    const Row* rtree = find("R-tree (paper, dynamic)");
    if (tiered == nullptr || rtree == nullptr) {
      std::cerr << "gate: missing backend rows\n";
      return 1;
    }
    std::cerr << "gate: tiered(compacted) p99 " << tiered->query_p99_us
              << " us vs R-tree (paper, dynamic) p99 "
              << rtree->query_p99_us << " us\n";
    if (!(tiered->query_p99_us < rtree->query_p99_us)) {
      std::cerr << "gate: FAIL — tiered must strictly beat the paper's "
                   "R-tree\n";
      return 1;
    }
    std::cerr << "gate: PASS\n";
  }
  return 0;
}
