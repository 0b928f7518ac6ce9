// Exact counts are a pure function of the workload seed: a small
// configuration run twice on one seed reports the same value for every
// one of them, and a run on another seed moves them. Byte counts come from
// the untraced pass, candidates per query from the traced one (span tags).

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using e2ebench::Metric;
using e2ebench::Options;
using e2ebench::PassResult;

std::map<std::string, double> exact_counts(const std::string& workload,
                                           std::uint64_t seed, double seconds) {
  Options opt;
  opt.workload = workload;
  opt.seed = seed;
  opt.seconds = seconds;
  opt.run_dir =
      (std::filesystem::current_path() / ("determinism-" + workload)).string();
  const PassResult untraced = e2ebench::run_pass(opt, false, 1);
  const PassResult traced = e2ebench::run_pass(opt, true, 1);
  EXPECT_TRUE(untraced.correct) << workload << " seed " << seed;
  EXPECT_TRUE(traced.correct) << workload << " seed " << seed;
  std::map<std::string, double> out;
  for (const Metric& m : untraced.end_to_end) out[m.name] = m.value;
  for (const Metric& m : e2ebench::per_layer(untraced, traced)) {
    out[m.name] = m.value;
  }
  return out;
}

const std::vector<std::string> kExact = {
    "uplink_bytes_per_fov",    "disk_bytes_per_fov",
    "index.seals",             "index.compactions",
    "cluster.legs_per_upload", "net.attempts_per_upload",
    "retrieval.candidates_per_query"};

/// Seals and compactions are floors of row totals over fixed thresholds,
/// so another seed moves at least one of them, not always both.
const std::vector<std::string> kStructural = {"index.seals",
                                              "index.compactions"};

/// The shipped configuration, with a small `seconds`: only the per-second
/// sizes shrink; the preloaded archives keep their size.
void expect_exact(const std::string& workload, double seconds,
                  const std::vector<std::string>& moving) {
  const auto a = exact_counts(workload, 11, seconds);
  const auto b = exact_counts(workload, 11, seconds);
  const auto c = exact_counts(workload, 10, seconds);
  for (const std::string& key : kExact) {
    ASSERT_TRUE(a.count(key) != 0) << key;
    EXPECT_EQ(a.at(key), b.at(key)) << workload << " " << key;
  }
  for (const std::string& key : moving) {
    EXPECT_NE(a.at(key), c.at(key)) << workload << " " << key;
  }
  bool structural_moved = false;
  for (const std::string& key : kStructural) {
    structural_moved = structural_moved || a.at(key) != c.at(key);
  }
  EXPECT_TRUE(structural_moved) << workload;
}

TEST(Determinism, UploadDayCountsRepeatUnderOneSeedAndMoveUnderAnother) {
  expect_exact("upload_day", 1.0,
               {"uplink_bytes_per_fov", "disk_bytes_per_fov",
                "cluster.legs_per_upload", "net.attempts_per_upload",
                "retrieval.candidates_per_query"});
}

TEST(Determinism, QueryCityCountsRepeatUnderOneSeedAndMoveUnderAnother) {
  // Its link is clean, so every upload takes exactly one attempt whatever
  // the seed.
  expect_exact("query_city", 0.2,
               {"uplink_bytes_per_fov", "disk_bytes_per_fov",
                "cluster.legs_per_upload", "retrieval.candidates_per_query"});
}

}  // namespace
