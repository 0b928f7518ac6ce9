// End-to-end benchmark driver. One workload per process:
//
//   e2ebench --workload upload_day|query_city --seed N
//            --seconds S --trace 0|1 [--run-dir DIR] [--commit SHA]
//            [--source-digest HEX]
//
// --trace 0 runs the workload (set up several times, the last kept) and
// prints every end-to-end metric; the JSON line carries the gated ones.
// --trace 1 runs it once untraced for the exact counts and p50 baselines,
// then once with every request traced, and prints the per-layer metrics
// and the self-time profile. Either way
// the last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every correctness check passed.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "workloads.hpp"

namespace {

using e2ebench::Metric;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const Metric& m : ms) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << " (n=" << m.samples << ")\n";
  }
}

void print_profile(const e2ebench::PassResult& traced) {
  if (!traced.profile) return;
  const e2ebench::Profile& p = *traced.profile;
  std::cout << "self-time profile: " << p.traces() << " requests, "
            << p.unclosed() << " whose self times do not sum to the root, "
            << p.truncated() << " truncated, " << traced.traces_lost
            << " lost\n";
  std::printf("  %-26s %9s %12s %12s %8s  %s\n", "span", "count",
              "self_p50_ns", "self_p99_ns", "share", "tags (mean per span)");
  for (const auto& row : p.rows()) {
    std::ostringstream tags;
    for (const auto& [key, sum_n] : row.tags) {
      tags << key << "="
           << json_number(static_cast<double>(sum_n.first) /
                          static_cast<double>(sum_n.second))
           << " ";
    }
    std::printf("  %-26s %9llu %12llu %12llu %8.4f  %s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.self_p50_ns),
                static_cast<unsigned long long>(row.self_p99_ns), row.share,
                tags.str().c_str());
  }
}

int usage() {
  std::cerr << "usage: e2ebench --workload upload_day|query_city "
               "--seed N --seconds S --trace 0|1 [--run-dir DIR] "
               "[--commit SHA] [--source-digest HEX]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options opt;
  int trace = 0;
  std::string commit = "none";
  std::string digest = "none";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--run-dir") {
      opt.run_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !e2ebench::known_workload(opt.workload) ||
      opt.seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  if (opt.run_dir.empty()) {
    opt.run_dir = ".bench_run/" + opt.workload + "-" + std::to_string(getpid());
  }

  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model() << "\" compiler=\"GNU " << __VERSION__
            << "\" build=" << e2ebench::build_type()
            << " fsync=none seed=" << opt.seed << " commit=" << commit
            << " source_digest=" << digest << "\n";
  std::cout << "workload " << opt.workload << ": seconds=" << opt.seconds
            << " trace=" << trace << "\n";

  std::vector<Metric> metrics;
  e2ebench::PassResult result;
  if (trace == 0) {
    result = e2ebench::run_pass(opt, /*traced=*/false,
                                e2ebench::timed_setups(opt.workload));
    metrics = result.end_to_end;
    print_metrics("end-to-end:", metrics);
    print_metrics("end-to-end, printed but not gated:", result.ungated);
    print_metrics("counts:", result.counts);
    for (const std::string& note : result.notes) std::cout << note << "\n";
  } else {
    e2ebench::Options first = opt;
    first.run_dir += "/untraced";
    e2ebench::Options second = opt;
    second.run_dir += "/traced";
    const e2ebench::PassResult untraced =
        e2ebench::run_pass(first, /*traced=*/false, /*setups=*/1);
    const e2ebench::PassResult traced =
        e2ebench::run_pass(second, /*traced=*/true, /*setups=*/1);
    print_metrics("end-to-end (untraced pass):", untraced.end_to_end);
    print_metrics("end-to-end (untraced pass), not gated:", untraced.ungated);
    print_profile(traced);
    metrics = e2ebench::per_layer(untraced, traced);
    print_metrics("per-layer:", metrics);
    result.correct = untraced.correct && traced.correct;
    result.attempted = untraced.attempted + traced.attempted;
    result.failed = untraced.failed + traced.failed;
    result.failures = untraced.failures;
    result.failures.insert(result.failures.end(), traced.failures.begin(),
                           traced.failures.end());
  }
  {
    std::error_code ec;
    std::filesystem::remove_all(opt.run_dir, ec);
  }
  std::cout << "attempted=" << result.attempted << " failed=" << result.failed
            << " failed_share="
            << json_number(result.attempted == 0
                               ? 0.0
                               : static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted))
            << "\n";
  for (const std::string& f : result.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << json_number(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.correct ? 0 : 1;
}
