#pragma once
// The two workloads (LAYERS.md says why each exists) and the record of one
// pass over a workload.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "profile.hpp"

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets how much work a pass does: the fixed per-second sizes below
  /// times this. The work never depends on measured speed.
  double seconds = 10.0;
  /// Node data and scratch files; the pass creates and removes it.
  std::string run_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct PassResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< uploads enqueued + queries issued
  std::uint64_t failed = 0;     ///< exhausted/rejected, incomplete, mismatched
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;  ///< the gated ones (BENCHMARK.json)
  /// End-to-end metrics printed but not gated: their run-to-run spread on
  /// this host exceeds any bound the benchmark may set (LAYERS.md).
  std::vector<Metric> ungated;
  std::vector<Metric> counts;  ///< per-layer counts of this pass
  std::vector<std::string> notes;  ///< latency distributions, for reading
  double upload_p50_us = 0.0;
  double query_p50_us = 0.0;
  std::optional<Profile> profile;  ///< traced pass only
  std::uint64_t traces_lost = 0;
};

[[nodiscard]] bool known_workload(const std::string& name);

/// How many set-ups an untraced run of `workload` makes; setup_s is their
/// median. upload_day's set-up is short, so it is repeated more often.
[[nodiscard]] int timed_setups(const std::string& workload);

/// One pass: input generation, `setups` set-ups (the last one is kept),
/// the timed phase, crash/rejoin, and the correctness checks. A traced
/// pass records every request's spans from the timed phase on.
[[nodiscard]] PassResult run_pass(const Options& opt, bool traced,
                                  int setups);

/// The per-layer metrics of a traced invocation: counts from the untraced
/// pass; self times, shares and tag-derived counts from the traced one.
[[nodiscard]] std::vector<Metric> per_layer(const PassResult& untraced,
                                            const PassResult& traced);

/// CMake build type the benchmark and the program were compiled with.
[[nodiscard]] const char* build_type();

}  // namespace e2ebench
