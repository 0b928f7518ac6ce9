// WAL ingest overhead — what durability costs at the ingest front door,
// and why the fsync policy (not the log itself) is the knob that matters.
//
// Four modes, same workload, same CloudServer code path:
//   off     no --data-dir: the in-memory baseline every other mode is
//           measured against
//   none    WAL written, never fsynced (what the log itself costs:
//           encode + frame + group-committed write())
//   batch   the production default: ack after write(), background fsync
//           on a byte/interval threshold (process-crash safe; power-loss
//           window bounded by the flush interval)
//   batch+env  batch, but with store I/O routed through a pure forwarding
//           Env wrapper — one extra virtual hop per operation, isolating
//           what the pluggable-Env seam itself costs (docs/ROBUSTNESS.md
//           pins it under 2% of plain batch; --gate enforces that)
//   always  ack after fsync (full durability; group commit coalesces the
//           concurrent appenders into one fsync per batch)
//
// Methodology: closed-loop saturating ingest from --threads uploaders,
// each pushing --uploads uploads of --segments representative FoVs
// through CloudServer::ingest (WAL append + index insert). Closed loop is
// the right drive here: the question is peak acked ingest throughput,
// not tail latency under a paced load (bench_sustained_ingest covers
// that). Per-upload ack latency percentiles are reported alongside.
//
// The acceptance bar pinned by docs/DURABILITY.md: fsync=batch acked
// segment throughput within 25% of the no-WAL baseline.
//
// Flags: --threads N --uploads N --segments N --json (the generator for
// BENCH_wal.json) --gate (exit 1 if batch+env drops below 98% of batch).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "sim/crowd.hpp"
#include "store/env.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace svg;
using Clock = std::chrono::steady_clock;

// Pure pass-through Env: every call (file writes and syncs included)
// takes exactly one extra virtual hop before landing on Env::posix().
// This is the seam a FaultyEnv occupies in tests — "batch+env" measures
// what paying for that seam in production would cost.
class ForwardingFile final : public store::File {
 public:
  explicit ForwardingFile(std::unique_ptr<store::File> base)
      : base_(std::move(base)) {}
  bool write(std::span<const std::uint8_t> bytes) override {
    return base_->write(bytes);
  }
  bool sync() override { return base_->sync(); }

 private:
  std::unique_ptr<store::File> base_;
};

class ForwardingEnv final : public store::Env {
 public:
  std::unique_ptr<store::File> open(const std::string& path,
                                    store::OpenMode mode) override {
    auto file = store::Env::posix().open(path, mode);
    if (!file) return nullptr;
    return std::make_unique<ForwardingFile>(std::move(file));
  }
  std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) override {
    return store::Env::posix().read_file(path);
  }
  bool sync_dir(const std::string& dir) override {
    return store::Env::posix().sync_dir(dir);
  }
  bool rename_file(const std::string& from, const std::string& to) override {
    return store::Env::posix().rename_file(from, to);
  }
  bool remove_file(const std::string& path) override {
    return store::Env::posix().remove_file(path);
  }
  bool truncate_file(const std::string& path, std::uint64_t size) override {
    return store::Env::posix().truncate_file(path, size);
  }
};

std::size_t g_threads = 4;
std::size_t g_uploads_per_thread = 400;
std::size_t g_segments_per_upload = 50;

struct ModeResult {
  std::string name;
  double elapsed_s = 0;
  double uploads_per_s = 0;
  double segments_per_s = 0;
  double ack_p50_us = 0, ack_p99_us = 0;
  std::uint64_t wal_bytes = 0;      // on-disk log size after the run
  std::uint64_t durable_seq = 0;    // acked AND durable when the run ended
};

std::vector<net::UploadMessage> make_uploads(std::size_t count,
                                             std::size_t segments,
                                             std::uint64_t seed) {
  sim::CityModel city;
  util::Xoshiro256 rng(seed);
  std::vector<net::UploadMessage> out;
  out.reserve(count);
  for (std::size_t u = 0; u < count; ++u) {
    net::UploadMessage msg;
    msg.video_id = seed * 1'000'000 + u;
    msg.segments.reserve(segments);
    for (std::size_t s = 0; s < segments; ++s) {
      core::RepresentativeFov r;
      r.video_id = msg.video_id;
      r.segment_id = static_cast<std::uint32_t>(s);
      r.fov.p = city.random_point(rng);
      r.fov.theta_deg = rng.uniform() * 360.0;
      r.t_start = 1'400'000'000'000 +
                  static_cast<core::TimestampMs>(rng.uniform() * 8.64e7);
      r.t_end = r.t_start + 5'000;
      msg.segments.push_back(r);
    }
    out.push_back(std::move(msg));
  }
  return out;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

ModeResult run_mode(const std::string& name) {
  ModeResult res;
  res.name = name;

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("svg_bench_wal_" + name + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  ForwardingEnv fwd_env;
  net::ServerDurabilityConfig dcfg;
  if (name != "off") {
    dcfg.data_dir = dir;
    if (name == "none") dcfg.fsync = store::FsyncPolicy::kNone;
    if (name == "batch") dcfg.fsync = store::FsyncPolicy::kBatch;
    if (name == "always") dcfg.fsync = store::FsyncPolicy::kAlways;
    if (name == "batch+env") {
      dcfg.fsync = store::FsyncPolicy::kBatch;
      dcfg.env = &fwd_env;
    }
  }
  net::CloudServer server({}, {}, dcfg);

  // Pre-build every upload so the measured loop is ingest and nothing else.
  std::vector<std::vector<net::UploadMessage>> per_thread;
  per_thread.reserve(g_threads);
  for (std::size_t t = 0; t < g_threads; ++t) {
    per_thread.push_back(
        make_uploads(g_uploads_per_thread, g_segments_per_upload, t + 1));
  }

  std::vector<std::vector<std::uint64_t>> ack_ns(g_threads);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < g_threads; ++t) {
    threads.emplace_back([&, t] {
      auto& lat = ack_ns[t];
      lat.reserve(per_thread[t].size());
      for (const auto& msg : per_thread[t]) {
        const auto begin = Clock::now();
        server.ingest(msg);
        lat.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - begin)
                .count()));
      }
    });
  }
  for (auto& th : threads) th.join();
  res.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const double uploads =
      static_cast<double>(g_threads * g_uploads_per_thread);
  res.uploads_per_s = uploads / res.elapsed_s;
  res.segments_per_s =
      uploads * static_cast<double>(g_segments_per_upload) / res.elapsed_s;

  std::vector<std::uint64_t> all;
  for (auto& v : ack_ns) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    res.ack_p50_us = static_cast<double>(all[all.size() / 2]) / 1e3;
    res.ack_p99_us = static_cast<double>(all[(all.size() * 99) / 100]) / 1e3;
  }
  if (name != "off") {
    server.sync_wal();
    res.durable_seq = server.durable_wal_seq();
    res.wal_bytes = dir_bytes(dir);
  }
  std::filesystem::remove_all(dir);
  return res;
}

void write_json(std::ostream& os, const std::vector<ModeResult>& modes) {
  const double base = modes.front().segments_per_s;
  os << "{\n"
     << "  \"note\": \"regenerate: build/bench/bench_wal_overhead --json "
        "--gate\",\n"
     << "  \"workload\": {\"threads\": " << g_threads
     << ", \"uploads_per_thread\": " << g_uploads_per_thread
     << ", \"segments_per_upload\": " << g_segments_per_upload << "},\n"
     << "  \"acceptance\": \"fsync=batch within 25% of off; "
        "batch+env within 2% of batch\",\n"
     << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& m = modes[i];
    os << "    {\"mode\": \"" << m.name
       << "\", \"uploads_per_s\": " << m.uploads_per_s
       << ", \"segments_per_s\": " << m.segments_per_s
       << ", \"vs_off\": " << m.segments_per_s / base
       << ", \"ack_p50_us\": " << m.ack_p50_us
       << ", \"ack_p99_us\": " << m.ack_p99_us
       << ", \"wal_bytes\": " << m.wal_bytes
       << ", \"durable_seq\": " << m.durable_seq << "}"
       << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--uploads") == 0 && i + 1 < argc) {
      g_uploads_per_thread = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--segments") == 0 && i + 1 < argc) {
      g_segments_per_upload =
          static_cast<std::size_t>(std::atoi(argv[i + 1]));
    }
  }

  std::vector<ModeResult> modes;
  for (const char* name : {"off", "none", "batch", "batch+env", "always"}) {
    modes.push_back(run_mode(name));
  }

  int rc = 0;
  if (gate) {
    // A single closed-loop sample of fsync=batch swings far more than 2%
    // with scheduler/page-cache luck, so the gate compares the best of
    // several alternating paired runs: interference only ever slows a
    // sample down, so the per-mode best approximates the quiet-machine
    // ceiling, where a real seam cost would still show up.
    double batch = 0, batch_env = 0;
    for (const auto& m : modes) {
      if (m.name == "batch") batch = m.segments_per_s;
      if (m.name == "batch+env") batch_env = m.segments_per_s;
    }
    for (int rep = 0; rep < 4; ++rep) {
      batch = std::max(batch, run_mode("batch").segments_per_s);
      batch_env = std::max(batch_env, run_mode("batch+env").segments_per_s);
    }
    const double ratio = batch > 0 ? batch_env / batch : 0.0;
    std::cerr << "gate: best-of-5 batch+env/batch = " << ratio
              << (ratio >= 0.98 ? " (>= 0.98, pass)\n" : " (< 0.98, FAIL)\n");
    if (ratio < 0.98) rc = 1;
  }

  if (json) {
    write_json(std::cout, modes);
    return rc;
  }
  std::cout << "=== WAL ingest overhead: closed-loop saturating ingest, "
            << g_threads << " uploaders x " << g_uploads_per_thread
            << " uploads x " << g_segments_per_upload << " segments ===\n";
  util::Table table({"mode", "uploads/s", "seg/s", "vs off", "ack_p50_us",
                     "ack_p99_us", "wal_MB"});
  const double base = modes.front().segments_per_s;
  for (const auto& m : modes) {
    table.add_row({m.name, util::Table::num(m.uploads_per_s, 0),
                   util::Table::num(m.segments_per_s, 0),
                   util::Table::num(m.segments_per_s / base, 3),
                   util::Table::num(m.ack_p50_us, 1),
                   util::Table::num(m.ack_p99_us, 1),
                   util::Table::num(static_cast<double>(m.wal_bytes) / 1e6,
                                    2)});
  }
  table.print(std::cout);
  std::cout << "\nReading: \"none\" isolates the log's CPU cost (encode + "
               "CRC + one group-committed write per batch); \"batch\" adds "
               "a background fsync cadence off the ack path; \"always\" "
               "puts an fsync between every ack and its caller — group "
               "commit amortizes it across concurrent uploaders, so the "
               "gap narrows as thread count grows. \"batch+env\" shows the "
               "pluggable-Env seam is one virtual hop per batch, not per "
               "record: it has to land within noise of \"batch\".\n";
  return rc;
}
