// svgctl — command-line front end to the library, for poking at the system
// without writing code:
//
//   svgctl generate --providers 50 --seed 7 --out corpus.svgx
//       simulate a crowd, run the client pipeline (pool-parallel across
//       sessions), save the descriptor corpus as an index snapshot
//   svgctl info --in corpus.svgx
//       print corpus statistics
//   svgctl query --in corpus.svgx --lat 39.9042 --lng 116.4074
//                --radius 50 --from 0 --to 9999999999999 [--top 10]
//                [--memtable N]
//       load the snapshot into a CloudServer, run one retrieval through the
//       full instrumented stack, print results + per-stage timings + the
//       tiered index's run structure + a process-metrics stats section.
//       --memtable N sets the index's memtable seal threshold
//       (docs/PERFORMANCE.md).
//   svgctl compact --in corpus.svgx [--memtable N] [--full 0|1]
//       load the corpus into the server's tiered index, seal the memtable,
//       and merge runs (--full 1, default, compacts to a single run;
//       --full 0 runs one size-tiered round). Prints the run structure —
//       row count and [ts_min, ts_max] per run — before and after.
//   svgctl recover --data-dir d
//       recover a durable data directory (checkpoint + WAL replay), print
//       the recovery summary; --checkpoint 1 additionally takes a fresh
//       checkpoint and retires covered WAL segments. Exit 0 on a clean
//       recovery, 3 when a torn tail was truncated (recovered, but the
//       last batch died mid-write), 2 when the chain is unrecoverable
//   svgctl trace --in corpus.svgx --lat .. --lng .. [--queries N]
//                [--mode text|chrome|slow|journal] [--out file]
//                [--sample n] [--slow-ms t]
//       run N traced queries against the corpus, then inspect what the
//       tracer stored: the span tree of every trace (text), a Chrome
//       trace_event JSON export for chrome://tracing (chrome), the
//       slow-request log (slow), or the structured event journal
//       (journal). docs/TRACING.md walks through the output.
//   svgctl wal-dump --data-dir d
//       read-only inspection of the WAL chain: per-segment and per-record
//       listing, torn-tail/corruption diagnosis. Exit 0 on a clean chain,
//       3 when only the tail is torn (open would truncate it), 2 on a
//       broken chain
//   svgctl chaos --seeds 20 --drop 0.1 --dup 0.05 --reorder 0.05
//                --corrupt 0.02 --providers 12
//                [--disk-write-error p] [--disk-fsync-error p]
//                [--disk-short-write p] [--overload]
//       chaos smoke test on the upload path: for every seed, drive a
//       crowd's uploads through FaultyLink + UploadQueue into a fresh
//       server and verify the index converges byte-for-byte to a
//       fault-free ingest of the same uploads. Any --disk-* probability
//       arms the storage-fault variant: the server ingests durably
//       through a store::FaultyEnv, the WAL fail-stops and the server
//       degrades to read-only under injected disk faults, then the "disk
//       is repaired" (plan cleared + try_recover_storage) and a fresh
//       queue with the same seed re-offers everything — the dedup set
//       absorbs the replays and the index must still converge. --overload
//       additionally runs the server's admission control at a
//       starvation-level ingest capacity: uploads are shed with
//       retry-after hints the queue paces itself by, and the index must
//       still converge once the flood subsides — shedding delays work,
//       never loses it. Prints fault/retry stats (plus shed/hint counts
//       and the last seed's admission table under --overload); exit 2 if
//       any seed diverges (docs/ROBUSTNESS.md)
//   svgctl cluster --nodes 3 --seeds 10 --drop 0.1 --dup 0.05
//                  --reorder 0.05 --corrupt 0.02 --providers 8
//                  [--queries N]
//       in-process N-node cluster through the full failure lifecycle per
//       seed: geo-partitioned faulty ingest, partial WAL-shipping
//       replication, a node crash, probe-driven failover promotion,
//       re-delivery, rejoin, and resync — then the ownership-filtered
//       union of the nodes must match a fault-free single-node ingest
//       byte-for-byte and scatter-gather answers must match the single
//       node's. Prints routing/replication activity and the final
//       routing table; exit 2 if any seed diverges (docs/CLUSTER.md)
//   svgctl scrub --data-dir d [--quarantine 0|1] | --selftest
//       one pass of the at-rest integrity scrub: verify every CRC frame
//       of every WAL segment and snapshot in <d>. Torn tails on the live
//       segment are legal crash artifacts; anything else is bit rot.
//       --quarantine 1 renames proven-corrupt cold artifacts to
//       *.quarantine (dropping them from recovery) so a replica restore
//       can re-ship the data. Exit 0 clean, 2 with findings. --selftest
//       runs a self-contained bit-rot → detect → quarantine cycle in a
//       temp dir (the CI smoke; docs/ROBUSTNESS.md)
//
// Durability flags (generate, query, recover): --data-dir <dir> enables the
// write-ahead log (docs/DURABILITY.md). generate ingests through a durable
// server so the corpus survives in <dir>; query recovers <dir> instead of
// reading --in. --fsync always|batch|none picks the ack policy.
//
// Admission flags (query): --admit-rate R arms overload control with an
// ingest lane provisioned at R requests/second (docs/ROBUSTNESS.md);
// --admit-burst B adds a per-client token bucket (refill R/s, burst B)
// keyed by uploader id; --queue-depth N bounds the virtual admission
// queue; --deadline-ms T sheds anything that would finish past T. The
// run prints an "admission" stats table per lane; a query the controller
// sheds exits 2 with the server-computed retry-after hint.
//
// Observability flags (query and generate):
//   --metrics-out <file|->   dump the process metric registry after the run
//                            ("-" = stdout)
//   --metrics-format <fmt>   prom (default, Prometheus text exposition) or
//                            json
//   --trace 1 (query)        trace the request end-to-end and print its
//                            span tree; --trace-out <file> additionally
//                            writes the Chrome trace_event JSON
//
// chaos and recover print the server-health gauge and the tail of the
// structured event journal before any non-zero exit, so a failed run
// explains what the system did last.
//
// Exit codes: 0 ok, 1 bad usage, 2 runtime failure, 3 recovered/readable
// but a torn tail was (or would be) truncated (recover, wal-dump).

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/router.hpp"
#include "cluster/wire.hpp"
#include "net/admission.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/upload_queue.hpp"
#include "net/server.hpp"
#include "obs/families.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "retrieval/engine.hpp"
#include "sim/crowd.hpp"
#include "store/recovery.hpp"
#include "store/scrub.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace svg;

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    // A flag followed by another flag (or by nothing) is a bare boolean
    // switch (e.g. chaos --overload): it reads as "1" and the next token
    // keeps its own turn.
    if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
      flags[key.substr(2)] = "1";
    } else {
      flags[key.substr(2)] = argv[++i];
    }
  }
  return flags;
}

double flag_num(const std::map<std::string, std::string>& flags,
                const std::string& key, double fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : std::atof(it->second.c_str());
}

std::string flag_str(const std::map<std::string, std::string>& flags,
                     const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Dump the global registry per --metrics-out/--metrics-format. Returns 0
/// when no dump was requested or the dump succeeded, 2 on I/O failure.
int dump_metrics(const std::map<std::string, std::string>& flags) {
  const auto out = flag_str(flags, "metrics-out", "");
  if (out.empty()) return 0;
  const auto format = flag_str(flags, "metrics-format", "prom");
  if (format != "prom" && format != "json") {
    std::cerr << "error: --metrics-format must be prom or json\n";
    return 1;
  }
  // Register every family first so the dump shows idle subsystems as zeros
  // instead of omitting them.
  obs::touch_all_families();
  std::ofstream file;
  std::ostream* os = &std::cout;
  if (out != "-") {
    file.open(out);
    if (!file) {
      std::cerr << "error: cannot write " << out << "\n";
      return 2;
    }
    os = &file;
  }
  if (format == "json") {
    obs::global().write_json(*os);
  } else {
    obs::global().write_prometheus(*os);
  }
  return 0;
}

/// Failure breadcrumb for chaos/recover: the health gauge plus the newest
/// journal events, so a non-zero exit says what the system did last.
void print_failure_context(std::ostream& os) {
  os << "svg_server_health " << obs::server_metrics().health.value()
     << (obs::server_metrics().health.value() == 0 ? " (ok)"
                                                   : " (degraded)")
     << "\n";
  const auto tail = obs::Journal::global().tail(12);
  if (tail.empty()) {
    os << "journal: no events recorded\n";
    return;
  }
  os << "journal tail (" << tail.size() << " of "
     << obs::Journal::global().appended() << " events):\n";
  obs::write_journal_text(os, tail);
}

/// Arm the global tracer for a CLI run: sample 1/n (default every request),
/// slow threshold from --slow-ms.
void enable_tracing(const std::map<std::string, std::string>& flags) {
  obs::TracerConfig tcfg;
  tcfg.enabled = true;
  tcfg.sample_every =
      static_cast<std::uint32_t>(flag_num(flags, "sample", 1));
  tcfg.slow_ns = static_cast<std::uint64_t>(
      flag_num(flags, "slow-ms", 50.0) * 1e6);
  obs::tracer().configure(tcfg);
}

/// Build the durability config from --data-dir/--fsync/--segment-bytes/
/// --checkpoint-interval-ms. Returns false (after printing usage) on a bad
/// --fsync value; an absent --data-dir leaves the config disabled.
bool durability_from_flags(const std::map<std::string, std::string>& flags,
                           net::ServerDurabilityConfig& out) {
  out.data_dir = flag_str(flags, "data-dir", "");
  if (out.data_dir.empty()) return true;
  const auto fsync = flag_str(flags, "fsync", "batch");
  if (fsync == "always") {
    out.fsync = store::FsyncPolicy::kAlways;
  } else if (fsync == "batch") {
    out.fsync = store::FsyncPolicy::kBatch;
  } else if (fsync == "none") {
    out.fsync = store::FsyncPolicy::kNone;
  } else {
    std::cerr << "error: --fsync must be always, batch, or none\n";
    return false;
  }
  out.segment_bytes = static_cast<std::uint64_t>(
      flag_num(flags, "segment-bytes", 8.0 * 1024 * 1024));
  out.checkpoint_interval_ms = static_cast<std::uint32_t>(
      flag_num(flags, "checkpoint-interval-ms", 0));
  return true;
}

/// Index settings from --memtable (query, chaos, compact).
net::ServerIndexConfig index_from_flags(
    const std::map<std::string, std::string>& flags) {
  net::ServerIndexConfig icfg;
  icfg.memtable = static_cast<std::size_t>(flag_num(flags, "memtable", 0));
  return icfg;
}

/// Print a TieredStats structure snapshot (svgctl compact / query): per-run
/// rows + time bounds plus the tier totals.
void print_tiered_stats(const index::TieredStats& s, const std::string& when) {
  std::cout << when << ": memtable " << s.memtable_rows << " rows, sealing "
            << s.sealing_rows << " rows, " << s.runs.size() << " runs ("
            << s.seals << " seals, " << s.compactions
            << " compactions so far)\n";
  if (s.runs.empty()) return;
  util::Table table({"run", "rows", "ts_min_ms", "ts_max_ms"});
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    table.add_row({util::Table::num(i), util::Table::num(s.runs[i].rows),
                   util::Table::num(s.runs[i].ts_min),
                   util::Table::num(s.runs[i].ts_max)});
  }
  table.print(std::cout);
}

/// Build the overload-control config from --admit-rate/--admit-burst/
/// --queue-depth/--deadline-ms (docs/ROBUSTNESS.md). --admit-rate <= 0
/// (the default) leaves admission disabled — the server is byte-for-byte
/// the pre-admission one. --admit-rate is the ingest lane's provisioned
/// capacity in requests/second and doubles as the per-client refill rate
/// when --admit-burst caps each uploader's burst.
net::AdmissionConfig admission_from_flags(
    const std::map<std::string, std::string>& flags) {
  net::AdmissionConfig acfg;
  const double rate = flag_num(flags, "admit-rate", 0.0);
  if (rate <= 0.0) return acfg;
  acfg.enabled = true;
  acfg.ingest.capacity_rps = rate;
  acfg.ingest.queue_depth =
      static_cast<std::size_t>(flag_num(flags, "queue-depth", 64));
  acfg.ingest.default_deadline_ms = flag_num(flags, "deadline-ms", 0.0);
  acfg.query.default_deadline_ms = acfg.ingest.default_deadline_ms;
  const double burst = flag_num(flags, "admit-burst", 0.0);
  if (burst > 0.0) {
    acfg.per_client.rate_per_sec = rate;
    acfg.per_client.burst = burst;
  }
  return acfg;
}

/// svgctl's admission section: one row per lane out of
/// AdmissionController::stats() (query with --admit-rate, chaos
/// --overload).
void print_admission_stats(const net::AdmissionController& ac) {
  std::cout << "\n=== admission ===\n";
  const auto s = ac.stats();
  util::Table table({"lane", "admitted", "throttled", "shed_queue_full",
                     "shed_deadline", "backlog", "shedding"});
  const auto row = [&](const std::string& name,
                       const net::AdmissionLaneStats& l) {
    table.add_row({name, util::Table::num(l.admitted),
                   util::Table::num(l.throttled),
                   util::Table::num(l.shed_queue_full),
                   util::Table::num(l.shed_deadline),
                   util::Table::num(l.backlog, 2),
                   l.shedding ? "yes" : "no"});
  };
  row("ingest", s.ingest);
  row("query", s.query);
  table.print(std::cout);
}

/// Construct a durable server, turning the recovery-failure exception into
/// an error message + null (svgctl's runtime-failure path).
std::unique_ptr<net::CloudServer> open_durable_server(
    const net::ServerIndexConfig& icfg, const retrieval::RetrievalConfig& cfg,
    const net::ServerDurabilityConfig& dcfg,
    const net::AdmissionConfig& acfg = {}) {
  try {
    return std::make_unique<net::CloudServer>(icfg, cfg, dcfg, acfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return nullptr;
  }
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
  const auto out = flag_str(flags, "out", "corpus.svgx");
  sim::CityModel city;
  city.extent_m = flag_num(flags, "extent", 3000.0);
  sim::CrowdConfig cfg;
  cfg.providers = static_cast<std::uint32_t>(
      flag_num(flags, "providers", 50));
  cfg.fps = flag_num(flags, "fps", 15.0);
  util::Xoshiro256 rng(
      static_cast<std::uint64_t>(flag_num(flags, "seed", 1)));

  const core::CameraIntrinsics cam{flag_num(flags, "alpha", 30.0),
                                   flag_num(flags, "view-radius", 100.0)};
  const core::SimilarityModel model(cam);
  const double thresh = flag_num(flags, "thresh", 0.5);

  const auto sessions = sim::generate_crowd(city, cfg, rng);

  // One client pipeline per session, fanned across the pool; the pool
  // reports queue depth and task latency to the svg_threadpool_* family.
  util::ThreadPool pool(0, &obs::thread_pool_metrics());
  std::vector<net::UploadMessage> uploads(sessions.size());
  pool.parallel_for(sessions.size(), [&](std::size_t i) {
    const auto& s = sessions[i];
    net::MobileClient client(s.video_id, model, {thresh});
    uploads[i] = net::capture_session(client, s.records);
  });
  // Futures resolve before on_complete fires; drain to idle so the metrics
  // dump below sees every task counted.
  pool.wait_idle();

  std::vector<core::RepresentativeFov> corpus;
  std::size_t frames = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    corpus.insert(corpus.end(), uploads[i].segments.begin(),
                  uploads[i].segments.end());
    frames += sessions[i].records.size();
  }

  net::ServerDurabilityConfig dcfg;
  if (!durability_from_flags(flags, dcfg)) return 1;
  if (!dcfg.data_dir.empty()) {
    // Durable path: ingest every upload through a WAL-backed server so the
    // corpus survives in the data directory; --out becomes optional.
    auto server = open_durable_server({}, {}, dcfg);
    if (!server) return 2;
    for (const auto& u : uploads) server->ingest(u);
    server->sync_wal();
    std::cout << "ingested " << sessions.size() << " sessions, " << frames
              << " frames -> " << corpus.size() << " segments into "
              << dcfg.data_dir << " (wal seq " << server->last_wal_seq()
              << ")\n";
    if (flags.count("out") == 0) return dump_metrics(flags);
  }
  if (!store::save_snapshot_file(corpus, out)) {
    std::cerr << "error: cannot write " << out << "\n";
    return 2;
  }
  std::cout << "wrote " << out << ": " << sessions.size() << " sessions, "
            << frames << " frames -> " << corpus.size() << " segments\n";
  return dump_metrics(flags);
}

int cmd_info(const std::map<std::string, std::string>& flags) {
  const auto in = flag_str(flags, "in", "corpus.svgx");
  const auto reps = store::load_snapshot_file(in);
  if (!reps) {
    std::cerr << "error: cannot read " << in << "\n";
    return 2;
  }
  core::TimestampMs t_lo = 0, t_hi = 0;
  double lat_lo = 0, lat_hi = 0, lng_lo = 0, lng_hi = 0;
  bool first = true;
  std::map<std::uint64_t, std::size_t> per_video;
  for (const auto& r : *reps) {
    if (first) {
      t_lo = r.t_start;
      t_hi = r.t_end;
      lat_lo = lat_hi = r.fov.p.lat;
      lng_lo = lng_hi = r.fov.p.lng;
      first = false;
    }
    t_lo = std::min(t_lo, r.t_start);
    t_hi = std::max(t_hi, r.t_end);
    lat_lo = std::min(lat_lo, r.fov.p.lat);
    lat_hi = std::max(lat_hi, r.fov.p.lat);
    lng_lo = std::min(lng_lo, r.fov.p.lng);
    lng_hi = std::max(lng_hi, r.fov.p.lng);
    ++per_video[r.video_id];
  }
  std::cout << in << ": " << reps->size() << " segments from "
            << per_video.size() << " videos\n";
  if (!reps->empty()) {
    std::cout << "  lat [" << lat_lo << ", " << lat_hi << "]  lng ["
              << lng_lo << ", " << lng_hi << "]\n  time [" << t_lo << ", "
              << t_hi << "] ms ("
              << static_cast<double>(t_hi - t_lo) / 3'600'000.0
              << " h span)\n";
  }
  return 0;
}

int cmd_query(const std::map<std::string, std::string>& flags) {
  const auto in = flag_str(flags, "in", "corpus.svgx");

  retrieval::RetrievalConfig cfg;
  cfg.camera = {flag_num(flags, "alpha", 30.0),
                flag_num(flags, "view-radius", 100.0)};
  cfg.orientation_slack_deg = flag_num(flags, "slack", 10.0);
  cfg.top_n = static_cast<std::size_t>(flag_num(flags, "top", 10));

  const auto icfg = index_from_flags(flags);

  net::ServerDurabilityConfig dcfg;
  if (!durability_from_flags(flags, dcfg)) return 1;

  // Go through CloudServer so the run exercises the production path: the
  // tiered index (svg_index_*), the retrieval pipeline
  // (svg_retrieval_*), and the server boundary (svg_server_*). With
  // --data-dir, the corpus comes from crash recovery of that directory
  // instead of the --in snapshot; with --admit-rate, through admission
  // control.
  auto server = open_durable_server(icfg, cfg, dcfg, admission_from_flags(flags));
  if (!server) return 2;
  if (server->durable()) {
    std::cout << server->recovery().summary() << "\n";
  } else {
    const auto loaded = server->load_snapshot(in);
    if (!loaded) {
      std::cerr << "error: cannot read " << in << "\n";
      return 2;
    }
  }

  retrieval::Query q;
  q.center.lat = flag_num(flags, "lat", 39.9042);
  q.center.lng = flag_num(flags, "lng", 116.4074);
  q.radius_m = flag_num(flags, "radius", 50.0);
  q.t_start = static_cast<core::TimestampMs>(flag_num(flags, "from", 0));
  q.t_end = static_cast<core::TimestampMs>(
      flag_num(flags, "to", 9'999'999'999'999.0));

  const bool traced = flag_num(flags, "trace", 0) != 0;
  if (traced) enable_tracing(flags);

  // One admission verdict first when --admit-rate armed the controller —
  // the same order search_admitted uses, kept inline here so the traced
  // search below still captures its stage timings.
  if (auto* ac = server->admission()) {
    const auto d = ac->admit_query();
    if (!d.admitted) {
      std::cerr << "error: query shed by admission control; retry after "
                << d.retry_after_ms << " ms\n";
      print_admission_stats(*ac);
      return 2;
    }
  }

  retrieval::SearchTrace trace;
  const auto results = server->search(q, &trace);

  std::cout << trace.candidates << " candidates, " << trace.after_filter
            << " after orientation filter, " << results.size()
            << " returned\n";
  std::cout << "stage timings: range_search "
            << static_cast<double>(trace.range_search_ns()) / 1e3
            << " us, filter " << static_cast<double>(trace.filter_ns()) / 1e3
            << " us, rank " << static_cast<double>(trace.rank_ns()) / 1e3
            << " us, total " << static_cast<double>(trace.total_ns()) / 1e3
            << " us\n";
  util::Table table({"rank", "video", "segment", "t_start_ms", "t_end_ms",
                     "dist_m", "relevance"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.add_row({util::Table::num(i + 1),
                   util::Table::num(r.rep.video_id),
                   util::Table::num(r.rep.segment_id),
                   util::Table::num(r.rep.t_start),
                   util::Table::num(r.rep.t_end),
                   util::Table::num(r.distance_m, 1),
                   util::Table::num(r.relevance, 3)});
  }
  table.print(std::cout);

  print_tiered_stats(*server->tiered_run_stats(), "tiered index");

  if (const auto* ac = server->admission()) print_admission_stats(*ac);

  if (traced) {
    // The search ran under a "server.query" root; its completed span tree
    // is in the tracer ring. SearchTrace carries the shared trace_id.
    std::cout << "\n=== trace ===\n";
    const auto stored = obs::tracer().find_trace(trace.spans[3].trace_id);
    if (stored.empty()) {
      std::cout << "(no stored trace — sampled out?)\n";
    }
    for (const auto& t : stored) obs::write_trace_text(std::cout, *t);
    const auto trace_out = flag_str(flags, "trace-out", "");
    if (!trace_out.empty()) {
      std::ofstream file(trace_out);
      if (!file) {
        std::cerr << "error: cannot write " << trace_out << "\n";
        return 2;
      }
      obs::write_chrome_trace(file, obs::tracer().ring().snapshot());
      std::cout << "wrote " << trace_out << " (chrome://tracing)\n";
    }
  }

  // stats section: every process-wide instrument this run touched (plus
  // idle families as zeros), the human-readable twin of --metrics-out.
  obs::touch_all_families();
  std::cout << "\n=== stats ===\n";
  obs::global().to_table().print(std::cout);

  return dump_metrics(flags);
}

int cmd_recover(const std::map<std::string, std::string>& flags) {
  net::ServerDurabilityConfig dcfg;
  if (!durability_from_flags(flags, dcfg)) return 1;
  if (dcfg.data_dir.empty()) {
    std::cerr << "error: recover requires --data-dir\n";
    return 1;
  }
  auto server = open_durable_server({}, {}, dcfg);
  if (!server) {
    print_failure_context(std::cerr);
    return 2;
  }
  std::cout << server->recovery().summary() << "\n";
  std::cout << "indexed segments: " << server->indexed_segments() << "\n";
  if (flag_num(flags, "checkpoint", 0) != 0) {
    if (!server->checkpoint_now()) {
      std::cerr << "error: checkpoint failed\n";
      print_failure_context(std::cerr);
      return 2;
    }
    std::cout << "checkpoint written (covers wal seq "
              << server->last_wal_seq() << ")\n";
  }
  if (const int rc = dump_metrics(flags); rc != 0) return rc;
  // Exit 3: recovered, but the log ended mid-batch — only unacked bytes
  // were dropped, yet an operator probably wants to know the disk or the
  // process died mid-write.
  if (server->recovery().tail_torn) {
    print_failure_context(std::cout);
    return 3;
  }
  return 0;
}

int cmd_wal_dump(const std::map<std::string, std::string>& flags) {
  const auto dir = flag_str(flags, "data-dir", "");
  if (dir.empty()) {
    std::cerr << "error: wal-dump requires --data-dir\n";
    return 1;
  }
  // The chain is only complete relative to the newest checkpoint: segments
  // it covers have been retired, so its seq is the scan watermark.
  std::uint64_t watermark = 0;
  for (const auto& snap : store::list_checkpoints(dir)) {
    if (const auto full = store::load_snapshot_file_full(snap)) {
      watermark = full->last_seq;
      std::cout << "checkpoint " << snap << " covers seq " << watermark
                << "\n";
      break;
    }
  }
  const auto dump = store::wal_dump(dir, watermark);
  util::Table segs({"segment", "first_seq", "records", "bytes"});
  for (const auto& s : dump.segments) {
    segs.add_row({s.path, util::Table::num(s.first_seq),
                  util::Table::num(s.records), util::Table::num(s.file_bytes)});
  }
  segs.print(std::cout);
  if (flag_num(flags, "records", 0) != 0) {
    util::Table recs({"seq", "segment", "offset", "payload_bytes"});
    for (const auto& r : dump.records) {
      recs.add_row({util::Table::num(r.seq), util::Table::num(r.segment),
                    util::Table::num(r.offset),
                    util::Table::num(r.payload_bytes)});
    }
    recs.print(std::cout);
  }
  std::cout << dump.stats.records_scanned << " records in "
            << dump.stats.segments_scanned << " segments, next seq "
            << dump.stats.next_seq << "\n";
  if (dump.stats.tail_torn) {
    std::cout << "torn tail: " << dump.stats.bytes_truncated
              << " bytes would be truncated on open\n";
  }
  if (!dump.error.empty()) {
    std::cerr << "error: " << dump.error << "\n";
    return 2;
  }
  return dump.stats.tail_torn ? 3 : 0;
}

/// The index as order-independent canonical bytes: snapshot to a scratch
/// file, reload, sort, re-encode. Two servers hold the same index iff these
/// byte strings are equal (same trick as the chaos property tests).
std::vector<std::uint8_t> canonical_index(net::CloudServer& server,
                                          const std::string& scratch) {
  if (!server.save_snapshot(scratch)) return {};
  auto reps = store::load_snapshot_file(scratch);
  std::filesystem::remove(scratch);
  if (!reps) return {};
  std::sort(reps->begin(), reps->end(), [](const auto& a, const auto& b) {
    return std::tie(a.video_id, a.segment_id, a.t_start) <
           std::tie(b.video_id, b.segment_id, b.t_start);
  });
  return store::encode_snapshot(*reps);
}

int cmd_chaos(const std::map<std::string, std::string>& flags) {
  // The chaos server honours --memtable (ground truth always runs on the
  // default index, so a small-memtable chaos run doubles as a check that
  // run layout never changes the indexed set).
  const auto icfg = index_from_flags(flags);
  const auto seeds =
      static_cast<std::uint64_t>(flag_num(flags, "seeds", 20));
  net::FaultPlan base;
  base.drop = flag_num(flags, "drop", 0.10);
  base.duplicate = flag_num(flags, "dup", 0.05);
  base.reorder = flag_num(flags, "reorder", 0.05);
  base.corrupt = flag_num(flags, "corrupt", 0.02);

  store::StoreFaultPlan disk_base;
  disk_base.write_error = flag_num(flags, "disk-write-error", 0.0);
  disk_base.fsync_error = flag_num(flags, "disk-fsync-error", 0.0);
  disk_base.short_write = flag_num(flags, "disk-short-write", 0.0);
  const bool disk_faults = disk_base.write_error > 0.0 ||
                           disk_base.fsync_error > 0.0 ||
                           disk_base.short_write > 0.0;
  const bool overload = flag_num(flags, "overload", 0) != 0;

  sim::CrowdConfig ccfg;
  ccfg.providers =
      static_cast<std::uint32_t>(flag_num(flags, "providers", 12));
  const core::SimilarityModel model({});
  const std::string scratch =
      (std::filesystem::temp_directory_path() /
       ("svgctl_chaos_" + std::to_string(::getpid()) + ".bin"))
          .string();

  net::FaultStats faults;
  std::uint64_t uploads_total = 0, attempts_total = 0, retries_total = 0;
  std::uint64_t failed_seeds = 0;
  std::uint64_t deferred_total = 0, degraded_seeds = 0;
  std::uint64_t hints_total = 0, sheds_total = 0, throttled_total = 0;
  double hinted_wait_total_ms = 0.0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    sim::CityModel city;
    util::Xoshiro256 rng(seed);
    const auto sessions = sim::generate_crowd(city, ccfg, rng);
    std::vector<net::UploadMessage> uploads;
    uploads.reserve(sessions.size());
    for (const auto& s : sessions) {
      net::MobileClient client(s.video_id, model, {0.5});
      uploads.push_back(net::capture_session(client, s.records));
    }

    // Ground truth: the same uploads over a perfect channel.
    net::CloudServer baseline;
    for (const auto& u : uploads) baseline.ingest(u);
    const auto want = canonical_index(baseline, scratch);

    // Chaos run: same uploads through the faulty link and retry queue —
    // and, with --disk-*, through a FaultyEnv-backed durable server.
    net::SimClock clock;
    net::FaultPlan plan = base;
    plan.seed = seed;
    net::Link link;
    net::FaultyLink faulty(link, plan, &clock);

    std::string data_dir;
    std::unique_ptr<store::FaultyEnv> env;
    net::ServerDurabilityConfig dcfg;
    if (disk_faults) {
      data_dir = (std::filesystem::temp_directory_path() /
                  ("svgctl_chaos_disk_" + std::to_string(::getpid()) + "_" +
                   std::to_string(seed)))
                     .string();
      std::filesystem::remove_all(data_dir);
      // Construct over a healthy disk (empty plan); faults arm after the
      // server is up, so construction-time recovery never trips them.
      env = std::make_unique<store::FaultyEnv>(store::StoreFaultPlan{});
      dcfg.data_dir = data_dir;
      dcfg.fsync = store::FsyncPolicy::kAlways;
      dcfg.env = env.get();
    }
    net::AdmissionConfig acfg;
    if (overload) {
      // Starvation-level capacity (500 ms service) plus a per-client rate
      // limit: the faulty link itself advances sim time ~40 ms per
      // transfer, so the service time must dwarf that for the virtual
      // queue to genuinely build. Same setup the 50-seed
      // AdmissionClusterOverloadTest pins — every upload is shed with a
      // retry-after hint at least once, and the hints must pace the queue
      // to convergence anyway.
      acfg.enabled = true;
      acfg.ingest.capacity_rps = 2.0;
      acfg.ingest.queue_depth = 2;
      acfg.per_client.rate_per_sec = 50.0;
      acfg.per_client.burst = 4.0;
      acfg.clock = &clock;
    }
    auto server_ptr = open_durable_server(icfg, {}, dcfg, acfg);
    if (!server_ptr) {
      print_failure_context(std::cerr);
      return 2;
    }
    net::CloudServer& server = *server_ptr;
    if (env) {
      auto splan = disk_base;
      splan.seed = seed;
      env->set_plan(splan);
    }

    net::RetryPolicy policy;
    // An overloaded server defers far more often than a merely lossy one;
    // the hints make retries cheap, so give the queue the budget to
    // follow them all the way down the backlog.
    policy.max_attempts = overload ? 128 : 64;
    net::UploadQueue queue(policy, seed, &clock);
    for (const auto& u : uploads) queue.enqueue(u);
    (void)queue.drain(net::FaultyUploadChannel(faulty, server));

    if (env) {
      // The disk is "repaired": clear the fault plan, recover storage, and
      // let a fresh queue with the same seed re-offer every upload — same
      // ids, so already-acked ones dedup and lost ones finally land.
      deferred_total += queue.stats().deferred;
      env->set_plan({});
      if (server.health() == net::ServerHealth::kDegraded) {
        ++degraded_seeds;
        if (!server.try_recover_storage()) {
          ++failed_seeds;
          std::cout << "seed " << seed
                    << ": FAIL — storage recovery failed on a healthy "
                       "disk\n";
          std::filesystem::remove_all(data_dir);
          continue;
        }
      }
      net::UploadQueue requeue(policy, seed, &clock);
      for (const auto& u : uploads) requeue.enqueue(u);
      (void)requeue.drain(net::FaultyUploadChannel(faulty, server));
    }

    if (overload && server.admission() != nullptr) {
      const auto as = server.admission()->stats();
      sheds_total += as.ingest.shed_queue_full + as.ingest.shed_deadline;
      throttled_total += as.ingest.throttled;
      hints_total += queue.stats().retry_after_hints;
      hinted_wait_total_ms += queue.stats().hinted_wait_ms;
      if (seed == seeds) print_admission_stats(*server.admission());
    }

    const auto& qs = queue.stats();
    const auto fs = faulty.stats();
    uploads_total += qs.enqueued;
    attempts_total += qs.attempts;
    retries_total += qs.retries;
    faults.attempts += fs.attempts;
    faults.dropped += fs.dropped;
    faults.duplicated += fs.duplicated;
    faults.reordered += fs.reordered;
    faults.corrupted += fs.corrupted;

    std::string problem;
    if (!env && qs.acked != qs.enqueued) {
      problem = "not every upload was acked";
    } else if (server.known_upload_ids() != uploads.size()) {
      problem = "dedup set size != uploads";
    } else if (want.empty() || canonical_index(server, scratch) != want) {
      problem = "index diverged from fault-free run";
    }
    if (!problem.empty()) {
      ++failed_seeds;
      std::cout << "seed " << seed << ": FAIL — " << problem << " (acked "
                << qs.acked << "/" << qs.enqueued << ")\n";
    }
    if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
  }

  util::Table table({"metric", "value"});
  table.add_row({"seeds", util::Table::num(seeds)});
  table.add_row({"uploads", util::Table::num(uploads_total)});
  table.add_row({"delivery attempts", util::Table::num(attempts_total)});
  table.add_row({"retries", util::Table::num(retries_total)});
  table.add_row({"link transfers", util::Table::num(faults.attempts)});
  table.add_row({"dropped", util::Table::num(faults.dropped)});
  table.add_row({"duplicated", util::Table::num(faults.duplicated)});
  table.add_row({"reordered", util::Table::num(faults.reordered)});
  table.add_row({"corrupted", util::Table::num(faults.corrupted)});
  if (disk_faults) {
    table.add_row({"deferred acks", util::Table::num(deferred_total)});
    table.add_row({"seeds gone degraded", util::Table::num(degraded_seeds)});
  }
  if (overload) {
    table.add_row({"sheds (queue full/deadline)", util::Table::num(sheds_total)});
    table.add_row({"throttled (per-client)", util::Table::num(throttled_total)});
    table.add_row({"retry-after hints honored", util::Table::num(hints_total)});
    table.add_row(
        {"hinted wait total (ms)", util::Table::num(hinted_wait_total_ms, 0)});
  }
  table.print(std::cout);
  if (overload && hints_total == 0) {
    std::cerr << "error: --overload run produced no retry-after hints — "
                 "the admission path was never exercised\n";
    print_failure_context(std::cerr);
    return 2;
  }
  if (failed_seeds != 0) {
    std::cerr << "error: " << failed_seeds << "/" << seeds
              << " seeds diverged from the fault-free index\n";
    print_failure_context(std::cerr);
    return 2;
  }
  std::cout << "all " << seeds
            << " seeds converged to the fault-free index\n";
  return dump_metrics(flags);
}

int cmd_cluster(const std::map<std::string, std::string>& flags) {
  // In-process N-node cluster, driven through the whole failure
  // lifecycle per seed: faulty ingest → partial replication → node crash
  // → probe-driven promotion → re-delivery → rejoin → resync — then the
  // ownership-filtered union of the nodes must equal a fault-free
  // single-node ingest of the same uploads, byte for byte, and
  // scatter-gather answers must match the single node's through the
  // client codec. Prints routing and replication activity; exit 2 if any
  // seed diverges (docs/CLUSTER.md).
  const auto nodes = static_cast<std::size_t>(flag_num(flags, "nodes", 3));
  const auto seeds =
      static_cast<std::uint64_t>(flag_num(flags, "seeds", 10));
  const auto queries =
      static_cast<std::uint64_t>(flag_num(flags, "queries", 5));
  net::FaultPlan base;
  base.drop = flag_num(flags, "drop", 0.10);
  base.duplicate = flag_num(flags, "dup", 0.05);
  base.reorder = flag_num(flags, "reorder", 0.05);
  base.corrupt = flag_num(flags, "corrupt", 0.02);
  if (nodes < 2) {
    std::cerr << "error: --nodes must be >= 2 (replication is a ring)\n";
    return 1;
  }

  sim::CrowdConfig ccfg;
  ccfg.providers =
      static_cast<std::uint32_t>(flag_num(flags, "providers", 8));
  const core::SimilarityModel model({});

  const auto results_bytes =
      [](const std::vector<retrieval::RankedResult>& hits) {
        net::ResultsMessage out;
        for (const auto& h : hits) {
          net::ResultEntry e;
          e.video_id = h.rep.video_id;
          e.segment_id = h.rep.segment_id;
          e.t_start = h.rep.t_start;
          e.t_end = h.rep.t_end;
          e.distance_m = static_cast<float>(h.distance_m);
          out.entries.push_back(e);
        }
        return net::encode_results(out);
      };

  auto& cm = obs::cluster_metrics();
  const std::uint64_t routed0 = cm.uploads_routed.value();
  const std::uint64_t sub0 = cm.subuploads.value();
  const std::uint64_t fan0 = cm.fanout_nodes.value();
  const std::uint64_t skip0 = cm.fanout_skipped.value();
  const std::uint64_t batches0 = cm.replicate_batches.value();
  const std::uint64_t records0 = cm.replicate_records.value();
  const std::uint64_t promo0 = cm.promotions.value();
  const std::uint64_t demo0 = cm.demotions.value();

  std::uint64_t failed_seeds = 0;
  cluster::RoutingTableMessage last_routing;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("svgctl_cluster_" + std::to_string(::getpid()) + "_" +
          std::to_string(seed)))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    sim::CityModel city;
    util::Xoshiro256 rng(seed);
    const auto sessions = sim::generate_crowd(city, ccfg, rng);
    std::vector<net::UploadMessage> uploads;
    uploads.reserve(sessions.size());
    for (const auto& s : sessions) {
      net::MobileClient client(s.video_id, model, {0.5});
      uploads.push_back(net::capture_session(client, s.records));
    }

    // Fault-free single-node oracle over codec-roundtripped uploads (the
    // nodes index what the wire delivered: 1e-7 degree fixed point).
    net::CloudServer oracle;
    bool oracle_ok = true;
    for (const auto& u : uploads) {
      net::UploadMessage msg = u;
      msg.upload_id = 0;
      const auto rt = net::decode_upload(net::encode_upload(msg));
      if (!rt || !oracle.ingest(*rt)) oracle_ok = false;
    }
    std::vector<std::uint8_t> want;
    if (oracle_ok && oracle.save_snapshot(dir + "/oracle.snap")) {
      if (const auto snap =
              store::load_snapshot_file_full(dir + "/oracle.snap")) {
        want = cluster::canonical_fingerprint(snap->reps);
      }
    }

    net::SimClock clock;
    cluster::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.partition.bounds = city.bounds_deg();
    cfg.data_dir = dir + "/cluster";
    cfg.faulty = true;
    cfg.fault = base;
    cfg.fault.seed = seed;
    cfg.clock = &clock;
    cluster::Cluster cluster(cfg);

    net::RetryPolicy policy;
    policy.max_attempts = 64;
    const auto drain = [&](std::size_t count) {
      net::UploadQueue queue(policy, seed * 31 + 7, &clock);
      for (std::size_t i = 0; i < count; ++i) queue.enqueue(uploads[i]);
      return queue.drain(cluster.router().upload_channel());
    };

    std::string problem;
    const std::size_t victim = seed % nodes;
    if (want.empty()) problem = "oracle ingest failed";
    if (problem.empty() && !drain(1 + uploads.size() / 2)) {
      problem = "phase-1 uploads exhausted their retry budget";
    }
    if (problem.empty()) {
      cluster.replicate_round(2);  // deliberately partial
      cluster.fail_node(victim);
      for (std::uint32_t p = 0; p < 3; ++p) cluster.probe_round();
      const auto routing = cluster.router().routing();
      for (const auto node : routing.table.primary_of) {
        if (node == victim) problem = "promotion left a partition on the dead node";
      }
    }
    if (problem.empty() && !drain(uploads.size())) {
      problem = "phase-2 uploads exhausted their retry budget";
    }
    if (problem.empty()) {
      cluster.rejoin_node(victim);
      std::size_t rounds = 0;
      for (; rounds < 400; ++rounds) {
        const std::size_t applied = cluster.replicate_round();
        bool caught_up = applied == 0;
        for (std::size_t i = 0; i < nodes && caught_up; ++i) {
          if (cluster.replication_lag(i) > 0) caught_up = false;
        }
        if (caught_up) break;
        clock.advance(50.0);
      }
      if (rounds >= 400) problem = "replication never converged";
    }
    if (problem.empty()) {
      const auto got = cluster.canonical_bytes(dir);
      if (!got || *got != want) {
        problem = "cluster content diverged from the fault-free oracle";
      }
    }
    if (problem.empty()) {
      util::Xoshiro256 qrng(seed ^ 0xFEED);
      const geo::Box2 b = city.bounds_deg();
      for (std::uint64_t i = 0; i < queries && problem.empty(); ++i) {
        retrieval::Query q;
        q.t_start = 0;
        q.t_end = 9'999'999'999'999;
        q.center = {b.min[1] + qrng.uniform() * (b.max[1] - b.min[1]),
                    b.min[0] + qrng.uniform() * (b.max[0] - b.min[0])};
        q.radius_m = 60.0 + qrng.uniform() * 90.0;
        bool complete = false;
        const auto hits = cluster.router().search(q, 10, &complete, 64);
        if (!complete) {
          problem = "a scatter-gather leg went unanswered";
        } else if (results_bytes(hits) !=
                   results_bytes(oracle.search_n(q, 10))) {
          problem = "scatter-gather results diverged from the oracle";
        }
      }
    }
    last_routing = cluster.router().routing();
    if (!problem.empty()) {
      ++failed_seeds;
      std::cout << "seed " << seed << ": FAIL — " << problem << "\n";
    }
    std::filesystem::remove_all(dir);
  }

  util::Table table({"metric", "value"});
  table.add_row({"seeds", util::Table::num(seeds)});
  table.add_row({"nodes", util::Table::num(nodes)});
  table.add_row(
      {"partitions", util::Table::num(last_routing.table.primary_of.size())});
  table.add_row(
      {"uploads routed", util::Table::num(cm.uploads_routed.value() - routed0)});
  table.add_row({"sub-uploads", util::Table::num(cm.subuploads.value() - sub0)});
  table.add_row(
      {"query legs fanned", util::Table::num(cm.fanout_nodes.value() - fan0)});
  table.add_row({"query legs pruned",
                 util::Table::num(cm.fanout_skipped.value() - skip0)});
  table.add_row({"replicate batches",
                 util::Table::num(cm.replicate_batches.value() - batches0)});
  table.add_row({"replicate records",
                 util::Table::num(cm.replicate_records.value() - records0)});
  table.add_row(
      {"promotions", util::Table::num(cm.promotions.value() - promo0)});
  table.add_row({"demotions", util::Table::num(cm.demotions.value() - demo0)});
  table.print(std::cout);

  std::cout << "routing after the last seed (epoch "
            << last_routing.table.epoch << "):";
  for (std::size_t p = 0; p < last_routing.table.primary_of.size(); ++p) {
    std::cout << " p" << p << "->n" << last_routing.table.primary_of[p];
  }
  std::cout << "\n";
  if (failed_seeds != 0) {
    std::cerr << "error: " << failed_seeds << "/" << seeds
              << " seeds diverged from the fault-free oracle\n";
    print_failure_context(std::cerr);
    return 2;
  }
  std::cout << "all " << seeds
            << " seeds converged through crash, promotion, and resync\n";
  return dump_metrics(flags);
}

int cmd_scrub(const std::map<std::string, std::string>& flags) {
  // One pass of the at-rest integrity scrub (store/scrub.hpp) over a
  // durability directory: verify every CRC frame of every WAL segment and
  // snapshot, report what is torn vs corrupt, optionally quarantine.
  // --selftest runs a self-contained bit-rot → detect → quarantine cycle
  // in a temp directory instead (the CI smoke).
  if (flag_num(flags, "selftest", 0) != 0) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("svgctl_scrub_selftest_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::string problem;
    {
      net::ServerDurabilityConfig d;
      d.data_dir = dir;
      d.fsync = store::FsyncPolicy::kNone;
      d.segment_bytes = 512;  // roll several cold segments
      d.checkpoint_interval_ms = 0;
      net::CloudServer server({}, {}, d);
      sim::CityModel city;
      util::Xoshiro256 rng(7);
      for (std::size_t u = 0; u < 32; ++u) {
        net::UploadMessage msg;
        msg.upload_id = u + 1;
        msg.video_id = u + 1;
        msg.segments = sim::random_representative_fovs(
            3, city, 1'400'000'000'000, 3'600'000, rng);
        for (std::size_t i = 0; i < msg.segments.size(); ++i) {
          msg.segments[i].video_id = msg.video_id;
          msg.segments[i].segment_id = static_cast<std::uint32_t>(i);
        }
        if (!server.ingest(msg)) problem = "selftest ingest failed";
        if (u % 4 == 3) server.sync_wal();
      }
      server.sync_wal();
    }
    // Flip one bit in the first (cold) segment.
    std::vector<std::string> segs;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("wal-", 0) == 0 && name.size() == 24 &&
          name.substr(20) == ".log") {
        segs.push_back(e.path().string());
      }
    }
    std::sort(segs.begin(), segs.end());
    if (problem.empty() && segs.size() < 2) {
      problem = "selftest corpus did not span a cold segment";
    }
    if (problem.empty()) {
      std::fstream f(segs.front(),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(0, std::ios::end);
      const auto size = static_cast<std::streamoff>(f.tellg());
      char byte = 0;
      f.seekg(size / 2);
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x10);
      f.seekp(size / 2);
      f.write(&byte, 1);
    }
    if (problem.empty()) {
      const store::ScrubReport report = store::scrub_directory(dir);
      if (report.findings.size() != 1 || !report.findings.front().quarantined) {
        problem = "scrub did not detect and quarantine the flipped bit";
      } else if (!std::filesystem::exists(segs.front() + ".quarantine")) {
        problem = "quarantined artifact not renamed";
      } else if (!store::scrub_directory(dir).clean()) {
        problem = "directory still dirty after quarantine";
      }
    }
    std::filesystem::remove_all(dir);
    if (!problem.empty()) {
      std::cerr << "selftest FAIL: " << problem << "\n";
      print_failure_context(std::cerr);
      return 2;
    }
    std::cout << "selftest ok: bit rot detected, artifact quarantined, "
                 "directory clean again\n";
    return 0;
  }

  const auto dir = flag_str(flags, "data-dir", "");
  if (dir.empty()) {
    std::cerr << "error: scrub requires --data-dir (or --selftest)\n";
    return 1;
  }
  store::ScrubOptions opts;
  opts.quarantine = flag_num(flags, "quarantine", 0) != 0;
  const store::ScrubReport report = store::scrub_directory(dir, opts);

  util::Table table({"metric", "value"});
  table.add_row({"wal segments", util::Table::num(report.wal_segments)});
  table.add_row({"snapshots", util::Table::num(report.snapshots)});
  table.add_row({"frames verified", util::Table::num(report.frames_verified)});
  table.add_row({"bytes verified", util::Table::num(report.bytes_verified)});
  table.add_row(
      {"torn tails (legal)", util::Table::num(report.torn_tail_segments)});
  table.add_row({"findings", util::Table::num(report.findings.size())});
  table.print(std::cout);
  for (const auto& f : report.findings) {
    std::cout << (f.kind == store::ScrubFinding::Kind::kWalSegment
                      ? "wal segment "
                      : "snapshot ")
              << f.path << ": " << f.detail
              << (f.quarantined ? " [quarantined]" : "") << "\n";
  }
  if (!report.findings.empty()) {
    std::cerr << "error: " << report.findings.size()
              << " corrupt artifact(s) at rest"
              << (opts.quarantine ? "" : " (re-run with --quarantine 1)")
              << "\n";
    print_failure_context(std::cerr);
    return 2;
  }
  std::cout << "clean: every frame verified\n";
  return dump_metrics(flags);
}

int cmd_compact(const std::map<std::string, std::string>& flags) {
  // Load a corpus (or recover a durable data dir) into a server, seal the
  // memtable, and run compaction to completion — the operator's offline
  // "pack this index" tool. Prints the run structure before and after so
  // the merge is visible.
  net::ServerDurabilityConfig dcfg;
  if (!durability_from_flags(flags, dcfg)) return 1;

  auto server = open_durable_server(index_from_flags(flags), {}, dcfg);
  if (!server) return 2;
  if (server->durable()) {
    std::cout << server->recovery().summary() << "\n";
  } else {
    const auto in = flag_str(flags, "in", "corpus.svgx");
    const auto loaded = server->load_snapshot(in);
    if (!loaded) {
      std::cerr << "error: cannot read " << in << "\n";
      return 2;
    }
  }

  print_tiered_stats(*server->tiered_run_stats(), "before");
  (void)server->seal_index_now();
  const bool full = flag_num(flags, "full", 1) != 0;
  std::size_t merged_total = 0;
  std::size_t merged;
  while ((merged = server->compact_index_now(full)) > 0) {
    merged_total += merged;
    if (!full) break;  // one round in partial mode
  }
  std::cout << "compacted " << merged_total << " input runs\n";
  print_tiered_stats(*server->tiered_run_stats(), "after");
  return dump_metrics(flags);
}

int cmd_trace(const std::map<std::string, std::string>& flags) {
  const auto mode = flag_str(flags, "mode", "text");
  if (mode != "text" && mode != "chrome" && mode != "slow" &&
      mode != "journal") {
    std::cerr << "error: --mode must be text, chrome, slow, or journal\n";
    return 1;
  }
  enable_tracing(flags);

  net::ServerDurabilityConfig dcfg;
  if (!durability_from_flags(flags, dcfg)) return 1;
  auto server = open_durable_server({}, {}, dcfg);
  if (!server) return 2;
  if (!server->durable()) {
    const auto in = flag_str(flags, "in", "corpus.svgx");
    if (!server->load_snapshot(in)) {
      std::cerr << "error: cannot read " << in << "\n";
      return 2;
    }
  }

  retrieval::Query q;
  q.center.lat = flag_num(flags, "lat", 39.9042);
  q.center.lng = flag_num(flags, "lng", 116.4074);
  q.radius_m = flag_num(flags, "radius", 50.0);
  q.t_start = static_cast<core::TimestampMs>(flag_num(flags, "from", 0));
  q.t_end = static_cast<core::TimestampMs>(
      flag_num(flags, "to", 9'999'999'999'999.0));

  const auto queries =
      static_cast<std::size_t>(flag_num(flags, "queries", 8));
  std::size_t hits = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    hits += server->search(q).size();
  }
  std::cout << queries << " traced queries, " << hits << " total hits\n";

  std::ofstream file;
  std::ostream* os = &std::cout;
  const auto out = flag_str(flags, "out", "");
  if (!out.empty() && out != "-") {
    file.open(out);
    if (!file) {
      std::cerr << "error: cannot write " << out << "\n";
      return 2;
    }
    os = &file;
  }

  if (mode == "journal") {
    obs::write_journal_text(*os, obs::Journal::global().tail());
    return 0;
  }
  const auto& ring =
      mode == "slow" ? obs::tracer().slow_ring() : obs::tracer().ring();
  const auto traces = ring.snapshot();
  if (mode == "chrome") {
    obs::write_chrome_trace(*os, traces);
    if (os != &std::cout) {
      std::cout << "wrote " << out << " (" << traces.size()
                << " traces; open in chrome://tracing)\n";
    }
    return 0;
  }
  if (traces.empty()) {
    *os << (mode == "slow" ? "slow-request log empty (no root ran >= "
                             "--slow-ms)\n"
                           : "trace ring empty\n");
    return 0;
  }
  for (const auto& t : traces) obs::write_trace_text(*os, *t);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: svgctl "
                 "<generate|info|query|trace|recover|wal-dump|chaos|cluster|"
                 "scrub|compact> [--flag value ...]\n"
                 "  query/chaos/compact take --memtable N\n";
    return 1;
  }
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  if (cmd == "generate") return cmd_generate(flags);
  if (cmd == "info") return cmd_info(flags);
  if (cmd == "query") return cmd_query(flags);
  if (cmd == "compact") return cmd_compact(flags);
  if (cmd == "trace") return cmd_trace(flags);
  if (cmd == "recover") return cmd_recover(flags);
  if (cmd == "wal-dump") return cmd_wal_dump(flags);
  if (cmd == "chaos") return cmd_chaos(flags);
  if (cmd == "cluster") return cmd_cluster(flags);
  if (cmd == "scrub") return cmd_scrub(flags);
  std::cerr << "unknown command: " << cmd << "\n";
  return 1;
}
