// Section I reproduction — why content-free? The intro argues both classic
// architectures are impractical for crowd-sourced video:
//   * data-centric:  every provider uploads raw video; the cloud computes.
//   * query-centric: the cloud broadcasts the query; every client runs CV
//                    locally over its own footage and replies.
//   * content-free (this paper): clients upload ~20-byte descriptors once;
//                    queries touch only the index.
// We run the same crowd + query workload through all three cost models and
// report per-query network traffic and compute. CV cost is measured (frame
// differencing on rendered frames), not assumed.

#include <unistd.h>

#include <filesystem>
#include <iostream>

#include "cv/renderer.hpp"
#include "cv/similarity.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/upload_queue.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "sim/crowd.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main() {
  using namespace svg;
  const core::CameraIntrinsics cam{30.0, 100.0};
  const core::SimilarityModel model(cam);

  // Crowd: 40 providers, ~1 min videos at 30 fps.
  sim::CityModel city;
  sim::CrowdConfig cfg;
  cfg.providers = 40;
  cfg.min_duration_s = 30.0;
  cfg.max_duration_s = 90.0;
  cfg.fps = 30.0;
  util::Xoshiro256 rng(21);
  const auto sessions = sim::generate_crowd(city, cfg, rng);

  double total_video_bytes = 0.0;
  double total_video_seconds = 0.0;
  std::size_t total_frames = 0;
  std::uint64_t descriptor_bytes = 0;
  net::CloudServer server({}, {.camera = cam,
                               .orientation_slack_deg = 10.0,
                               .orientation_filter = true,
                               .top_n = 10});
  for (const auto& s : sessions) {
    const double dur =
        static_cast<double>(s.records.back().t - s.records.front().t) /
        1000.0;
    total_video_seconds += dur;
    total_video_bytes += net::video_upload_bytes(dur);
    total_frames += s.records.size();
    net::MobileClient client(s.video_id, model, {0.5});
    const auto msg = net::capture_session(client, s.records);
    const auto bytes = net::encode_upload(msg);
    descriptor_bytes += bytes.size();
    server.handle_upload(bytes);
  }

  // Measure real per-frame CV cost once (VGA frame differencing).
  util::Xoshiro256 wrng(22);
  const auto world = cv::World::random_city(300, 400.0, wrng);
  cv::RenderOptions ropt;
  ropt.resolution = cv::Resolution::vga();
  const cv::SceneRenderer renderer(world, cam, geo::LocalFrame(city.center),
                                   ropt);
  const auto fa = renderer.render_local({0, 0}, 0.0);
  const auto fb = renderer.render_local({1, 0}, 2.0);
  util::Stopwatch sw;
  for (int i = 0; i < 100; ++i) {
    (void)cv::frame_difference_similarity(fa, fb);
  }
  const double cv_ms_per_frame = sw.elapsed_ms() / 100.0;

  // A query against the content-free index (measured).
  retrieval::Query q;
  q.center = city.center;
  q.radius_m = 100.0;
  q.t_start = cfg.window_start;
  q.t_end = cfg.window_start + cfg.window_length_ms;
  util::Stopwatch qsw;
  const auto results = server.search(q);
  const double cf_query_ms = qsw.elapsed_ms();
  const auto query_bytes = net::encode_query(
      {q.t_start, q.t_end, q.center, q.radius_m, 10});

  std::cout << "=== Architecture comparison (Section I motivation) ===\n";
  std::cout << "crowd: " << sessions.size() << " videos, "
            << util::Table::num(total_video_seconds, 0) << " s total, "
            << total_frames << " frames\n\n";

  util::Table table({"architecture", "ingest_traffic_bytes",
                     "per_query_traffic_bytes", "per_query_compute_ms",
                     "video_leaves_device"});
  // Data-centric: all video uploaded once; each query scans all frames on
  // the cloud.
  table.add_row({"data-centric (upload all video)",
                 util::Table::num(total_video_bytes, 0),
                 util::Table::num(0.0, 0),
                 util::Table::num(cv_ms_per_frame *
                                      static_cast<double>(total_frames),
                                  0),
                 "yes (all of it)"});
  // Query-centric: no ingest; each query broadcast to every client, each
  // client scans its own frames, replies with matches (assume 1 KB reply).
  table.add_row(
      {"query-centric (broadcast + local CV)", util::Table::num(0.0, 0),
       util::Table::num(static_cast<double>(query_bytes.size()) *
                            static_cast<double>(sessions.size()) +
                        1024.0 * static_cast<double>(sessions.size()),
                        0),
       util::Table::num(cv_ms_per_frame *
                            static_cast<double>(total_frames),
                        0) ,
       "no, but phones burn CPU per query"});
  // Content-free: descriptors ingested once; query touches the index only.
  table.add_row({"content-free (this paper)",
                 util::Table::num(static_cast<double>(descriptor_bytes), 0),
                 util::Table::num(static_cast<double>(query_bytes.size()) +
                                      64.0 * results.size(),
                                  0),
                 util::Table::num(cf_query_ms, 3), "no (until matched)"});
  // Content-free with durable ingest: same architecture plus a write-ahead
  // log (fsync=batch, the production default) in front of the index — the
  // traffic columns are unchanged, the query cost shows durability is free
  // on the read path (the WAL sits only on ingest; see BENCH_wal.json for
  // the ingest-side cost).
  {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("svg_bench_arch_wal_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    net::ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir;
    net::CloudServer durable_server({}, {.camera = cam,
                                         .orientation_slack_deg = 10.0,
                                         .orientation_filter = true,
                                         .top_n = 10},
                                    dcfg);
    for (const auto& s : sessions) {
      net::MobileClient client(s.video_id, model, {0.5});
      durable_server.ingest(net::capture_session(client, s.records));
    }
    util::Stopwatch dsw;
    const auto durable_results = durable_server.search(q);
    const double durable_query_ms = dsw.elapsed_ms();
    table.add_row(
        {"content-free + WAL (fsync=batch)",
         util::Table::num(static_cast<double>(descriptor_bytes), 0),
         util::Table::num(static_cast<double>(query_bytes.size()) +
                              64.0 * durable_results.size(),
                          0),
         util::Table::num(durable_query_ms, 3), "no (until matched)"});
    std::filesystem::remove_all(dir);
  }
  // Content-free over a faulty cellular link (10% drop, 5% duplication):
  // the retrying upload queue retransmits until every descriptor batch is
  // acked and the server dedups by upload_id, so ingest traffic shows the
  // retransmit tax — still ~5 orders of magnitude under data-centric.
  {
    net::SimClock clock;
    net::FaultPlan plan;
    plan.seed = 23;
    plan.drop = 0.10;
    plan.duplicate = 0.05;
    net::Link cell_link;
    net::FaultyLink faulty(cell_link, plan, &clock);
    net::CloudServer lossy_server({}, {.camera = cam,
                                       .orientation_slack_deg = 10.0,
                                       .orientation_filter = true,
                                       .top_n = 10});
    net::RetryPolicy policy;
    policy.max_attempts = 32;
    net::UploadQueue queue(policy, 24, &clock);
    for (const auto& s : sessions) {
      net::MobileClient client(s.video_id, model, {0.5});
      queue.enqueue(net::capture_session(client, s.records));
    }
    (void)queue.drain(net::FaultyUploadChannel(faulty, lossy_server));
    util::Stopwatch lsw;
    const auto lossy_results = lossy_server.search(q);
    const double lossy_query_ms = lsw.elapsed_ms();
    table.add_row(
        {"content-free, 10% loss (retry+dedup)",
         util::Table::num(static_cast<double>(cell_link.stats().bytes_up),
                          0),
         util::Table::num(static_cast<double>(query_bytes.size()) +
                              64.0 * lossy_results.size(),
                          0),
         util::Table::num(lossy_query_ms, 3), "no (until matched)"});
  }
  // Content-free with every request traced (sample_every=1, the most
  // expensive tracer setting): ingest traffic grows by the two trailing
  // trace-context varints per upload, and the query cost shows full span
  // recording. Production samples 1/64 or less — this row is the ceiling.
  {
    obs::TracerConfig tcfg;
    tcfg.enabled = true;
    tcfg.sample_every = 1;
    obs::tracer().configure(tcfg);
    net::CloudServer traced_server({}, {.camera = cam,
                                        .orientation_slack_deg = 10.0,
                                        .orientation_filter = true,
                                        .top_n = 10});
    std::uint64_t traced_ingest_bytes = 0;
    std::uint64_t next_upload = 1;
    for (const auto& s : sessions) {
      net::MobileClient client(s.video_id, model, {0.5});
      auto msg = net::capture_session(client, s.records);
      obs::Span attempt = obs::tracer().root_span("upload.attempt");
      msg.upload_id = next_upload++;
      const auto ctx = obs::tracer().current_context();
      msg.trace_id = ctx.trace_id;
      msg.parent_span_id = ctx.parent_span_id;
      const auto bytes = net::encode_upload(msg);
      traced_ingest_bytes += bytes.size();
      traced_server.handle_upload(bytes);
    }
    util::Stopwatch tsw;
    const auto traced_results = traced_server.search(q);
    const double traced_query_ms = tsw.elapsed_ms();
    obs::tracer().configure({});
    table.add_row(
        {"content-free, traced (sample=1)",
         util::Table::num(static_cast<double>(traced_ingest_bytes), 0),
         util::Table::num(static_cast<double>(query_bytes.size()) +
                              64.0 * traced_results.size(),
                          0),
         util::Table::num(traced_query_ms, 3), "no (until matched)"});
  }
  table.print(std::cout);

  std::cout << "\ningest ratio content-free/data-centric = "
            << util::Table::num(
                   static_cast<double>(descriptor_bytes) / total_video_bytes,
                   8)
            << "; per-query compute ratio = "
            << util::Table::num(
                   cf_query_ms /
                       (cv_ms_per_frame * static_cast<double>(total_frames)),
                   8)
            << "\n";
  return 0;
}
