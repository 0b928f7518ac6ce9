// Section IV claim — "uploading the relevant video segment targeted to the
// query can save a lot of web traffic". End-to-end two-phase protocol over
// a crowd corpus: phase 1 descriptors at record time, phase 2 clip fetch at
// query time, compared against (a) a data-centric design that uploads every
// recording in full up front and (b) a naive phase 2 that pulls the whole
// matched recording instead of the matched segment.

#include <iostream>
#include <map>

#include "media/video_store.hpp"
#include "net/client.hpp"
#include "net/clip_fetch.hpp"
#include "net/server.hpp"
#include "sim/crowd.hpp"
#include "util/table.hpp"

int main() {
  using namespace svg;
  const core::CameraIntrinsics cam{30.0, 100.0};
  const core::SimilarityModel model(cam);

  sim::CityModel city;
  city.extent_m = 1500.0;
  sim::CrowdConfig cfg;
  cfg.providers = 60;
  cfg.min_duration_s = 30.0;
  cfg.max_duration_s = 120.0;
  cfg.fps = 15.0;
  cfg.window_length_ms = 3'600'000;
  util::Xoshiro256 rng(47);
  const auto sessions = sim::generate_crowd(city, cfg, rng);

  retrieval::RetrievalConfig rcfg;
  rcfg.camera = cam;
  rcfg.orientation_slack_deg = 10.0;
  rcfg.top_n = 10;
  net::CloudServer server({}, rcfg);

  // Per-provider stores and links.
  std::map<std::uint64_t, media::VideoStore> stores;
  std::map<std::uint64_t, net::Link> links;
  net::FetchCoordinator coordinator;
  std::uint64_t descriptor_bytes = 0;
  std::uint64_t full_corpus_bytes = 0;
  for (const auto& s : sessions) {
    net::MobileClient client(s.video_id, model, {0.5});
    const auto msg = net::capture_session(client, s.records);
    const auto bytes = net::encode_upload(msg);
    descriptor_bytes += bytes.size();
    server.handle_upload(bytes);

    media::RecordedVideo video(s.video_id, s.records.front().t,
                               s.records.back().t);
    full_corpus_bytes += video.total_bytes();
    stores[s.video_id].add(std::move(video));
    coordinator.register_provider(s.video_id, &stores[s.video_id],
                                  &links[s.video_id]);
  }

  // Query workload: 50 incident lookups; fetch the top-3 clips for each.
  std::uint64_t naive_matched_video_bytes = 0;
  std::size_t total_results = 0;
  for (int q = 0; q < 50; ++q) {
    const auto& s = sessions[rng.bounded(sessions.size())];
    const auto& frame =
        s.ground_truth[rng.bounded(s.ground_truth.size())];
    retrieval::Query query;
    query.center = geo::offset_m(
        frame.fov.p, 40.0 * std::sin(geo::deg_to_rad(frame.fov.theta_deg)),
        40.0 * std::cos(geo::deg_to_rad(frame.fov.theta_deg)));
    query.radius_m = 30.0;
    query.t_start = frame.t - 15'000;
    query.t_end = frame.t + 15'000;
    const auto results = server.search(query);
    total_results += results.size();
    const auto clips =
        coordinator.fetch_all(results, {}, 3, query.t_start, query.t_end)
            .clips;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, results.size());
         ++i) {
      if (const auto* v =
              stores[results[i].rep.video_id].find(results[i].rep.video_id)) {
        naive_matched_video_bytes += v->total_bytes();
      }
    }
  }

  const auto& fs = coordinator.stats();
  std::cout << "=== Two-phase traffic: descriptors + matched clips only "
               "===\n";
  std::cout << sessions.size() << " recordings ("
            << full_corpus_bytes / 1'000'000 << " MB on devices), 50 "
            << "queries, " << total_results << " matches, "
            << fs.clips_fetched << " clips fetched\n\n";

  util::Table table({"design", "bytes_moved", "MB", "vs_data_centric"});
  const auto row = [&](const char* name, double bytes) {
    table.add_row({name, util::Table::num(bytes, 0),
                   util::Table::num(bytes / 1e6, 1),
                   util::Table::num(
                       100.0 * bytes / static_cast<double>(full_corpus_bytes),
                       2) +
                       "%"});
  };
  row("data-centric: upload everything",
      static_cast<double>(full_corpus_bytes));
  row("naive phase 2: pull whole matched videos",
      static_cast<double>(descriptor_bytes + naive_matched_video_bytes));
  row("this paper: descriptors + matched segments",
      static_cast<double>(descriptor_bytes + fs.clip_bytes));
  table.print(std::cout);

  std::cout << "\nphase 1 descriptors: " << descriptor_bytes
            << " B; phase 2 clips: " << fs.clip_bytes / 1'000'000
            << " MB; segment cut saves "
            << util::Table::num(
                   100.0 * (1.0 - static_cast<double>(fs.clip_bytes) /
                                      static_cast<double>(
                                          naive_matched_video_bytes)),
                   1)
            << "% of the naive matched-video transfer.\n";
  return 0;
}
