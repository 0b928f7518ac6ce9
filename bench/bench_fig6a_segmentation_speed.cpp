// Fig. 6(a) — segmentation efficiency: time to segment a fixed-length video
// with the FoV-based algorithm vs the content-based baseline at several
// resolutions. The paper reports the CV cost growing with resolution while
// the FoV cost is resolution-independent and "at least three orders of
// magnitude faster".

#include <iostream>
#include <vector>

#include "cv/renderer.hpp"
#include "cv/segmentation.hpp"
#include "net/client.hpp"
#include "sim/sensors.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main() {
  using namespace svg;
  const core::CameraIntrinsics cam{30.0, 100.0};
  const geo::LatLng origin{39.9042, 116.4074};
  const double fps = 30.0, duration_s = 60.0;

  // One 60 s walking recording, sensors + rendered pixels.
  sim::StraightTrajectory traj(origin, 0.0, 1.4, duration_s);
  sim::SensorNoiseConfig noise;
  sim::SensorSampler sampler(noise, {fps, 0});
  util::Xoshiro256 rng(7);
  const auto records = sampler.sample(traj, rng);

  util::Xoshiro256 wrng(8);
  const auto world = cv::World::street_canyon(
      1.4 * duration_s + 150.0, 18.0, 12.0, wrng);

  std::cout << "=== Fig. 6(a): segmentation time for a " << duration_s
            << " s video (" << records.size() << " frames) ===\n\n";
  util::Table table({"method", "resolution", "segment_time_ms",
                     "us_per_frame", "segments"});

  // FoV-based segmentation (resolution-independent): the phone's own path,
  // a fresh MobileClient segmenting and abstracting the whole recording.
  // Repeat to get a stable timing above clock resolution.
  const core::SimilarityModel model(cam);
  double fov_ms = 0.0;
  {
    const int reps = 200;
    std::size_t n_segs = 0;
    util::Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      net::MobileClient client(1, model, {0.5});
      n_segs = net::capture_session(client, records).segments.size();
    }
    fov_ms = sw.elapsed_ms() / reps;
    table.add_row({"FoV", "n/a", util::Table::num(fov_ms, 4),
                   util::Table::num(fov_ms * 1000.0 /
                                        static_cast<double>(records.size()),
                                    3),
                   util::Table::num(n_segs)});
  }

  // CV segmentation at the paper's three resolutions. Rendering is NOT
  // timed (a real system decodes frames it already has); only the
  // per-frame differencing loop is.
  std::vector<double> cv_ms;
  for (const cv::Resolution res :
       {cv::Resolution::qvga(), cv::Resolution::vga(),
        cv::Resolution::hd720()}) {
    cv::RenderOptions ropt;
    ropt.resolution = res;
    const cv::SceneRenderer renderer(world, cam, geo::LocalFrame(origin),
                                     ropt);
    const auto frames = render_video(renderer, traj, fps);

    cv::ContentSegmenterConfig cfg;
    cfg.threshold = 0.9;
    util::Stopwatch sw;
    const auto segs = cv::segment_by_content(frames, cfg);
    const double ms = sw.elapsed_ms();
    cv_ms.push_back(ms);
    table.add_row({"CV(frame-diff)",
                   std::to_string(res.width) + "x" + std::to_string(res.height),
                   util::Table::num(ms, 2),
                   util::Table::num(ms * 1000.0 /
                                        static_cast<double>(frames.size()),
                                    1),
                   util::Table::num(segs.size())});
  }

  table.print(std::cout);

  std::cout << "\nCV cost grows with resolution: "
            << (cv_ms[0] < cv_ms[1] && cv_ms[1] < cv_ms[2] ? "yes" : "NO")
            << "\nFoV speedup vs CV@720p: "
            << util::Table::num(cv_ms[2] / fov_ms, 0) << "x (paper: >= 1000x)\n";
  return 0;
}
