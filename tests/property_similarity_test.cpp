// Property-based sweeps over the similarity measurement: randomized FoV
// pairs across many camera geometries must satisfy the paper's axioms
// (boundedness, identity, symmetry, monotone decay) without exception.

#include <gtest/gtest.h>

#include <cmath>

#include "core/segmentation.hpp"
#include "core/similarity.hpp"
#include "geo/angle.hpp"
#include "geo/geodesy.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::core;
using svg::geo::LatLng;
using svg::geo::offset_m;

struct Geometry {
  double alpha;
  double radius;
};

class SimilarityProperties : public ::testing::TestWithParam<Geometry> {
 protected:
  const LatLng origin_{39.9042, 116.4074};

  FoV random_fov(svg::util::Xoshiro256& rng, double span_m) const {
    return {offset_m(origin_, rng.uniform(-span_m, span_m),
                     rng.uniform(-span_m, span_m)),
            rng.uniform(0.0, 360.0)};
  }
};

TEST_P(SimilarityProperties, BoundedInUnitInterval) {
  const auto [alpha, radius] = GetParam();
  const SimilarityModel m({alpha, radius});
  svg::util::Xoshiro256 rng(static_cast<std::uint64_t>(alpha * 100));
  for (int i = 0; i < 2000; ++i) {
    const FoV a = random_fov(rng, 3.0 * radius);
    const FoV b = random_fov(rng, 3.0 * radius);
    const double s = m.similarity(a, b);
    ASSERT_GE(s, 0.0) << i;
    ASSERT_LE(s, 1.0) << i;
    ASSERT_FALSE(std::isnan(s)) << i;
  }
}

TEST_P(SimilarityProperties, IdentityIsExactlyOne) {
  const auto [alpha, radius] = GetParam();
  const SimilarityModel m({alpha, radius});
  svg::util::Xoshiro256 rng(7);
  for (int i = 0; i < 200; ++i) {
    const FoV f = random_fov(rng, 2.0 * radius);
    ASSERT_DOUBLE_EQ(m.similarity(f, f), 1.0) << i;
  }
}

TEST_P(SimilarityProperties, Symmetry) {
  const auto [alpha, radius] = GetParam();
  const SimilarityModel m({alpha, radius});
  svg::util::Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const FoV a = random_fov(rng, 2.0 * radius);
    const FoV b = random_fov(rng, 2.0 * radius);
    ASSERT_NEAR(m.similarity(a, b), m.similarity(b, a), 1e-9) << i;
  }
}

TEST_P(SimilarityProperties, MonotoneInRotation) {
  const auto [alpha, radius] = GetParam();
  const SimilarityModel m({alpha, radius});
  // Fixed positions, heading difference sweeping 0 → 180.
  const FoV base{origin_, 0.0};
  double prev = 2.0;
  for (double dt = 0.0; dt <= 180.0; dt += 2.5) {
    const double s = m.similarity(base, {origin_, dt});
    ASSERT_LE(s, prev + 1e-12) << dt;
    prev = s;
  }
}

TEST_P(SimilarityProperties, MonotoneInDistanceForRandomDirections) {
  const auto [alpha, radius] = GetParam();
  const SimilarityModel m({alpha, radius});
  svg::util::Xoshiro256 rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const double dir = rng.uniform(0.0, 360.0);
    const double heading = rng.uniform(0.0, 360.0);
    double e, n;
    svg::geo::direction_of_azimuth(dir, e, n);
    const FoV base{origin_, heading};
    double prev = 2.0;
    for (double d = 0.0; d <= 2.0 * radius; d += radius / 20.0) {
      const FoV moved{offset_m(origin_, d * e, d * n), heading};
      const double s = m.similarity(base, moved);
      ASSERT_LE(s, prev + 1e-9)
          << "trial " << trial << " d " << d;
      prev = s;
    }
  }
}

TEST_P(SimilarityProperties, ZeroExactlyWhenComponentsSayZero) {
  const auto [alpha, radius] = GetParam();
  const SimilarityModel m({alpha, radius});
  // Heading difference at the full angle: rotation component zero.
  ASSERT_EQ(m.similarity({origin_, 0.0}, {origin_, 2.0 * alpha}), 0.0);
  // Just inside: positive.
  ASSERT_GT(m.similarity({origin_, 0.0}, {origin_, 2.0 * alpha - 0.5}),
            0.0);
}

TEST_P(SimilarityProperties, TranslationDirectionExtremesBracket) {
  // For any direction θ_p, Sim_T must lie between Sim_⊥ and Sim_∥.
  const auto [alpha, radius] = GetParam();
  const SimilarityModel m({alpha, radius});
  for (double d = 0.0; d <= 1.5 * radius; d += radius / 10.0) {
    const double lo = m.sim_perpendicular(d);
    const double hi = m.sim_parallel(d);
    for (double dir = 0.0; dir < 360.0; dir += 15.0) {
      const double s = m.sim_translation(d, dir);
      ASSERT_GE(s, lo - 1e-12) << d << " " << dir;
      ASSERT_LE(s, hi + 1e-12) << d << " " << dir;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CameraGeometries, SimilarityProperties,
    ::testing::Values(Geometry{15.0, 30.0}, Geometry{25.0, 60.0},
                      Geometry{30.0, 100.0}, Geometry{35.0, 150.0},
                      Geometry{45.0, 20.0}, Geometry{60.0, 80.0}));

// Segmentation invariants under random sensor streams, across thresholds.
class SegmentationProperties : public ::testing::TestWithParam<double> {};

TEST_P(SegmentationProperties, PartitionOrderAndAnchorCoherence) {
  const double threshold = GetParam();
  const SimilarityModel m({30.0, 100.0});
  svg::util::Xoshiro256 rng(
      static_cast<std::uint64_t>(threshold * 1000) + 1);
  const LatLng origin{39.9, 116.4};

  std::vector<FovRecord> frames;
  LatLng pos = origin;
  double heading = 0.0;
  for (int i = 0; i < 600; ++i) {
    pos = offset_m(pos, rng.gaussian(0.0, 1.0), rng.gaussian(0.5, 1.0));
    heading = svg::geo::wrap_deg(heading + rng.gaussian(0.0, 4.0));
    frames.push_back({i * 100, {pos, heading}});
  }
  // Segment boundaries are the frames whose push() returns the closed
  // segment's representative; each such frame anchors the next segment.
  StreamingAbstractionPipeline pipe(m, {threshold}, 1);
  std::vector<std::size_t> starts{0};
  std::vector<RepresentativeFov> reps;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (auto rep = pipe.push(frames[i])) {
      reps.push_back(*rep);
      starts.push_back(i);
    }
  }
  if (auto rep = pipe.finish()) reps.push_back(*rep);
  ASSERT_EQ(reps.size(), starts.size());
  starts.push_back(frames.size());

  std::size_t total = 0;
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const std::size_t begin = starts[k], end = starts[k + 1];
    ASSERT_LT(begin, end);
    total += end - begin;
    ASSERT_EQ(reps[k].segment_id, k);
    ASSERT_EQ(reps[k].t_start, frames[begin].t);
    ASSERT_EQ(reps[k].t_end, frames[end - 1].t);
    // Every frame in a segment is >= threshold-similar to its anchor
    // (the first frame) — Algorithm 1's invariant.
    const FoV anchor = frames[begin].fov;
    for (std::size_t j = begin; j < end; ++j) {
      ASSERT_GE(m.similarity(anchor, frames[j].fov), threshold);
    }
    // The next segment's first frame broke the invariant.
    if (end < frames.size()) {
      ASSERT_LT(m.similarity(anchor, frames[end].fov), threshold);
    }
  }
  ASSERT_EQ(total, frames.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SegmentationProperties,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
