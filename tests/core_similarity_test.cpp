// Validates the FoV similarity measurement (Section III) against every
// property the paper states, plus agreement with the exact sector-overlap
// oracle.

#include "core/similarity.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geo/angle.hpp"
#include "geo/geodesy.hpp"
#include "geo/vec2.hpp"
#include "util/rng.hpp"

namespace {

using svg::core::CameraIntrinsics;
using svg::core::FoV;
using svg::core::SimilarityModel;
using svg::geo::LatLng;
using svg::geo::offset_m;

const LatLng kOrigin{39.9042, 116.4074};

CameraIntrinsics cam(double alpha = 30.0, double radius = 100.0) {
  return {alpha, radius};
}

FoV fov_at(double east, double north, double theta) {
  return {offset_m(kOrigin, east, north), theta};
}

// --- Eq. 4: rotation --------------------------------------------------------

TEST(SimRotationTest, IdentityIsOne) {
  SimilarityModel m(cam());
  EXPECT_DOUBLE_EQ(m.sim_rotation(0.0), 1.0);
}

TEST(SimRotationTest, LinearDecreaseUntilFullAngle) {
  SimilarityModel m(cam(30.0));
  // Eq. 4: (2α − δθ)/(2α) with 2α = 60°.
  EXPECT_NEAR(m.sim_rotation(15.0), 45.0 / 60.0, 1e-12);
  EXPECT_NEAR(m.sim_rotation(30.0), 30.0 / 60.0, 1e-12);
  EXPECT_NEAR(m.sim_rotation(59.9), 0.1 / 60.0, 1e-9);
}

TEST(SimRotationTest, ZeroBeyondFullAngle) {
  SimilarityModel m(cam(30.0));
  EXPECT_DOUBLE_EQ(m.sim_rotation(60.0), 0.0);
  EXPECT_DOUBLE_EQ(m.sim_rotation(90.0), 0.0);
  EXPECT_DOUBLE_EQ(m.sim_rotation(180.0), 0.0);
}

TEST(SimRotationTest, UsesCircularDifference) {
  SimilarityModel m(cam(30.0));
  EXPECT_NEAR(m.sim_rotation(350.0), m.sim_rotation(10.0), 1e-12);
  EXPECT_NEAR(m.sim_rotation(-20.0), m.sim_rotation(20.0), 1e-12);
}

// --- Eq. 5: parallel translation --------------------------------------------

TEST(SimParallelTest, ZeroDistanceIsOne) {
  SimilarityModel m(cam());
  EXPECT_NEAR(m.sim_parallel(0.0), 1.0, 1e-12);
}

TEST(SimParallelTest, PhiMatchesEq5) {
  const double alpha = 30.0, R = 100.0, d = 50.0;
  SimilarityModel m(cam(alpha, R));
  const double expected = svg::geo::rad_to_deg(
      std::atan(R * std::sin(svg::geo::deg_to_rad(alpha)) /
                (d + R * std::cos(svg::geo::deg_to_rad(alpha)))));
  EXPECT_NEAR(m.phi_parallel_deg(d), expected, 1e-9);
}

TEST(SimParallelTest, StrictlyDecreasingButPositive) {
  SimilarityModel m(cam(30.0, 100.0));
  double prev = m.sim_parallel(0.0);
  for (double d = 10.0; d <= 2000.0; d += 10.0) {
    const double s = m.sim_parallel(d);
    ASSERT_LT(s, prev) << d;
    ASSERT_GT(s, 0.0) << d;  // paper: Sim_∥ always positive
    prev = s;
  }
}

// --- Sim_⊥: perpendicular translation ---------------------------------------

TEST(SimPerpendicularTest, ZeroDistanceIsOne) {
  SimilarityModel m(cam());
  EXPECT_NEAR(m.sim_perpendicular(0.0), 1.0, 1e-12);
}

TEST(SimPerpendicularTest, HitsZeroAtLateralExtent) {
  // Paper: Sim_⊥ drops to 0 when d reaches 2R sin α.
  const CameraIntrinsics c = cam(30.0, 100.0);
  SimilarityModel m(c);
  const double lateral = c.lateral_extent_m();
  EXPECT_NEAR(lateral, 100.0, 1e-9);  // 2·100·sin30° = 100
  EXPECT_GT(m.sim_perpendicular(lateral - 1.0), 0.0);
  EXPECT_DOUBLE_EQ(m.sim_perpendicular(lateral), 0.0);
  EXPECT_DOUBLE_EQ(m.sim_perpendicular(lateral + 50.0), 0.0);
}

TEST(SimPerpendicularTest, StrictlyDecreasingUntilZero) {
  SimilarityModel m(cam(30.0, 100.0));
  double prev = m.sim_perpendicular(0.0);
  for (double d = 5.0; d < 100.0; d += 5.0) {
    const double s = m.sim_perpendicular(d);
    ASSERT_LT(s, prev) << d;
    prev = s;
  }
}

// Paper property (Eq. 8): Sim_∥ ≥ Sim_⊥, equality iff d = 0 — parameterized
// across camera geometries.
class ParallelDominatesPerpendicular
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ParallelDominatesPerpendicular, HoldsForAllDistances) {
  const auto [alpha, R] = GetParam();
  SimilarityModel m(cam(alpha, R));
  EXPECT_DOUBLE_EQ(m.sim_parallel(0.0), m.sim_perpendicular(0.0));
  for (double d = 1.0; d <= 3.0 * R; d += R / 50.0) {
    ASSERT_GT(m.sim_parallel(d), m.sim_perpendicular(d))
        << "alpha=" << alpha << " R=" << R << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CameraGeometries, ParallelDominatesPerpendicular,
    ::testing::Values(std::pair{20.0, 50.0}, std::pair{30.0, 100.0},
                      std::pair{35.0, 100.0}, std::pair{45.0, 20.0},
                      std::pair{25.0, 200.0}));

// --- Eq. 9: direction interpolation -----------------------------------------

TEST(SimTranslationTest, EndpointsMatchComponents) {
  SimilarityModel m(cam(30.0, 100.0));
  const double d = 40.0;
  EXPECT_NEAR(m.sim_translation(d, 0.0), m.sim_parallel(d), 1e-12);
  EXPECT_NEAR(m.sim_translation(d, 90.0), m.sim_perpendicular(d), 1e-12);
}

TEST(SimTranslationTest, MidpointIsAverage) {
  SimilarityModel m(cam(30.0, 100.0));
  const double d = 40.0;
  EXPECT_NEAR(m.sim_translation(d, 45.0),
              0.5 * (m.sim_parallel(d) + m.sim_perpendicular(d)), 1e-12);
}

TEST(SimTranslationTest, BackwardFoldsToForward) {
  SimilarityModel m(cam(30.0, 100.0));
  const double d = 40.0;
  EXPECT_NEAR(m.sim_translation(d, 180.0), m.sim_translation(d, 0.0), 1e-12);
  EXPECT_NEAR(m.sim_translation(d, 135.0), m.sim_translation(d, 45.0),
              1e-12);
  EXPECT_NEAR(m.sim_translation(d, 270.0), m.sim_translation(d, 90.0),
              1e-12);
}

TEST(SimTranslationTest, MonotoneInDirection) {
  // Moving from axial (0°) to lateral (90°) can only lose similarity.
  SimilarityModel m(cam(30.0, 100.0));
  const double d = 40.0;
  double prev = m.sim_translation(d, 0.0);
  for (double dir = 10.0; dir <= 90.0; dir += 10.0) {
    const double s = m.sim_translation(d, dir);
    ASSERT_LE(s, prev + 1e-12) << dir;
    prev = s;
  }
}

TEST(SimTranslationTest, ZeroDistanceIsOneForAnyDirection) {
  SimilarityModel m(cam());
  for (double dir = 0.0; dir < 360.0; dir += 30.0) {
    EXPECT_DOUBLE_EQ(m.sim_translation(0.0, dir), 1.0);
  }
}

// --- Eq. 10 + Eq. 3: full similarity ----------------------------------------

TEST(SimilarityTest, IdenticalFovsGiveExactlyOne) {
  SimilarityModel m(cam());
  const FoV f = fov_at(0, 0, 42.0);
  EXPECT_DOUBLE_EQ(m.similarity(f, f), 1.0);
}

TEST(SimilarityTest, NeverExceedsOne) {
  SimilarityModel m(cam());
  for (double east : {0.0, 10.0, -30.0}) {
    for (double theta : {0.0, 15.0, 300.0}) {
      const double s = m.similarity(fov_at(0, 0, 0), fov_at(east, 5, theta));
      ASSERT_LE(s, 1.0);
      ASSERT_GE(s, 0.0);
    }
  }
}

TEST(SimilarityTest, SymmetricInArguments) {
  SimilarityModel m(cam());
  const FoV a = fov_at(0, 0, 10.0);
  const FoV b = fov_at(25.0, 40.0, 50.0);
  EXPECT_NEAR(m.similarity(a, b), m.similarity(b, a), 1e-12);
}

TEST(SimilarityTest, RotationAloneReducesToEq4) {
  SimilarityModel m(cam(30.0));
  const FoV f1 = fov_at(0, 0, 0.0);
  const FoV f2 = fov_at(0, 0, 20.0);
  EXPECT_NEAR(m.similarity(f1, f2), m.sim_rotation(20.0), 1e-12);
}

TEST(SimilarityTest, TranslationAloneReducesToEq9) {
  SimilarityModel m(cam(30.0, 100.0));
  // Both face north; move 30 m north (parallel).
  EXPECT_NEAR(m.similarity(fov_at(0, 0, 0), fov_at(0, 30, 0)),
              m.sim_parallel(30.0), 1e-6);
  // Both face north; move 30 m east (perpendicular).
  EXPECT_NEAR(m.similarity(fov_at(0, 0, 0), fov_at(30, 0, 0)),
              m.sim_perpendicular(30.0), 1e-6);
}

TEST(SimilarityTest, ProductStructure) {
  SimilarityModel m(cam(30.0, 100.0));
  // Rotate 20° AND translate 30 m along the mean axis (10°).
  const FoV f1 = fov_at(0, 0, 0.0);
  const double mean_axis = 10.0;
  const double e = 30.0 * std::sin(svg::geo::deg_to_rad(mean_axis));
  const double n = 30.0 * std::cos(svg::geo::deg_to_rad(mean_axis));
  const FoV f2 = fov_at(e, n, 20.0);
  EXPECT_NEAR(m.similarity(f1, f2),
              m.sim_rotation(20.0) * m.sim_translation(30.0, 0.0), 1e-4);
}

TEST(SimilarityTest, OppositeHeadingsGiveZero) {
  SimilarityModel m(cam(30.0));
  EXPECT_DOUBLE_EQ(m.similarity(fov_at(0, 0, 0), fov_at(5, 5, 180)), 0.0);
}

TEST(SimilarityTest, FarApartFacingSameWayPerpendicularGivesZero) {
  const CameraIntrinsics c = cam(30.0, 100.0);
  SimilarityModel m(c);
  // 150 m > 2R sinα = 100 m lateral separation, same heading.
  EXPECT_DOUBLE_EQ(m.similarity(fov_at(0, 0, 0), fov_at(150, 0, 0)), 0.0);
}

TEST(SimilarityTest, DecreasesWithDistanceAlongAnyDirection) {
  SimilarityModel m(cam(30.0, 100.0));
  for (double dir_deg : {0.0, 30.0, 60.0, 90.0}) {
    const double e_unit = std::sin(svg::geo::deg_to_rad(dir_deg));
    const double n_unit = std::cos(svg::geo::deg_to_rad(dir_deg));
    double prev = 1.0;
    for (double d = 10.0; d <= 90.0; d += 10.0) {
      const double s = m.similarity(fov_at(0, 0, 0),
                                    fov_at(d * e_unit, d * n_unit, 0.0));
      ASSERT_LE(s, prev + 1e-9) << dir_deg << " " << d;
      prev = s;
    }
  }
}

// --- closed form vs exact overlap oracle ------------------------------------

TEST(SimilarityOracleTest, RotationMatchesExactOverlapShape) {
  // For pure rotation the angular-overlap formula is exact.
  SimilarityModel m(cam(30.0, 100.0));
  const FoV f1 = fov_at(0, 0, 0.0);
  for (double dt : {0.0, 15.0, 30.0, 45.0}) {
    const FoV f2 = fov_at(0, 0, dt);
    const double model = m.similarity(f1, f2);
    const double exact = m.exact_overlap_similarity(f1, f2, 384);
    EXPECT_NEAR(model, exact, 0.05) << dt;
  }
}

TEST(SimilarityOracleTest, ModelTracksOracleUnderTranslation) {
  // The closed form approximates the overlap; require qualitative
  // agreement (same ordering, bounded absolute error) rather than
  // equality.
  SimilarityModel m(cam(30.0, 100.0));
  const FoV f1 = fov_at(0, 0, 0.0);
  double prev_model = 2.0, prev_exact = 2.0;
  for (double d : {5.0, 20.0, 40.0, 60.0, 80.0}) {
    const FoV f2 = fov_at(d, 0.0, 0.0);  // perpendicular move
    const double model = m.similarity(f1, f2);
    const double exact = m.exact_overlap_similarity(f1, f2, 384);
    ASSERT_LT(model, prev_model);
    ASSERT_LT(exact, prev_exact);
    EXPECT_NEAR(model, exact, 0.25) << d;
    prev_model = model;
    prev_exact = exact;
  }
}

// --- the heading form of Eq. 10 ---------------------------------------------

svg::geo::Vec2 heading_of(double theta_deg) {
  svg::geo::Vec2 h;
  svg::geo::direction_of_azimuth(theta_deg, h.x, h.y);
  return h;
}

/// Eq. 9 composed from the public Sim_∥ and Sim_⊥, each evaluated on its
/// own: the direction folded into [0°, 90°], then linear interpolation.
double eq9_from_parts(const SimilarityModel& m, double d, double rel_dir) {
  if (d <= 0.0) return 1.0;
  double e = svg::geo::angular_difference_deg(rel_dir, 0.0);
  if (e > 90.0) e = 180.0 - e;
  const double w = e / 90.0;
  return (1.0 - w) * m.sim_parallel(d) + w * m.sim_perpendicular(d);
}

/// The heading form against Eq. 10 composed from the public per-equation
/// functions: Sim_R(δθ) · Sim_T(d, θ_p), with d and the bearing from
/// displacement_m and θ_p against circular_mean_deg({θ1, θ2}). Both must
/// give the same double, and so must the two-FoV form.
void expect_matches_composition(const SimilarityModel& m, const FoV& f1,
                                const FoV& f2) {
  const auto disp = svg::geo::displacement_m(f1.p, f2.p);
  const double d = disp.norm();
  const double bearing =
      d > 0.0 ? svg::geo::azimuth_of_direction(disp.x, disp.y) : 0.0;
  const double thetas[] = {f1.theta_deg, f2.theta_deg};
  const double rel_dir = svg::geo::angular_difference_deg(
      bearing, svg::geo::circular_mean_deg(thetas));
  ASSERT_EQ(m.sim_translation(d, rel_dir), eq9_from_parts(m, d, rel_dir))
      << d << " " << rel_dir;
  const double want =
      m.sim_rotation(
          svg::geo::angular_difference_deg(f1.theta_deg, f2.theta_deg)) *
      m.sim_translation(d, rel_dir);
  const double got = m.similarity(f1, heading_of(f1.theta_deg), f2,
                                  heading_of(f2.theta_deg));
  ASSERT_EQ(got, want) << "alpha " << m.camera().half_angle_deg << " R "
                       << m.camera().radius_m << " theta " << f1.theta_deg
                       << "/" << f2.theta_deg << " d " << d;
  ASSERT_EQ(m.similarity(f1, f2), got);
}

constexpr double kAlphas[] = {10.0, 30.0, 45.0, 89.0, 90.0, 120.0, 179.0};
constexpr double kRadii[] = {20.0, 100.0, 250.0};

TEST(SimilarityHeadingsTest, MatchesPerEquationCompositionOnRandomPairs) {
  // 21 geometries × 50 000 pairs. Half the pairs turn by less than 2α so
  // the translation term is reached; displacements run past 2R sin α.
  svg::util::Xoshiro256 rng(1905);
  std::size_t pairs = 0;
  for (const double alpha : kAlphas) {
    for (const double radius : kRadii) {
      const SimilarityModel m(cam(alpha, radius));
      for (int i = 0; i < 50'000; ++i) {
        const double theta1 = rng.uniform(0.0, 360.0);
        const double turn = rng.bounded(2) == 0
                                ? rng.uniform(-2.0 * alpha, 2.0 * alpha)
                                : rng.uniform(0.0, 360.0);
        const FoV f1 = fov_at(rng.uniform(-1000.0, 1000.0),
                              rng.uniform(-1000.0, 1000.0), theta1);
        const FoV f2{offset_m(f1.p, rng.uniform(-2.5, 2.5) * radius,
                              rng.uniform(-2.5, 2.5) * radius),
                     svg::geo::wrap_deg(theta1 + turn)};
        expect_matches_composition(m, f1, f2);
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 1'000'000u);
}

TEST(SimilarityHeadingsTest, MatchesPerEquationCompositionOnEdgeRows) {
  for (const double alpha : kAlphas) {
    for (const double radius : kRadii) {
      const SimilarityModel m(cam(alpha, radius));
      const double lateral = m.camera().lateral_extent_m();
      for (const double theta : {0.0, 0.01, 89.5, 180.0, 270.0, 359.99}) {
        const FoV f1 = fov_at(0.0, 0.0, theta);
        // d = 0 (same spot) at Δθ = 0, a small turn, 2α and 180°.
        for (const double turn : {0.0, 1.0, 2.0 * alpha, 180.0}) {
          expect_matches_composition(
              m, f1, fov_at(0.0, 0.0, svg::geo::wrap_deg(theta + turn)));
        }
        // Δθ = 0 and Δθ = 180° (cancelling headings) across distances,
        // at 2R sin α and beyond it.
        for (const double dist : {0.5, 0.5 * lateral, lateral,
                                  1.5 * lateral, 3.0 * radius}) {
          for (const double dir : {0.0, 45.0, 90.0, 180.0, 300.0}) {
            const double e = dist * std::sin(svg::geo::deg_to_rad(dir));
            const double n = dist * std::cos(svg::geo::deg_to_rad(dir));
            for (const double turn : {0.0, 180.0}) {
              expect_matches_composition(
                  m, f1, fov_at(e, n, svg::geo::wrap_deg(theta + turn)));
            }
          }
        }
      }
    }
  }
}

}  // namespace
