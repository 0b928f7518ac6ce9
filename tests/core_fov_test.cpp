#include "core/fov.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geo/angle.hpp"

namespace {

using namespace svg::core;
using svg::geo::LatLng;
using svg::geo::offset_m;

const LatLng kOrigin{39.9042, 116.4074};

TEST(CameraIntrinsicsTest, FullAngleIsTwiceAlpha) {
  const CameraIntrinsics c{30.0, 100.0};
  EXPECT_DOUBLE_EQ(c.full_angle_deg(), 60.0);
}

TEST(CameraIntrinsicsTest, LateralExtentFormula) {
  const CameraIntrinsics c{30.0, 100.0};
  EXPECT_NEAR(c.lateral_extent_m(), 100.0, 1e-9);  // 2·100·sin 30°
  const CameraIntrinsics wide{45.0, 50.0};
  EXPECT_NEAR(wide.lateral_extent_m(), 100.0 * std::sqrt(0.5), 1e-9);
}

TEST(CoversPointTest, InFrontWithinRange) {
  const CameraIntrinsics c{30.0, 100.0};
  const FoV f{kOrigin, 0.0};  // facing north
  EXPECT_TRUE(covers_point(f, c, offset_m(kOrigin, 0, 50)));
  EXPECT_TRUE(covers_point(f, c, offset_m(kOrigin, 20, 60)));
}

TEST(CoversPointTest, OwnPositionCovered) {
  const CameraIntrinsics c{30.0, 100.0};
  const FoV f{kOrigin, 123.0};
  EXPECT_TRUE(covers_point(f, c, kOrigin));
}

TEST(CoversPointTest, BeyondRadiusNotCovered) {
  const CameraIntrinsics c{30.0, 100.0};
  const FoV f{kOrigin, 0.0};
  EXPECT_FALSE(covers_point(f, c, offset_m(kOrigin, 0, 101)));
}

TEST(CoversPointTest, BehindNotCovered) {
  const CameraIntrinsics c{30.0, 100.0};
  const FoV f{kOrigin, 0.0};
  EXPECT_FALSE(covers_point(f, c, offset_m(kOrigin, 0, -10)));
}

TEST(CoversPointTest, OutsideConeNotCovered) {
  const CameraIntrinsics c{30.0, 100.0};
  const FoV f{kOrigin, 0.0};
  // 45° off-axis at 50 m: outside a 30° half-angle.
  EXPECT_FALSE(covers_point(f, c, offset_m(kOrigin, 35.4, 35.4)));
}

TEST(CoversPointTest, ConeFollowsHeading) {
  const CameraIntrinsics c{30.0, 100.0};
  const FoV east{kOrigin, 90.0};
  EXPECT_TRUE(covers_point(east, c, offset_m(kOrigin, 50, 0)));
  EXPECT_FALSE(covers_point(east, c, offset_m(kOrigin, 0, 50)));
}

TEST(ViewableSceneTest, MatchesCoversPoint) {
  const CameraIntrinsics c{25.0, 80.0};
  const FoV f{offset_m(kOrigin, 10, 20), 47.0};
  const svg::geo::LocalFrame frame(kOrigin);
  const auto sector = viewable_scene(f, c, frame);
  EXPECT_NEAR(sector.apex.x, 10.0, 0.05);
  EXPECT_NEAR(sector.apex.y, 20.0, 0.05);
  EXPECT_EQ(sector.azimuth_deg, 47.0);
  EXPECT_EQ(sector.half_angle_deg, 25.0);
  EXPECT_EQ(sector.radius_m, 80.0);
  // Sample points agree between the two coverage predicates.
  for (double e : {0.0, 30.0, 60.0}) {
    for (double n : {0.0, 30.0, 60.0}) {
      const LatLng target = offset_m(kOrigin, e, n);
      EXPECT_EQ(covers_point(f, c, target),
                sector.covers(frame.to_local(target)))
          << e << "," << n;
    }
  }
}

TEST(RepresentativeFovTest, Duration) {
  RepresentativeFov r;
  r.t_start = 1000;
  r.t_end = 4500;
  EXPECT_EQ(r.duration_ms(), 3500);
}

}  // namespace
