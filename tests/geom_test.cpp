#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "rim/geom/aabb.hpp"
#include "rim/geom/closest_pair.hpp"
#include "rim/geom/disk.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/sim/generators.hpp"

namespace rim::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(a / 2.0, (Vec2{0.5, 1.0}));
}

TEST(Vec2, DotAndCross) {
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(cross({1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(cross({0, 1}, {1, 0}), -1.0);
  EXPECT_DOUBLE_EQ(cross({2, 3}, {4, 6}), 0.0);  // collinear
}

TEST(Vec2, DistanceIsSymmetricAndNonNegative) {
  const Vec2 a{0.3, 0.7};
  const Vec2 b{-1.2, 4.5};
  EXPECT_DOUBLE_EQ(dist(a, b), dist(b, a));
  EXPECT_GE(dist(a, b), 0.0);
  EXPECT_DOUBLE_EQ(dist(a, a), 0.0);
}

TEST(Vec2, Dist2MatchesDistSquared) {
  const Vec2 a{1.0, 1.0};
  const Vec2 b{4.0, 5.0};
  EXPECT_DOUBLE_EQ(dist2(a, b), 25.0);
  EXPECT_DOUBLE_EQ(dist(a, b), 5.0);
}

TEST(Vec2, LexicographicOrder) {
  EXPECT_LT((Vec2{0, 5}), (Vec2{1, 0}));
  EXPECT_LT((Vec2{1, 0}), (Vec2{1, 1}));
  EXPECT_FALSE((Vec2{1, 1}) < (Vec2{1, 1}));
}

TEST(Vec2, Midpoint) {
  EXPECT_EQ(midpoint({0, 0}, {2, 4}), (Vec2{1, 2}));
}

TEST(Vec2, IsOneDimensional) {
  EXPECT_TRUE(is_one_dimensional({{0, 0}, {1, 0}, {-3, 0}}));
  EXPECT_FALSE(is_one_dimensional({{0, 0}, {1, 1e-9}}));
  EXPECT_TRUE(is_one_dimensional({}));
}

TEST(Disk, ContainsIsClosed) {
  const Disk d{{0, 0}, 1.0};
  EXPECT_TRUE(d.contains({1.0, 0.0}));  // boundary counts
  EXPECT_TRUE(d.contains({0.0, 0.0}));
  EXPECT_FALSE(d.contains({1.0 + 1e-12, 0.0}));
}

TEST(Disk, Intersects) {
  const Disk a{{0, 0}, 1.0};
  EXPECT_TRUE(a.intersects(Disk{{2, 0}, 1.0}));   // tangent
  EXPECT_FALSE(a.intersects(Disk{{2.1, 0}, 1.0}));
  EXPECT_TRUE(a.intersects(Disk{{0.1, 0}, 0.1}));  // nested
}

TEST(Disk, DiametralDisk) {
  const Disk d = diametral_disk({0, 0}, {2, 0});
  EXPECT_EQ(d.center, (Vec2{1, 0}));
  EXPECT_DOUBLE_EQ(d.radius, 1.0);
  EXPECT_TRUE(d.contains({1, 1}));   // top of the circle
  EXPECT_FALSE(d.contains({1, 1.001}));
}

TEST(Aabb, ExpandAndContains) {
  Aabb box{{0, 0}, {0, 0}};
  box.expand({2, -1});
  box.expand({-1, 3});
  EXPECT_TRUE(box.contains({0, 0}));
  EXPECT_TRUE(box.contains({2, 3}));
  EXPECT_FALSE(box.contains({2.1, 0}));
  EXPECT_DOUBLE_EQ(box.width(), 3.0);
  EXPECT_DOUBLE_EQ(box.height(), 4.0);
}

TEST(Aabb, Dist2ToOutsidePoint) {
  const Aabb box{{0, 0}, {1, 1}};
  EXPECT_DOUBLE_EQ(box.dist2_to({0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(box.dist2_to({2.0, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(box.dist2_to({2.0, 2.0}), 2.0);
}

TEST(Aabb, BoundingBoxOfPoints) {
  const PointSet points{{1, 2}, {-1, 5}, {3, 0}};
  const Aabb box = bounding_box(points);
  EXPECT_EQ(box.lo, (Vec2{-1, 0}));
  EXPECT_EQ(box.hi, (Vec2{3, 5}));
}

class GridIndexTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridIndexTest, DiskQueryMatchesBruteForce) {
  const PointSet points = sim::uniform_square(200, 5.0, GetParam());
  const GridIndex index(points, 0.7);
  for (double radius : {0.0, 0.3, 1.0, 2.5}) {
    for (NodeId probe = 0; probe < 10; ++probe) {
      const auto got = index.query_disk(points[probe], radius);
      std::vector<NodeId> expected;
      for (NodeId v = 0; v < points.size(); ++v) {
        if (dist2(points[v], points[probe]) <= radius * radius) {
          expected.push_back(v);
        }
      }
      EXPECT_EQ(got, expected) << "radius " << radius << " probe " << probe;
    }
  }
}

TEST_P(GridIndexTest, CountMatchesQuerySize) {
  const PointSet points = sim::uniform_square(150, 3.0, GetParam());
  const GridIndex index(points, 0.5);
  for (NodeId probe = 0; probe < 8; ++probe) {
    EXPECT_EQ(index.count_in_disk(points[probe], 0.8),
              index.query_disk(points[probe], 0.8).size());
  }
}

TEST_P(GridIndexTest, NearestMatchesBruteForce) {
  const PointSet points = sim::uniform_square(120, 4.0, GetParam());
  const GridIndex index(points, 0.6);
  for (NodeId probe = 0; probe < points.size(); probe += 7) {
    const NodeId got = index.nearest(points[probe], probe);
    NodeId expected = kInvalidNode;
    double best = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < points.size(); ++v) {
      if (v == probe) continue;
      const double d2 = dist2(points[v], points[probe]);
      if (d2 < best || (d2 == best && v < expected)) {
        best = d2;
        expected = v;
      }
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(GridIndex, EmptyIndex) {
  const PointSet points;
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.nearest({0, 0}), kInvalidNode);
  EXPECT_TRUE(index.query_disk({0, 0}, 10.0).empty());
}

TEST(GridIndex, SinglePoint) {
  const PointSet points{{1, 1}};
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.nearest({0, 0}), 0u);
  EXPECT_EQ(index.nearest({0, 0}, 0), kInvalidNode);  // excluded
}

TEST(GridIndex, NegativeRadiusFindsNothing) {
  const PointSet points{{0, 0}};
  const GridIndex index(points, 1.0);
  EXPECT_TRUE(index.query_disk({0, 0}, -1.0).empty());
}

TEST(GridIndex, HandlesExtremeAspectRatios) {
  // Exponential-chain-like spread: the cell cap must kick in, not OOM.
  PointSet points;
  double x = 0.0;
  for (int i = 0; i < 40; ++i) {
    points.push_back({x, 0.0});
    x = x * 2.0 + 1.0;
  }
  const GridIndex index(points, 1e-6);
  EXPECT_EQ(index.query_disk({0.0, 0.0}, 1.5).size(), 2u);  // x=0 and x=1
  EXPECT_EQ(index.nearest({0.4, 0.0}), 0u);
}

class ClosestPairTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosestPairTest, MatchesBruteForce) {
  for (std::size_t n : {2u, 3u, 10u, 57u, 200u}) {
    const PointSet points = sim::uniform_square(n, 3.0, GetParam() * 1000 + n);
    const auto fast = closest_pair(points);
    const auto brute = closest_pair_brute(points);
    EXPECT_DOUBLE_EQ(fast.distance, brute.distance) << "n=" << n;
    EXPECT_EQ(fast.a, brute.a) << "n=" << n;
    EXPECT_EQ(fast.b, brute.b) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosestPairTest,
                         ::testing::Values(11u, 12u, 13u, 14u));

TEST(ClosestPair, KnownAnswer) {
  const PointSet points{{0, 0}, {5, 5}, {0.1, 0}, {9, 9}};
  const auto result = closest_pair(points);
  EXPECT_EQ(result.a, 0u);
  EXPECT_EQ(result.b, 2u);
  EXPECT_NEAR(result.distance, 0.1, 1e-12);
}

TEST(ClosestPair, DuplicatePointsGiveZero) {
  const PointSet points{{1, 1}, {2, 2}, {1, 1}};
  const auto result = closest_pair(points);
  EXPECT_DOUBLE_EQ(result.distance, 0.0);
  EXPECT_EQ(result.a, 0u);
  EXPECT_EQ(result.b, 2u);
}

}  // namespace
}  // namespace rim::geom
