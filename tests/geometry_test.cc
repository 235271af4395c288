#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "geometry/point.h"
#include "geometry/shapes.h"
#include "testing/reference_geometry.h"
#include "util/rng.h"

namespace trips::geo {
namespace {

TEST(Point2Test, Arithmetic) {
  Point2 a{1, 2}, b{3, -1};
  EXPECT_EQ(a + b, (Point2{4, 1}));
  EXPECT_EQ(a - b, (Point2{-2, 3}));
  EXPECT_EQ(a * 2, (Point2{2, 4}));
  EXPECT_EQ(b / 2, (Point2{1.5, -0.5}));
  EXPECT_DOUBLE_EQ(a.Dot(b), 1);
  EXPECT_DOUBLE_EQ(a.Cross(b), -7);
}

TEST(Point2Test, NormAndDistance) {
  Point2 p{3, 4};
  EXPECT_DOUBLE_EQ(p.Norm(), 5);
  EXPECT_DOUBLE_EQ(p.NormSq(), 25);
  EXPECT_DOUBLE_EQ(p.DistanceTo({0, 0}), 5);
  Point2 unit = p.Normalized();
  EXPECT_NEAR(unit.Norm(), 1.0, 1e-12);
  EXPECT_EQ((Point2{0, 0}).Normalized(), (Point2{0, 0}));
}

TEST(IndoorPointTest, PlanarDistanceIgnoresFloor) {
  IndoorPoint a{0, 0, 0}, b{3, 4, 5};
  EXPECT_DOUBLE_EQ(a.PlanarDistanceTo(b), 5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, (IndoorPoint{0, 0, 0}));
}

TEST(BoundingBoxTest, ExtendAndQueries) {
  BoundingBox box;
  EXPECT_TRUE(box.Empty());
  box.Extend({1, 2});
  box.Extend({-1, 5});
  EXPECT_FALSE(box.Empty());
  EXPECT_DOUBLE_EQ(box.Width(), 2);
  EXPECT_DOUBLE_EQ(box.Height(), 3);
  EXPECT_TRUE(box.Contains({0, 3}));
  EXPECT_FALSE(box.Contains({2, 3}));
  EXPECT_EQ(box.Center(), (Point2{0, 3.5}));

  BoundingBox other;
  other.Extend({0.5, 0});
  other.Extend({3, 3});
  EXPECT_TRUE(box.Intersects(other));
  BoundingBox far_box;
  far_box.Extend({10, 10});
  EXPECT_FALSE(box.Intersects(far_box));
}

TEST(SegmentTest, LengthAtMidpoint) {
  Segment s({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(s.Length(), 10);
  EXPECT_EQ(s.At(0.25), (Point2{2.5, 0}));
  EXPECT_EQ(s.Midpoint(), (Point2{5, 0}));
}

TEST(SegmentTest, DistanceAndClosestPoint) {
  Segment s({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(s.DistanceTo({5, 3}), 3);
  EXPECT_DOUBLE_EQ(s.DistanceTo({-4, 3}), 5);  // clamps to endpoint a
  EXPECT_DOUBLE_EQ(s.DistanceTo({13, 4}), 5);  // clamps to endpoint b
  EXPECT_EQ(s.ClosestPoint({5, 3}), (Point2{5, 0}));
  // Degenerate segment.
  Segment pt({2, 2}, {2, 2});
  EXPECT_DOUBLE_EQ(pt.DistanceTo({5, 6}), 5);
}

TEST(SegmentTest, Intersections) {
  EXPECT_TRUE(Segment({0, 0}, {10, 10}).Intersects(Segment({0, 10}, {10, 0})));
  EXPECT_FALSE(Segment({0, 0}, {1, 1}).Intersects(Segment({2, 2}, {3, 3})));
  // Collinear overlap.
  EXPECT_TRUE(Segment({0, 0}, {5, 0}).Intersects(Segment({3, 0}, {8, 0})));
  // Touching at an endpoint counts.
  EXPECT_TRUE(Segment({0, 0}, {5, 0}).Intersects(Segment({5, 0}, {5, 5})));
  // Parallel, offset.
  EXPECT_FALSE(Segment({0, 0}, {5, 0}).Intersects(Segment({0, 1}, {5, 1})));
}

TEST(OrientationTest, Signs) {
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {1, 1}), 1);   // ccw
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {1, -1}), -1); // cw
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {2, 0}), 0);   // collinear
}

TEST(PolylineTest, LengthDistanceAt) {
  Polyline pl{{{0, 0}, {10, 0}, {10, 10}}};
  EXPECT_DOUBLE_EQ(pl.Length(), 20);
  EXPECT_DOUBLE_EQ(pl.DistanceTo({5, 2}), 2);
  EXPECT_EQ(pl.At(0.0), (Point2{0, 0}));
  EXPECT_EQ(pl.At(0.5), (Point2{10, 0}));
  EXPECT_EQ(pl.At(1.0), (Point2{10, 10}));
  EXPECT_EQ(pl.At(0.75), (Point2{10, 5}));

  Polyline empty;
  EXPECT_DOUBLE_EQ(empty.Length(), 0);
  Polyline single{{{3, 3}}};
  EXPECT_DOUBLE_EQ(single.DistanceTo({0, 3}), 3);
}

TEST(PolygonTest, RectangleBasics) {
  Polygon r = Polygon::Rectangle(0, 0, 10, 5);
  EXPECT_DOUBLE_EQ(r.AbsArea(), 50);
  EXPECT_DOUBLE_EQ(r.Perimeter(), 30);
  EXPECT_EQ(r.Centroid(), (Point2{5, 2.5}));
  EXPECT_EQ(r.Edges().size(), 4u);
  // Swapped corners normalize.
  Polygon r2 = Polygon::Rectangle(10, 5, 0, 0);
  EXPECT_DOUBLE_EQ(r2.AbsArea(), 50);
}

TEST(PolygonTest, SignedAreaWinding) {
  Polygon ccw({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  Polygon cw({{0, 0}, {0, 4}, {4, 4}, {4, 0}});
  EXPECT_DOUBLE_EQ(ccw.Area(), 16);
  EXPECT_DOUBLE_EQ(cw.Area(), -16);
  EXPECT_DOUBLE_EQ(cw.AbsArea(), 16);
}

TEST(PolygonTest, ContainsInteriorBoundaryExterior) {
  Polygon r = Polygon::Rectangle(0, 0, 10, 10);
  EXPECT_TRUE(r.Contains({5, 5}));
  EXPECT_TRUE(r.Contains({0, 5}));    // boundary
  EXPECT_TRUE(r.Contains({10, 10}));  // corner
  EXPECT_FALSE(r.Contains({10.01, 5}));
  EXPECT_FALSE(r.Contains({-0.01, 5}));
}

TEST(PolygonTest, ContainsNonConvex) {
  // L-shape.
  Polygon l({{0, 0}, {10, 0}, {10, 4}, {4, 4}, {4, 10}, {0, 10}});
  EXPECT_TRUE(l.Contains({2, 8}));
  EXPECT_TRUE(l.Contains({8, 2}));
  EXPECT_FALSE(l.Contains({8, 8}));
  EXPECT_DOUBLE_EQ(l.AbsArea(), 10 * 4 + 4 * 6);
}

TEST(PolygonTest, BoundaryDistance) {
  Polygon r = Polygon::Rectangle(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(r.BoundaryDistanceTo({5, 5}), 5);
  EXPECT_DOUBLE_EQ(r.BoundaryDistanceTo({5, 12}), 2);
  EXPECT_DOUBLE_EQ(r.BoundaryDistanceTo({0, 0}), 0);
}

TEST(PolygonTest, BoundaryIntersects) {
  Polygon r = Polygon::Rectangle(0, 0, 10, 10);
  EXPECT_TRUE(r.BoundaryIntersects(Segment({5, 5}, {15, 5})));   // exits
  EXPECT_FALSE(r.BoundaryIntersects(Segment({2, 2}, {8, 8})));   // interior
  EXPECT_FALSE(r.BoundaryIntersects(Segment({20, 20}, {30, 30})));
}

TEST(PolygonTest, DegenerateCentroid) {
  Polygon line({{0, 0}, {2, 0}, {4, 0}});  // zero area
  Point2 c = line.Centroid();
  EXPECT_DOUBLE_EQ(c.x, 2);
  EXPECT_DOUBLE_EQ(c.y, 0);
  EXPECT_DOUBLE_EQ(Polygon().Area(), 0);
  EXPECT_FALSE(Polygon().Contains({0, 0}));
}

TEST(CircleTest, ContainsAndPolygonization) {
  Circle c({5, 5}, 2);
  EXPECT_TRUE(c.Contains({6, 5}));
  EXPECT_TRUE(c.Contains({7, 5}));   // on boundary
  EXPECT_FALSE(c.Contains({7.1, 5}));
  EXPECT_NEAR(c.Area(), 12.566, 1e-3);

  Polygon poly = c.ToPolygon(64);
  EXPECT_EQ(poly.vertices.size(), 64u);
  EXPECT_NEAR(poly.AbsArea(), c.Area(), 0.1);
  EXPECT_NEAR(poly.Centroid().x, 5, 1e-9);
  // Minimum tessellation clamps to a triangle.
  EXPECT_EQ(c.ToPolygon(1).vertices.size(), 3u);
}

TEST(PolygonTest, BoundsCoverAllVertices) {
  Polygon p({{1, 1}, {5, -2}, {3, 7}});
  BoundingBox b = p.Bounds();
  EXPECT_DOUBLE_EQ(b.min.x, 1);
  EXPECT_DOUBLE_EQ(b.min.y, -2);
  EXPECT_DOUBLE_EQ(b.max.x, 5);
  EXPECT_DOUBLE_EQ(b.max.y, 7);
}

// ---- parity with the reference (Edges()-building, boundary-first) tests ----

// One random outline of a family: convex, star-shaped (non-convex),
// rectilinear on an integer grid with a corner at the origin, or
// self-touching (a bow tie, or a keyhole whose two vertices coincide); then,
// at random, a repeated vertex and a collinear midpoint spliced in.
Polygon RandomOutline(int family, Rng* rng) {
  Polygon poly;
  std::vector<Point2>& v = poly.vertices;
  const Point2 c{rng->Uniform(-20, 20), rng->Uniform(-20, 20)};
  switch (family) {
    case 0:
    case 1: {  // convex (fixed radius) or star-shaped (random radii)
      const int n = static_cast<int>(rng->UniformInt(3, 12));
      std::vector<double> angles;
      for (int i = 0; i < n; ++i) angles.push_back(rng->Uniform(0, 2 * std::numbers::pi));
      std::sort(angles.begin(), angles.end());
      const double r0 = rng->Uniform(0.5, 10);
      for (double a : angles) {
        double r = family == 0 ? r0 : r0 * rng->Uniform(0.2, 1.0);
        v.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
      }
      break;
    }
    case 2: {  // rectilinear staircase on integers, one corner at (0, 0)
      const int64_t w = rng->UniformInt(2, 8);
      const int64_t h = rng->UniformInt(2, 8);
      const double sx = static_cast<double>(rng->UniformInt(1, w - 1));
      const double sy = static_cast<double>(rng->UniformInt(1, h - 1));
      const double wd = static_cast<double>(w), hd = static_cast<double>(h);
      v = {{0, 0}, {wd, 0}, {wd, sy}, {sx, sy}, {sx, hd}, {0, hd}};
      break;
    }
    default: {  // self-touching
      const double s = rng->Uniform(1, 6);
      if (rng->Chance(0.5)) {
        v = {{c.x - s, c.y - s}, {c.x + s, c.y + s},  // bow tie
             {c.x + s, c.y - s}, {c.x - s, c.y + s}};
      } else {  // keyhole: the outline passes through c twice
        v = {{c.x, c.y}, {c.x + s, c.y}, {c.x + s, c.y + s}, {c.x, c.y},
             {c.x - s, c.y - s}, {c.x, c.y - s}};
      }
      break;
    }
  }
  if (rng->Chance(0.3)) {
    size_t i = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(v.size()) - 1));
    v.insert(v.begin() + static_cast<long>(i), v[i]);
  }
  if (rng->Chance(0.3)) {
    size_t i = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(v.size()) - 1));
    Point2 mid = (v[i] + v[(i + 1) % v.size()]) / 2;
    v.insert(v.begin() + static_cast<long>(i) + 1, mid);
  }
  return poly;
}

// Probe points: every vertex, points on and within +-1e-7 of every edge (and
// exactly 1e-7 off the axis-aligned ones), random points around the outline,
// and non-finite coordinates.
std::vector<Point2> ProbePoints(const Polygon& poly, Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Point2> out = {{nan, 0}, {0, nan}, {nan, nan}, {inf, 0},  {-inf, 0},
                             {0, inf}, {0, -inf}, {inf, inf}, {-inf, nan}};
  const std::vector<Point2>& v = poly.vertices;
  for (size_t i = 0; i < v.size(); ++i) {
    const Point2 a = v[i];
    const Point2 b = v[(i + 1) % v.size()];
    out.push_back(a);
    out.push_back(a + (b - a) * rng->Uniform(0, 1));
    const Point2 on = a + (b - a) * rng->Uniform(0.05, 0.95);
    const Point2 normal = Point2{a.y - b.y, b.x - a.x}.Normalized();
    for (double off :
         {1e-7, -1e-7, 0.5e-7, -0.5e-7, 0.999e-7, 1.001e-7, -1.001e-7, 3e-7}) {
      out.push_back(on + normal * off);
    }
    const Point2 mid = (a + b) / 2;
    out.push_back(mid);
    if (a.y == b.y) {
      out.push_back({mid.x, a.y + 1e-7});
      out.push_back({mid.x, a.y - 1e-7});
    }
    if (a.x == b.x) {
      out.push_back({a.x + 1e-7, mid.y});
      out.push_back({a.x - 1e-7, mid.y});
    }
  }
  BoundingBox box = poly.Bounds();
  for (int k = 0; k < 16 && !box.Empty(); ++k) {
    out.push_back({rng->Uniform(box.min.x - 2, box.max.x + 2),
                   rng->Uniform(box.min.y - 2, box.max.y + 2)});
  }
  return out;
}

TEST(PolygonParityTest, MatchesReference) {
  Rng rng(0x9e0);
  std::vector<Polygon> polys = {Polygon(), Polygon({{1, 1}}), Polygon({{0, 0}, {3, 4}}),
                                Polygon({{0, 0}, {0, 0}, {0, 0}}),
                                Polygon::Rectangle(0, 0, 10, 10)};
  for (int k = 0; k < 1200; ++k) polys.push_back(RandomOutline(k % 4, &rng));
  size_t checked = 0, on_boundary = 0, exactly_at_eps = 0;
  for (const Polygon& poly : polys) {
    std::vector<Point2> probes = ProbePoints(poly, &rng);
    if (probes.size() < 10) probes.push_back({0.5, 0.5});
    for (const Point2& p : probes) {
      const double d = poly.BoundaryDistanceTo(p);
      ASSERT_EQ(d, testing::ReferenceBoundaryDistanceTo(poly, p))
          << "probe " << p.ToString() << " polygon #" << checked;
      ASSERT_EQ(poly.Contains(p), testing::ReferenceContains(poly, p))
          << "probe " << p.ToString() << " at boundary distance " << d;
      on_boundary += d < 1e-7;
      exactly_at_eps += d == 1e-7;
      ++checked;
    }
    for (int k = 0; k + 1 < static_cast<int>(probes.size()); k += 3) {
      Segment s(probes[k], probes[k + 1]);
      ASSERT_EQ(poly.BoundaryIntersects(s), testing::ReferenceBoundaryIntersects(poly, s))
          << s.a.ToString() << " -> " << s.b.ToString();
    }
  }
  // The probes exercise the boundary band and its exact edge, where the
  // strict comparison decides.
  EXPECT_GT(on_boundary, checked / 10);
  EXPECT_GT(exactly_at_eps, 100u);
}

TEST(PolygonParityTest, PinsTheBoundaryBand) {
  const Polygon square = Polygon::Rectangle(0, 0, 10, 10);
  EXPECT_TRUE(square.Contains({5, 0}));           // on an edge
  EXPECT_TRUE(square.Contains({10, 10}));         // on a vertex the ray cast misses
  EXPECT_TRUE(square.Contains({5, -0.5e-7}));     // inside the 1e-7 band
  EXPECT_FALSE(square.Contains({5, -1e-7}));      // exactly 1e-7 off: strict
  EXPECT_FALSE(square.Contains({10 + 1e-6, 5}));  // beyond the band
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(square.Contains({nan, 5}));
  EXPECT_EQ(square.BoundaryDistanceTo({nan, 5}), 1e300);
}

}  // namespace
}  // namespace trips::geo
