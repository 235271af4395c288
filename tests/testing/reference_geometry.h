// The reference point-in-polygon tests: geo::Polygon's boundary queries as
// they were first written, building the edge list with Polygon::Edges() and
// measuring the boundary distance before the even-odd ray cast. They are the
// oracle the in-place, ray-cast-first forms in src/geometry/shapes.cc must
// match bit for bit (tests/geometry_test.cc checks that on seeded random
// polygons and probe points). Header-only; linked only by tests.
#pragma once

#include <algorithm>

#include "geometry/shapes.h"

namespace trips::geo::testing {

inline double ReferenceBoundaryDistanceTo(const Polygon& poly, const Point2& p) {
  double best = 1e300;
  for (const Segment& e : poly.Edges()) {
    best = std::min(best, e.DistanceTo(p));
  }
  return best;
}

inline bool ReferenceContains(const Polygon& poly, const Point2& p) {
  const std::vector<Point2>& vertices = poly.vertices;
  if (vertices.size() < 3) return false;
  // Boundary counts as inside.
  if (ReferenceBoundaryDistanceTo(poly, p) < 1e-7) return true;
  // Even-odd ray cast to +x.
  bool inside = false;
  size_t n = vertices.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point2& vi = vertices[i];
    const Point2& vj = vertices[j];
    bool crosses = ((vi.y > p.y) != (vj.y > p.y));
    if (crosses) {
      double x_at = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
      if (p.x < x_at) inside = !inside;
    }
  }
  return inside;
}

inline bool ReferenceBoundaryIntersects(const Polygon& poly, const Segment& s) {
  for (const Segment& e : poly.Edges()) {
    if (e.Intersects(s)) return true;
  }
  return false;
}

}  // namespace trips::geo::testing
