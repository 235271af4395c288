// Planar shapes used to trace floorplans: segments, polylines, polygons and
// circles — the drawing elements of the Space Modeler (§3, Fig. 2).
#pragma once

#include <vector>

#include "geometry/point.h"

namespace trips::geo {

/// A line segment between two points.
struct Segment {
  Point2 a;
  Point2 b;

  Segment() = default;
  Segment(Point2 pa, Point2 pb) : a(pa), b(pb) {}

  /// Length of the segment.
  double Length() const { return a.DistanceTo(b); }
  /// Point at parameter t in [0,1] along the segment.
  Point2 At(double t) const { return a + (b - a) * t; }
  /// Smallest distance from `p` to any point of the segment.
  double DistanceTo(const Point2& p) const;
  /// Closest point of the segment to `p`.
  Point2 ClosestPoint(const Point2& p) const;
  /// True iff this segment properly or improperly intersects `other`.
  bool Intersects(const Segment& other) const;
  /// Midpoint of the segment.
  Point2 Midpoint() const { return (a + b) / 2; }
};

/// An open chain of points (walls are traced as polylines).
struct Polyline {
  std::vector<Point2> points;

  /// Total length of the chain.
  double Length() const;
  /// Smallest distance from `p` to the chain.
  double DistanceTo(const Point2& p) const;
  /// Bounding box of all vertices.
  BoundingBox Bounds() const;
  /// Point at arclength fraction t in [0,1] along the chain.
  Point2 At(double t) const;
};

/// A simple polygon (room/region outline). Vertices may wind either way;
/// Area() is signed, AbsArea() is not.
struct Polygon {
  std::vector<Point2> vertices;

  Polygon() = default;
  explicit Polygon(std::vector<Point2> v) : vertices(std::move(v)) {}

  /// Convenience: axis-aligned rectangle polygon.
  static Polygon Rectangle(double x0, double y0, double x1, double y1);

  /// Signed area (positive for counter-clockwise winding).
  double Area() const;
  /// Absolute enclosed area.
  double AbsArea() const { return std::fabs(Area()); }
  /// Perimeter length.
  double Perimeter() const;
  /// Centroid of the enclosed region (vertex average for degenerate polygons).
  Point2 Centroid() const;
  /// True iff `p` is inside or on the boundary: the even-odd ray cast runs
  /// first, and only a point it puts outside is measured against the
  /// boundary (within 1e-7 counts as inside). Allocates nothing.
  bool Contains(const Point2& p) const;
  /// Smallest distance from `p` to the polygon boundary, walking the edges
  /// in Edges() order without building them. Allocates nothing.
  double BoundaryDistanceTo(const Point2& p) const;
  /// Bounding box of all vertices.
  BoundingBox Bounds() const;
  /// Boundary edges as segments (closing edge included).
  std::vector<Segment> Edges() const;
  /// True iff the straight segment a->b crosses the polygon boundary (edges
  /// walked in place, in Edges() order).
  bool BoundaryIntersects(const Segment& s) const;
};

/// A circle (pillars, circular kiosks).
struct Circle {
  Point2 center;
  double radius = 0;

  Circle() = default;
  Circle(Point2 c, double r) : center(c), radius(r) {}

  /// True iff `p` lies inside or on the circle.
  bool Contains(const Point2& p) const { return center.DistanceTo(p) <= radius; }
  double Area() const { return 3.14159265358979323846 * radius * radius; }
  /// Approximates the circle as a regular n-gon (for DSM storage & rendering).
  Polygon ToPolygon(int segments = 24) const;
};

/// Returns the orientation sign of the triangle (a,b,c): >0 counter-clockwise,
/// <0 clockwise, 0 collinear (with epsilon tolerance).
int Orientation(const Point2& a, const Point2& b, const Point2& c);

}  // namespace trips::geo
