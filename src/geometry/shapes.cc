#include "geometry/shapes.h"

#include <algorithm>
#include <cstdio>

namespace trips::geo {

namespace {
constexpr double kEps = 1e-9;
}

std::string Point2::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%.3f, %.3f)", x, y);
  return buf;
}

std::string IndoorPoint::ToString() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "(%.3f, %.3f, F%d)", xy.x, xy.y, floor);
  return buf;
}

double Segment::DistanceTo(const Point2& p) const {
  return ClosestPoint(p).DistanceTo(p);
}

Point2 Segment::ClosestPoint(const Point2& p) const {
  Point2 d = b - a;
  double len2 = d.NormSq();
  if (len2 < kEps) return a;
  double t = (p - a).Dot(d) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return At(t);
}

int Orientation(const Point2& a, const Point2& b, const Point2& c) {
  double cross = (b - a).Cross(c - a);
  if (cross > kEps) return 1;
  if (cross < -kEps) return -1;
  return 0;
}

namespace {

bool OnSegment(const Point2& a, const Point2& b, const Point2& p) {
  return p.x >= std::min(a.x, b.x) - kEps && p.x <= std::max(a.x, b.x) + kEps &&
         p.y >= std::min(a.y, b.y) - kEps && p.y <= std::max(a.y, b.y) + kEps;
}

}  // namespace

bool Segment::Intersects(const Segment& other) const {
  int o1 = Orientation(a, b, other.a);
  int o2 = Orientation(a, b, other.b);
  int o3 = Orientation(other.a, other.b, a);
  int o4 = Orientation(other.a, other.b, b);
  if (o1 != o2 && o3 != o4) return true;
  if (o1 == 0 && OnSegment(a, b, other.a)) return true;
  if (o2 == 0 && OnSegment(a, b, other.b)) return true;
  if (o3 == 0 && OnSegment(other.a, other.b, a)) return true;
  if (o4 == 0 && OnSegment(other.a, other.b, b)) return true;
  return false;
}

double Polyline::Length() const {
  double total = 0;
  for (size_t i = 1; i < points.size(); ++i) {
    total += points[i - 1].DistanceTo(points[i]);
  }
  return total;
}

double Polyline::DistanceTo(const Point2& p) const {
  if (points.empty()) return 1e300;
  if (points.size() == 1) return points[0].DistanceTo(p);
  double best = 1e300;
  for (size_t i = 1; i < points.size(); ++i) {
    best = std::min(best, Segment(points[i - 1], points[i]).DistanceTo(p));
  }
  return best;
}

BoundingBox Polyline::Bounds() const {
  BoundingBox box;
  for (const Point2& p : points) box.Extend(p);
  return box;
}

Point2 Polyline::At(double t) const {
  if (points.empty()) return {};
  if (points.size() == 1 || t <= 0) return points.front();
  if (t >= 1) return points.back();
  double target = Length() * t;
  double acc = 0;
  for (size_t i = 1; i < points.size(); ++i) {
    double seg = points[i - 1].DistanceTo(points[i]);
    if (acc + seg >= target && seg > 0) {
      double local = (target - acc) / seg;
      return Segment(points[i - 1], points[i]).At(local);
    }
    acc += seg;
  }
  return points.back();
}

Polygon Polygon::Rectangle(double x0, double y0, double x1, double y1) {
  if (x0 > x1) std::swap(x0, x1);
  if (y0 > y1) std::swap(y0, y1);
  return Polygon({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
}

double Polygon::Area() const {
  if (vertices.size() < 3) return 0;
  double sum = 0;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Point2& p = vertices[i];
    const Point2& q = vertices[(i + 1) % vertices.size()];
    sum += p.Cross(q);
  }
  return sum / 2;
}

double Polygon::Perimeter() const {
  if (vertices.size() < 2) return 0;
  double total = 0;
  for (size_t i = 0; i < vertices.size(); ++i) {
    total += vertices[i].DistanceTo(vertices[(i + 1) % vertices.size()]);
  }
  return total;
}

Point2 Polygon::Centroid() const {
  if (vertices.empty()) return {};
  double area = Area();
  if (std::fabs(area) < kEps) {
    Point2 sum;
    for (const Point2& v : vertices) sum = sum + v;
    return sum / static_cast<double>(vertices.size());
  }
  double cx = 0, cy = 0;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Point2& p = vertices[i];
    const Point2& q = vertices[(i + 1) % vertices.size()];
    double cross = p.Cross(q);
    cx += (p.x + q.x) * cross;
    cy += (p.y + q.y) * cross;
  }
  return {cx / (6 * area), cy / (6 * area)};
}

bool Polygon::Contains(const Point2& p) const {
  if (vertices.size() < 3) return false;
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
  // Boundary counts as inside. Both tests are pure, so measuring the boundary
  // only for points the ray cast puts outside gives the same answer.
  return inside || BoundaryDistanceTo(p) < 1e-7;
}

double Polygon::BoundaryDistanceTo(const Point2& p) const {
  // Edges() in place: the same edges in the same order, without the vector.
  double best = 1e300;
  const size_t n = vertices.size();
  if (n < 2) return best;
  for (size_t i = 0; i < n; ++i) {
    const Point2& next = vertices[i + 1 == n ? 0 : i + 1];
    best = std::min(best, Segment(vertices[i], next).DistanceTo(p));
  }
  return best;
}

BoundingBox Polygon::Bounds() const {
  BoundingBox box;
  for (const Point2& v : vertices) box.Extend(v);
  return box;
}

std::vector<Segment> Polygon::Edges() const {
  std::vector<Segment> edges;
  size_t n = vertices.size();
  if (n < 2) return edges;
  edges.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    edges.emplace_back(vertices[i], vertices[(i + 1) % n]);
  }
  return edges;
}

bool Polygon::BoundaryIntersects(const Segment& s) const {
  const size_t n = vertices.size();
  if (n < 2) return false;
  for (size_t i = 0; i < n; ++i) {
    const Point2& next = vertices[i + 1 == n ? 0 : i + 1];
    if (Segment(vertices[i], next).Intersects(s)) return true;
  }
  return false;
}

Polygon Circle::ToPolygon(int segments) const {
  Polygon poly;
  if (segments < 3) segments = 3;
  poly.vertices.reserve(segments);
  for (int i = 0; i < segments; ++i) {
    double theta = 2 * 3.14159265358979323846 * i / segments;
    poly.vertices.push_back(
        {center.x + radius * std::cos(theta), center.y + radius * std::sin(theta)});
  }
  return poly;
}

}  // namespace trips::geo
