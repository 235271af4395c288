#include "annotation/splitter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "positioning/record_block.h"

namespace trips::annotation {

using positioning::RecordBlock;

namespace {

constexpr size_t kNoise = std::numeric_limits<size_t>::max();

// The largest double whose square root is <= eps. IEEE sqrt is correctly
// rounded, hence monotone, so for every squared distance d2 (>= 0 or NaN)
// `d2 <= bound` holds exactly when `sqrt(d2) <= eps`. A NaN radius admits no
// pair, and neither does a negative one.
double SquaredRadiusBound(double eps) {
  if (std::isnan(eps)) return eps;
  if (eps < 0) return -1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double bound = eps * eps;
  while (std::sqrt(bound) > eps) bound = std::nextafter(bound, 0.0);
  while (bound < kInf) {
    const double up = std::nextafter(bound, kInf);
    if (std::sqrt(up) > eps) break;
    bound = up;
  }
  return bound;
}

// Per-thread scratch of the block kernel, reused across calls; every column
// holds one entry per record.
struct SplitScratch {
  std::vector<size_t> lo;  ///< first record of i's time window
  std::vector<size_t> hi;  ///< one past the last record of i's time window
  std::vector<size_t> count;  ///< neighbours of i, self excluded
  std::vector<uint8_t> core;
  /// Union-find parent while linking cores (never above the index), then the
  /// final label: the smallest core index of the record's cluster, or kNoise.
  std::vector<size_t> label;
  std::vector<uint64_t> mask;  ///< neighbour test over one record's window
  std::vector<size_t> hits;    ///< compacted neighbour indices of one record
};

// Adds i's neighbours in (i, end) to the counts of both ends of each pair and
// returns how many there are. The test is symmetric (the squares of x_j - x_i
// and x_i - x_j are the same double), so after the records before i have
// counted their forward windows, count[i] plus this return value is final.
inline size_t CountForward(const double* xs, const double* ys,
                           const geo::FloorId* floors, size_t i, size_t end,
                           double bound, size_t* count) {
  const double x = xs[i];
  const double y = ys[i];
  const geo::FloorId f = floors[i];
  size_t forward = 0;
  // VEC-KERNEL neighbour-count (gated by tools/check_vectorization.sh)
  for (size_t j = i + 1; j < end; ++j) {
    const double dx = xs[j] - x;
    const double dy = ys[j] - y;
    const size_t hit = (floors[j] == f) & (dx * dx + dy * dy <= bound);
    count[j] += hit;
    forward += hit;
  }
  return forward;
}

// mask[j - begin] = 1 when record j of [begin, end) is a neighbour of (x, y)
// on floor f.
inline void NeighbourMask(const double* xs, const double* ys,
                          const geo::FloorId* floors, size_t begin, size_t end,
                          double x, double y, geo::FloorId f, double bound,
                          uint64_t* mask) {
  // VEC-KERNEL neighbour-mask (gated by tools/check_vectorization.sh)
  for (size_t j = begin; j < end; ++j) {
    const double dx = xs[j] - x;
    const double dy = ys[j] - y;
    mask[j - begin] = (floors[j] == f) & (dx * dx + dy * dy <= bound);
  }
}

size_t Find(size_t* parent, size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

}  // namespace

std::vector<Snippet> SplitSequence(const RecordBlock& block,
                                   const SplitterOptions& options) {
  std::vector<Snippet> snippets;
  const size_t n = block.Size();
  if (n < 2) return snippets;

  static thread_local SplitScratch scratch;
  scratch.lo.resize(n);
  scratch.hi.resize(n);
  scratch.count.assign(n, 0);
  scratch.core.resize(n);
  scratch.label.resize(n);
  scratch.mask.resize(n);
  scratch.hits.resize(n);
  size_t* lo = scratch.lo.data();
  size_t* hi = scratch.hi.data();
  size_t* count = scratch.count.data();
  uint8_t* core = scratch.core.data();
  size_t* label = scratch.label.data();
  uint64_t* mask = scratch.mask.data();
  size_t* hits = scratch.hits.data();
  const TimestampMs* ts = block.timestamps.data();
  const double* xs = block.xs.data();
  const double* ys = block.ys.data();
  const geo::FloorId* floors = block.floors.data();
  const double bound = SquaredRadiusBound(options.eps_space);
  const DurationMs eps_time = options.eps_time;

  // Time windows by two pointers: i's candidates are [lo, i) and (i, hi).
  for (size_t i = 0, a = 0, b = 0; i < n; ++i) {
    while (a < i && ts[i] - ts[a] > eps_time) ++a;
    b = std::max(b, i + 1);
    while (b < n && ts[b] - ts[i] <= eps_time) ++b;
    lo[i] = a;
    hi[i] = b;
  }

  // Core flags, each core linked to its earlier core neighbours. Links go
  // from the larger root to the smaller, so a root is the smallest index of
  // its set and no parent exceeds its child. Neighbours j != i are counted
  // explicitly: a NaN fix is not within any radius of itself.
  for (size_t i = 0; i < n; ++i) {
    count[i] += CountForward(xs, ys, floors, i, hi[i], bound, count);
    core[i] = count[i] + 1 >= options.min_pts;
    label[i] = i;
    if (!core[i]) continue;
    const size_t begin = lo[i];
    NeighbourMask(xs, ys, floors, begin, i, xs[i], ys[i], floors[i], bound, mask);
    size_t m = 0;
    for (size_t j = begin; j < i; ++j) {
      hits[m] = j;
      m += mask[j - begin] & core[j];
    }
    size_t root = i;  // i starts alone: earlier links never touch it
    for (size_t k = 0; k < m; ++k) {
      const size_t other = Find(label, hits[k]);
      label[std::max(root, other)] = std::min(root, other);
      root = std::min(root, other);
    }
  }
  // Flatten: a parent precedes its child, so one forward pass reaches roots.
  for (size_t i = 0; i < n; ++i) label[i] = label[label[i]];

  // A border point joins the adjacent cluster with the smallest root. Its
  // window may include itself, which is no core.
  for (size_t i = 0; i < n; ++i) {
    if (core[i]) continue;
    const size_t begin = lo[i];
    const size_t end = hi[i];
    NeighbourMask(xs, ys, floors, begin, end, xs[i], ys[i], floors[i], bound, mask);
    size_t best = kNoise;
    for (size_t j = begin; j < end; ++j) {
      const size_t root = label[j];
      best = std::min(best, mask[j - begin] & core[j] ? root : kNoise);
    }
    label[i] = best;
  }

  // Maximal time-contiguous runs of equal label become snippets.
  size_t run_begin = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || label[i] != label[run_begin]) {
      snippets.push_back({run_begin, i, label[run_begin] != kNoise});
      run_begin = i;
    }
  }

  // Merge too-short runs into the preceding snippet.
  if (options.min_snippet > 0 && snippets.size() > 1) {
    size_t kept = 0;
    for (const Snippet s : snippets) {
      if (kept > 0 && ts[s.end - 1] - ts[s.begin] < options.min_snippet) {
        snippets[kept - 1].end = s.end;
      } else {
        snippets[kept++] = s;
      }
    }
    snippets.resize(kept);
  }
  return snippets;
}

}  // namespace trips::annotation
