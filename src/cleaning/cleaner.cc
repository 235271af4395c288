#include "cleaning/cleaner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

namespace trips::cleaning {

using positioning::PositioningSequence;
using positioning::RecordBlock;

namespace {
// Pass-4 records per parallel work item: coarse enough that the fork/join
// bookkeeping stays negligible next to the per-record walkability query.
constexpr size_t kSnapChunk = 1024;
}  // namespace

geo::FloorId LocalFloorConsensus(std::span<const geo::FloorId> floors, size_t i) {
  // Tally the distinct floors among the (at most three) voters.
  std::array<geo::FloorId, 3> floor_of{};
  std::array<int, 3> votes{};
  size_t distinct = 0;
  for (size_t j = i + 1; j < std::min(floors.size(), i + 4); ++j) {
    size_t k = 0;
    while (k < distinct && floor_of[k] != floors[j]) ++k;
    if (k == distinct) floor_of[distinct++] = floors[j];
    ++votes[k];
  }
  geo::FloorId best = floors[i];
  int best_votes = 0;
  for (size_t k = 0; k < distinct; ++k) {
    if (votes[k] > best_votes || (votes[k] == best_votes && floor_of[k] < best)) {
      best_votes = votes[k];
      best = floor_of[k];
    }
  }
  return best;
}

RawDataCleaner::RawDataCleaner(const dsm::Dsm* dsm, const dsm::RoutePlanner* planner,
                               CleanerOptions options)
    : dsm_(dsm), planner_(planner), options_(options) {
  // Hoist the vertical-connector footprints once: the speed-constraint scan
  // probes them for every floor-change record, and venues carry thousands of
  // entities but only a handful of staircases/elevators. The padding exceeds
  // the polygon boundary-containment epsilon, so the bbox prefilter can never
  // reject a point the polygon tests would accept.
  for (const dsm::Entity& e : dsm_->entities()) {
    if (!dsm::IsVerticalKind(e.kind)) continue;
    ConnectorShape c;
    c.shape = e.shape;
    c.padded = e.shape.Bounds();
    if (!c.padded.Empty()) {
      double pad = options_.vertical_connector_slack + 1e-6;
      c.padded.min.x -= pad;
      c.padded.min.y -= pad;
      c.padded.max.x += pad;
      c.padded.max.y += pad;
    }
    connectors_.push_back(c);
  }
}

double RawDataCleaner::MinIndoorDistance(const geo::IndoorPoint& a,
                                         const geo::IndoorPoint& b) const {
  double planar = a.PlanarDistanceTo(b);
  double vertical =
      options_.floor_change_penalty * std::abs(a.floor - b.floor);
  return planar + vertical;
}

bool RawDataCleaner::NearVerticalConnector(const geo::Point2& p) const {
  for (const ConnectorShape& c : connectors_) {
    if (!c.padded.Contains(p)) continue;
    if (c.shape.Contains(p) ||
        c.shape.BoundaryDistanceTo(p) <= options_.vertical_connector_slack) {
      return true;
    }
  }
  return false;
}

bool RawDataCleaner::ViolatesSpeed(const geo::IndoorPoint& a, const geo::IndoorPoint& b,
                                   DurationMs dt_ms) const {
  if (dt_ms <= 0) return false;  // co-timestamped records carry no speed signal
  double dist = a.PlanarDistanceTo(b);
  if (a.floor != b.floor) {
    // Floor changes at a staircase/elevator are legitimate transitions and
    // cost only the planar approach; anywhere else they are charged the full
    // per-floor penalty, which makes them violate the speed constraint at
    // common sampling rates (the DSM-captured mobility constraint).
    bool at_connector =
        NearVerticalConnector(a.xy) && NearVerticalConnector(b.xy);
    if (!at_connector) {
      dist += options_.floor_change_penalty * std::abs(a.floor - b.floor);
    }
  }
  double speed = dist / (static_cast<double>(dt_ms) / 1000.0);
  return speed > options_.max_walking_speed;
}

void RawDataCleaner::ForItems(util::ThreadPool* pool, size_t record_count,
                              size_t items,
                              const std::function<void(size_t)>& fn) const {
  if (pool != nullptr && pool->worker_count() > 0 && items > 1 &&
      record_count >= options_.parallel_min_records) {
    pool->ParallelFor(items, fn);
    return;
  }
  for (size_t i = 0; i < items; ++i) fn(i);
}

// Pass 1: speed-constraint scan against the last accepted record. A floor
// change is only accepted as a legitimate transition when it happens at a
// vertical connector AND the new floor is corroborated by the next few
// records; otherwise floor value correction adopts the anchor floor when
// the local consensus supports it, and remaining violators lose their
// validity bit for interpolation. The anchor walk is inherently sequential
// (each decision depends on the last accepted anchor), so this pass always
// runs serial; what runs vectorized is the per-pair planar geometry
// (dx/dy/dt/speed vs max_walking_speed), evaluated branch-free over the
// contiguous x/y/timestamp columns — the loops the CI vectorization report
// gates on — while the connector-footprint probes are hoisted into a
// pre-pass over the floor-change candidates. The walk then consumes the
// precomputed masks: a pair mask answers the (overwhelmingly common)
// anchor==i-1 case, and only a re-check against an older anchor recomputes
// the geometry. Kernel caveats that shaped the code: doubles are the only
// mask element type the baseline x86-64 auto-vectorizer handles for double
// compares (byte stores fall back to scalar), and int64->double has no packed
// conversion, so the dt column is filled by its own scalar sweep.
void RawDataCleaner::ScanPass(RecordBlock* block, CleanerScratch* scratch,
                              CleaningReport* rep) const {
  const size_t n = block->Size();
  const std::vector<TimestampMs>& ts = block->timestamps;
  std::vector<geo::FloorId>& floors = block->floors;
  const size_t pairs = n - 1;  // CleanBlock guarantees n >= 2

  scratch->adj_dt_ms.resize(pairs);
  scratch->adj_speed_ok.resize(pairs);
  scratch->adj_floor_diff.resize(pairs);
  double* dt_ms = scratch->adj_dt_ms.data();
  double* speed_ok = scratch->adj_speed_ok.data();
  uint8_t* floor_diff = scratch->adj_floor_diff.data();
  const double* xs = block->xs.data();
  const double* ys = block->ys.data();
  const TimestampMs* tsd = ts.data();
  const geo::FloorId* fl = floors.data();
  const double max_speed = options_.max_walking_speed;

  for (size_t i = 0; i < pairs; ++i) {
    dt_ms[i] = static_cast<double>(tsd[i + 1] - tsd[i]);
  }
  // Co-timestamped pairs compare a zero speed against the limit (not an
  // unconditional accept) — that compare is loop-invariant, so it hoists and
  // the kernel below is selects over computed doubles, which is what the
  // if-converter handles.
  const double zero_ok = 0.0 <= max_speed ? 1.0 : 0.0;
  // VEC-KERNEL speed-mask (gated by tools/check_vectorization.sh)
  for (size_t i = 0; i < pairs; ++i) {
    double dx = xs[i] - xs[i + 1];
    double dy = ys[i] - ys[i + 1];
    double speed = std::sqrt(dx * dx + dy * dy) / (dt_ms[i] / 1000.0);
    double pos_ok = speed <= max_speed ? 1.0 : 0.0;
    speed_ok[i] = dt_ms[i] <= 0.0 ? zero_ok : pos_ok;
  }
  // VEC-KERNEL floor-mask (gated by tools/check_vectorization.sh)
  for (size_t i = 0; i < pairs; ++i) {
    floor_diff[i] = fl[i] != fl[i + 1];
  }

  // Connector pre-pass: probe the endpoints of every floor-change pair once.
  // NearVerticalConnector depends only on xy, which pass 1 never mutates, so
  // the memo stays valid while the anchor walk corrects floors[].
  scratch->connector_near.assign(n, 0);
  uint8_t* conn = scratch->connector_near.data();
  for (size_t i = 0; i < pairs; ++i) {
    if (!floor_diff[i]) continue;
    if (conn[i] == 0) {
      conn[i] = NearVerticalConnector({xs[i], ys[i]}) ? 2 : 1;
    }
    if (conn[i + 1] == 0) {
      conn[i + 1] = NearVerticalConnector({xs[i + 1], ys[i + 1]}) ? 2 : 1;
    }
  }
  // Lazy fill for anchors the pre-pass missed (a floor change checked against
  // an anchor farther back than i-1).
  auto near_connector = [&](size_t i) {
    if (conn[i] == 0) conn[i] = NearVerticalConnector(block->XY(i)) ? 2 : 1;
    return conn[i] == 2;
  };
  // Planar speed constraint of record i against an arbitrary anchor: the
  // precomputed mask answers the adjacent case; the general case recomputes
  // it from the columns.
  auto planar_ok_from = [&](size_t anchor, size_t i) {
    if (anchor + 1 == i) return speed_ok[anchor] != 0.0;
    DurationMs dt = ts[i] - ts[anchor];
    double planar_speed = dt > 0 ? block->XY(anchor).DistanceTo(block->XY(i)) /
                                       (static_cast<double>(dt) / 1000.0)
                                 : 0;
    return planar_speed <= max_speed;
  };

  // Seed the anchor at the first record that is speed-consistent with its
  // successor; everything before it (e.g. a bad first fix) is invalid. At
  // most 8 records are involved, so this calls ViolatesSpeed directly.
  size_t first_anchor = 0;
  for (size_t s = 0; s + 1 < n && s < 8; ++s) {
    if (!ViolatesSpeed(block->Location(s), block->Location(s + 1),
                       ts[s + 1] - ts[s])) {
      first_anchor = s;
      break;
    }
    first_anchor = s + 1;
  }
  for (size_t i = 0; i < first_anchor; ++i) {
    block->SetValid(i, false);
    ++rep->speed_violations;
  }
  size_t last_ok = first_anchor;
  for (size_t i = first_anchor + 1; i < n; ++i) {
    bool planar_ok = planar_ok_from(last_ok, i);

    if (floors[i] == floors[last_ok]) {
      if (planar_ok) {
        last_ok = i;
      } else {
        ++rep->speed_violations;
        block->SetValid(i, false);
      }
      continue;
    }

    // Floor change against the anchor.
    geo::FloorId consensus = LocalFloorConsensus(floors, i);
    bool at_connector = near_connector(last_ok) && near_connector(i);
    if (at_connector && planar_ok && floors[i] == consensus) {
      last_ok = i;  // legitimate, corroborated transition
      continue;
    }
    ++rep->speed_violations;
    if (planar_ok && consensus == floors[last_ok]) {
      // The anchor and upcoming records agree: this record's floor is wrong.
      floors[i] = floors[last_ok];
      ++rep->floor_corrected;
      last_ok = i;
    } else if (planar_ok && floors[i] == consensus) {
      // Upcoming records side with this record: the anchor's floor was the
      // odd one out; accept and resume from here.
      last_ok = i;
    } else {
      block->SetValid(i, false);
    }
  }
}

// Pass 2: location interpolation for invalid runs between accepted anchors,
// along the indoor route between the anchors when available. The runs are
// disjoint and only read their (valid, untouched) boundary anchors, so they
// interpolate in parallel; the anchor snaps they share are precomputed into
// the scratch so no two runs ever write the same cache slot.
void RawDataCleaner::InterpolatePass(RecordBlock* block, CleanerScratch* scratch,
                                     CleaningReport* rep,
                                     util::ThreadPool* pool) const {
  const size_t n = block->Size();
  scratch->runs.clear();
  size_t i = 0;
  while (i < n) {
    if (block->IsValid(i)) {
      ++i;
      continue;
    }
    size_t run_begin = i;
    size_t run_end = i;
    while (run_end + 1 < n && !block->IsValid(run_end + 1)) ++run_end;
    scratch->runs.emplace_back(static_cast<uint32_t>(run_begin),
                               static_cast<uint32_t>(run_end));
    rep->interpolated += run_end - run_begin + 1;
    i = run_end + 1;
  }
  if (scratch->runs.empty()) return;

  // Anchor snaps, hoisted: an anchor record can border two runs (and
  // SnapToWalkable is the priciest query this pass issues), so each anchor is
  // snapped exactly once, in parallel over the deduplicated anchor list.
  const bool use_routes = options_.interpolate_along_routes && planner_ != nullptr;
  scratch->anchors.clear();
  if (use_routes && options_.snap_to_walkable) {
    for (const auto& [rb, re] : scratch->runs) {
      if (rb > 0 && re + 1 < n) {
        scratch->anchors.push_back(rb - 1);
        scratch->anchors.push_back(re + 1);
      }
    }
    std::sort(scratch->anchors.begin(), scratch->anchors.end());
    scratch->anchors.erase(
        std::unique(scratch->anchors.begin(), scratch->anchors.end()),
        scratch->anchors.end());
    scratch->anchor_snaps.resize(scratch->anchors.size());
    ForItems(pool, n, scratch->anchors.size(), [&](size_t a) {
      scratch->anchor_snaps[a] =
          dsm_->SnapToWalkable(block->Location(scratch->anchors[a]));
    });
  }
  auto snapped_anchor = [&](uint32_t idx) {
    size_t pos = static_cast<size_t>(
        std::lower_bound(scratch->anchors.begin(), scratch->anchors.end(), idx) -
        scratch->anchors.begin());
    return scratch->anchor_snaps[pos];
  };

  const std::vector<TimestampMs>& ts = block->timestamps;
  ForItems(pool, n, scratch->runs.size(), [&](size_t r) {
    const auto [run_begin, run_end] = scratch->runs[r];
    bool has_prev = run_begin > 0;
    bool has_next = run_end + 1 < n;
    if (has_prev && has_next) {
      const uint32_t a = run_begin - 1;
      const uint32_t b = run_end + 1;
      dsm::Route route;
      bool have_route = false;
      if (use_routes) {
        geo::IndoorPoint src = options_.snap_to_walkable ? snapped_anchor(a)
                                                         : block->Location(a);
        geo::IndoorPoint dst = options_.snap_to_walkable ? snapped_anchor(b)
                                                         : block->Location(b);
        Result<dsm::Route> found = planner_->FindRoute(src, dst);
        if (found.ok()) {
          route = std::move(found).ValueOrDie();
          have_route = true;
        }
      }
      DurationMs span = ts[b] - ts[a];
      geo::Point2 a_xy = block->XY(a);
      geo::Point2 b_xy = block->XY(b);
      for (uint32_t k = run_begin; k <= run_end; ++k) {
        double t = span > 0 ? static_cast<double>(ts[k] - ts[a]) /
                                  static_cast<double>(span)
                            : 0.5;
        if (have_route) {
          block->SetLocation(k, route.PointAtDistance(route.distance * t));
        } else {
          geo::Point2 xy = a_xy + (b_xy - a_xy) * t;
          block->xs[k] = xy.x;
          block->ys[k] = xy.y;
          block->floors[k] = t < 0.5 ? block->floors[a] : block->floors[b];
        }
      }
    } else {
      // Leading/trailing run without both anchors: clamp to the one anchor.
      geo::IndoorPoint anchor = has_prev ? block->Location(run_begin - 1)
                                         : block->Location(run_end + 1);
      for (uint32_t k = run_begin; k <= run_end; ++k) {
        block->SetLocation(k, anchor);
      }
    }
  });
}

// Pass 3: optional planar smoothing (centred moving average per floor run).
// Columnar and serial. The pass finds the maximal same-floor runs and, for
// every record whose whole window fits inside its run (count is then exactly
// the window width — no floor filtering, no edge clipping), computes the
// averages as `window` shifted-column accumulation sweeps plus one divide
// sweep. Each sweep adds the same values in the same ascending-j per-element
// order as the per-record window loop, starting from the same 0.0
// accumulator, so the result is byte-identical to it — unlike a prefix-sum
// formulation, whose subtraction re-associates the adds and drifts in the
// last ulp. Run boundaries (clipped or floor-mixed windows) take the
// per-record window.
void RawDataCleaner::SmoothPass(RecordBlock* block, CleanerScratch* scratch,
                                CleaningReport* rep) const {
  if (options_.smoothing_window <= 1) return;
  const size_t n = block->Size();
  scratch->smooth_x.resize(n);
  scratch->smooth_y.resize(n);
  size_t half = options_.smoothing_window / 2;

  auto smooth_one = [&](size_t k) {
    size_t lo = k >= half ? k - half : 0;
    size_t hi = std::min(n - 1, k + half);
    geo::Point2 sum;
    int count = 0;
    for (size_t j = lo; j <= hi; ++j) {
      if (block->floors[j] != block->floors[k]) continue;
      sum = sum + block->XY(j);
      ++count;
    }
    geo::Point2 smoothed = count > 0 ? sum / count : block->XY(k);
    scratch->smooth_x[k] = smoothed.x;
    scratch->smooth_y[k] = smoothed.y;
    if (count > 1) ++rep->smoothed;
  };

  const geo::FloorId* fl = block->floors.data();
  const double* xs = block->xs.data();
  const double* ys = block->ys.data();
  double* sx = scratch->smooth_x.data();
  double* sy = scratch->smooth_y.data();
  const size_t w = 2 * half + 1;
  const double divisor = static_cast<double>(static_cast<int>(w));

  size_t run_begin = 0;
  while (run_begin < n) {
    size_t run_end = run_begin;
    while (run_end + 1 < n && fl[run_end + 1] == fl[run_begin]) ++run_end;
    size_t run_len = run_end - run_begin + 1;
    if (run_len >= w) {
      size_t lo = run_begin + half;  // first fully-interior window centre
      size_t hi = run_end - half;    // last one
      for (size_t k = run_begin; k < lo; ++k) smooth_one(k);
      size_t m = hi - lo + 1;
      for (size_t t = 0; t < m; ++t) {
        sx[lo + t] = 0.0;
        sy[lo + t] = 0.0;
      }
      for (size_t off = 0; off < w; ++off) {
        const double* px = xs + (lo - half + off);
        const double* py = ys + (lo - half + off);
        double* ax = sx + lo;
        double* ay = sy + lo;
        // VEC-KERNEL smooth-sweep (gated by tools/check_vectorization.sh)
        for (size_t t = 0; t < m; ++t) ax[t] += px[t];
        for (size_t t = 0; t < m; ++t) ay[t] += py[t];
      }
      for (size_t t = 0; t < m; ++t) {
        sx[lo + t] /= divisor;
        sy[lo + t] /= divisor;
      }
      rep->smoothed += m;  // interior windows always average w > 1 records
      for (size_t k = hi + 1; k <= run_end; ++k) smooth_one(k);
    } else {
      for (size_t k = run_begin; k <= run_end; ++k) smooth_one(k);
    }
    run_begin = run_end + 1;
  }
  std::copy(scratch->smooth_x.begin(), scratch->smooth_x.end(), block->xs.begin());
  std::copy(scratch->smooth_y.begin(), scratch->smooth_y.end(), block->ys.begin());
}

// Pass 4: snap anything left outside walkable space back in. Per-record
// independent, so the records fan out in fixed chunks. Each chunk's locations
// are gathered into contiguous staging and issued as one
// Dsm::SnapIfOutsideBatch — the batch mask-tests walkability over the whole
// chunk and cell-sorts the outside points so the ring searches walk the edge
// buckets cache-coherently; per-point results are identical to per-record
// SnapIfOutside calls.
void RawDataCleaner::SnapPass(RecordBlock* block, CleanerScratch* scratch,
                              CleaningReport* rep, util::ThreadPool* pool) const {
  if (!options_.snap_to_walkable) return;
  const size_t n = block->Size();
  scratch->snap_flags.assign(n, 0);
  size_t chunks = (n + kSnapChunk - 1) / kSnapChunk;
  scratch->snap_points.resize(n);
  scratch->snap_results.resize(n);
  geo::IndoorPoint* pts = scratch->snap_points.data();
  geo::IndoorPoint* res = scratch->snap_results.data();
  uint8_t* flags = scratch->snap_flags.data();
  ForItems(pool, n, chunks, [&](size_t c) {
    size_t begin = c * kSnapChunk;
    size_t end = std::min(n, begin + kSnapChunk);
    size_t len = end - begin;
    block->GatherLocations(begin, end, pts + begin);
    dsm_->SnapIfOutsideBatch({pts + begin, len}, {res + begin, len},
                             {flags + begin, len});
    for (size_t k = begin; k < end; ++k) {
      if (flags[k]) block->SetLocation(k, res[k]);
    }
  });
  for (size_t k = 0; k < n; ++k) rep->snapped += scratch->snap_flags[k];
}

void RawDataCleaner::CleanBlock(RecordBlock* block, CleanerScratch* scratch,
                                CleaningReport* report, util::ThreadPool* pool,
                                const CleaningStageMetrics* stages) const {
  CleaningReport local;
  CleaningReport* rep = report != nullptr ? report : &local;
  *rep = CleaningReport{};
  rep->total_records = block->Size();

  block->SortByTime();
  block->MarkAllValid();
  if (block->Size() < 2) return;

  static thread_local CleanerScratch tls_scratch;
  CleanerScratch* s = scratch != nullptr ? scratch : &tls_scratch;

  {
    obs::StageTimer timer(stages != nullptr ? stages->scan_ns : nullptr);
    ScanPass(block, s, rep);
  }
  {
    obs::StageTimer timer(stages != nullptr ? stages->interpolate_ns : nullptr);
    InterpolatePass(block, s, rep, pool);
  }
  {
    obs::StageTimer timer(stages != nullptr ? stages->smooth_ns : nullptr);
    SmoothPass(block, s, rep);
  }
  {
    obs::StageTimer timer(stages != nullptr ? stages->snap_ns : nullptr);
    SnapPass(block, s, rep, pool);
  }
}

PositioningSequence RawDataCleaner::Clean(const PositioningSequence& raw,
                                          CleaningReport* report,
                                          util::ThreadPool* pool) const {
  static thread_local RecordBlock block;
  block.AssignFrom(raw);
  CleanBlock(&block, nullptr, report, pool);
  return block.ToSequence();
}

}  // namespace trips::cleaning
