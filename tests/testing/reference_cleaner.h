// The AoS reference cleaner: the original per-record implementation of the
// cleaning layer's four passes (speed-constraint anchor scan with floor
// correction, DSM-guided interpolation, planar smoothing, snap-back), written
// over PositioningSequence records with a per-query scan over every DSM
// entity for the vertical-connector test. It is the oracle the columnar,
// vectorized cleaning::RawDataCleaner must match byte for byte (records and
// CleaningReport) at any worker count — tests/cleaning_vector_test.cc and
// tests/record_block_test.cc check that — and the before/after baseline of
// bench/bench_cleaning.cpp. Header-only; linked only by tests and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "cleaning/cleaner.h"
#include "dsm/dsm.h"
#include "dsm/routing.h"
#include "positioning/record.h"

namespace trips::cleaning::testing {

class ReferenceCleaner {
 public:
  /// Same contract as RawDataCleaner's constructor.
  ReferenceCleaner(const dsm::Dsm* dsm, const dsm::RoutePlanner* planner,
                   CleanerOptions options = {})
      : dsm_(dsm), planner_(planner), options_(options) {}

  /// The cleaned copy of `raw`; `report` may be null. Always serial.
  positioning::PositioningSequence Clean(const positioning::PositioningSequence& raw,
                                         CleaningReport* report = nullptr) const {
    using positioning::RawRecord;
    CleaningReport local;
    CleaningReport* rep = report != nullptr ? report : &local;
    *rep = CleaningReport{};
    rep->total_records = raw.records.size();

    positioning::PositioningSequence out;
    out.device_id = raw.device_id;
    out.records = raw.records;
    out.SortByTime();
    if (out.records.size() < 2) return out;

    const size_t n = out.records.size();

    // Pass 1: anchor scan.
    auto local_floor_consensus = [&](size_t i) {
      std::map<geo::FloorId, int> votes;
      for (size_t j = i + 1; j < std::min(n, i + 4); ++j) {
        ++votes[out.records[j].location.floor];
      }
      geo::FloorId best = out.records[i].location.floor;
      int best_votes = 0;
      for (const auto& [floor, v] : votes) {
        if (v > best_votes) {
          best_votes = v;
          best = floor;
        }
      }
      return best;
    };
    std::vector<bool> invalid(n, false);
    size_t first_anchor = 0;
    for (size_t s = 0; s + 1 < n && s < 8; ++s) {
      const RawRecord& a = out.records[s];
      const RawRecord& b = out.records[s + 1];
      if (!ViolatesSpeed(a.location, b.location, b.timestamp - a.timestamp)) {
        first_anchor = s;
        break;
      }
      first_anchor = s + 1;
    }
    for (size_t i = 0; i < first_anchor; ++i) {
      invalid[i] = true;
      ++rep->speed_violations;
    }
    size_t last_ok = first_anchor;
    for (size_t i = first_anchor + 1; i < n; ++i) {
      const RawRecord& prev = out.records[last_ok];
      RawRecord& cur = out.records[i];
      DurationMs dt = cur.timestamp - prev.timestamp;
      double planar_speed =
          dt > 0 ? prev.location.PlanarDistanceTo(cur.location) /
                       (static_cast<double>(dt) / 1000.0)
                 : 0;
      bool planar_ok = planar_speed <= options_.max_walking_speed;

      if (cur.location.floor == prev.location.floor) {
        if (planar_ok) {
          last_ok = i;
        } else {
          ++rep->speed_violations;
          invalid[i] = true;
        }
        continue;
      }

      geo::FloorId consensus = local_floor_consensus(i);
      bool at_connector = NearVerticalConnector(prev.location.xy) &&
                          NearVerticalConnector(cur.location.xy);
      if (at_connector && planar_ok && cur.location.floor == consensus) {
        last_ok = i;
        continue;
      }
      ++rep->speed_violations;
      if (planar_ok && consensus == prev.location.floor) {
        cur.location.floor = prev.location.floor;
        ++rep->floor_corrected;
        last_ok = i;
      } else if (planar_ok && cur.location.floor == consensus) {
        last_ok = i;
      } else {
        invalid[i] = true;
      }
    }

    // Pass 2: interpolation with a lazy per-record snap cache.
    std::vector<geo::IndoorPoint> snapped;
    std::vector<char> snap_known;
    auto snapped_location = [&](size_t idx) {
      if (snap_known.empty()) {
        snapped.resize(n);
        snap_known.assign(n, 0);
      }
      if (!snap_known[idx]) {
        snapped[idx] = dsm_->SnapToWalkable(out.records[idx].location);
        snap_known[idx] = 1;
      }
      return snapped[idx];
    };
    size_t i = 0;
    while (i < n) {
      if (!invalid[i]) {
        ++i;
        continue;
      }
      size_t run_begin = i;
      size_t run_end = i;
      while (run_end + 1 < n && invalid[run_end + 1]) ++run_end;

      bool has_prev = run_begin > 0;
      bool has_next = run_end + 1 < n;
      if (has_prev && has_next) {
        const RawRecord& a = out.records[run_begin - 1];
        const RawRecord& b = out.records[run_end + 1];
        dsm::Route route;
        bool have_route = false;
        if (options_.interpolate_along_routes && planner_ != nullptr) {
          geo::IndoorPoint src = options_.snap_to_walkable
                                     ? snapped_location(run_begin - 1)
                                     : a.location;
          geo::IndoorPoint dst = options_.snap_to_walkable
                                     ? snapped_location(run_end + 1)
                                     : b.location;
          Result<dsm::Route> r = planner_->FindRoute(src, dst);
          if (r.ok()) {
            route = std::move(r).ValueOrDie();
            have_route = true;
          }
        }
        DurationMs span = b.timestamp - a.timestamp;
        for (size_t k = run_begin; k <= run_end; ++k) {
          RawRecord& rec = out.records[k];
          double t = span > 0 ? static_cast<double>(rec.timestamp - a.timestamp) /
                                    static_cast<double>(span)
                              : 0.5;
          if (have_route) {
            rec.location = route.PointAtDistance(route.distance * t);
          } else {
            rec.location.xy = a.location.xy + (b.location.xy - a.location.xy) * t;
            rec.location.floor = t < 0.5 ? a.location.floor : b.location.floor;
          }
          ++rep->interpolated;
        }
      } else {
        const RawRecord& anchor =
            has_prev ? out.records[run_begin - 1] : out.records[run_end + 1];
        for (size_t k = run_begin; k <= run_end; ++k) {
          out.records[k].location = anchor.location;
          ++rep->interpolated;
        }
      }
      i = run_end + 1;
    }

    // Pass 3: planar smoothing.
    if (options_.smoothing_window > 1) {
      std::vector<geo::Point2> smoothed(n);
      size_t half = options_.smoothing_window / 2;
      for (size_t k = 0; k < n; ++k) {
        size_t lo = k >= half ? k - half : 0;
        size_t hi = std::min(n - 1, k + half);
        geo::Point2 sum;
        int count = 0;
        for (size_t j = lo; j <= hi; ++j) {
          if (out.records[j].location.floor != out.records[k].location.floor) continue;
          sum = sum + out.records[j].location.xy;
          ++count;
        }
        smoothed[k] = count > 0 ? sum / count : out.records[k].location.xy;
        if (count > 1) ++rep->smoothed;
      }
      for (size_t k = 0; k < n; ++k) out.records[k].location.xy = smoothed[k];
    }

    // Pass 4: the two-call walkability + snap sequence.
    if (options_.snap_to_walkable) {
      for (RawRecord& rec : out.records) {
        if (!dsm_->IsWalkable(rec.location)) {
          rec.location = dsm_->SnapToWalkable(rec.location);
          ++rep->snapped;
        }
      }
    }

    return out;
  }

 private:
  // True iff the planar point sits on/near a vertical connector footprint.
  bool NearVerticalConnector(const geo::Point2& p) const {
    for (const dsm::Entity& e : dsm_->entities()) {
      if (!dsm::IsVerticalKind(e.kind)) continue;
      if (e.shape.Contains(p) ||
          e.shape.BoundaryDistanceTo(p) <= options_.vertical_connector_slack) {
        return true;
      }
    }
    return false;
  }

  // True iff moving a->b within `dt_ms` violates the speed constraint.
  bool ViolatesSpeed(const geo::IndoorPoint& a, const geo::IndoorPoint& b,
                     DurationMs dt_ms) const {
    if (dt_ms <= 0) return false;
    double dist = a.PlanarDistanceTo(b);
    if (a.floor != b.floor) {
      bool at_connector = NearVerticalConnector(a.xy) && NearVerticalConnector(b.xy);
      if (!at_connector) {
        dist += options_.floor_change_penalty * std::abs(a.floor - b.floor);
      }
    }
    double speed = dist / (static_cast<double>(dt_ms) / 1000.0);
    return speed > options_.max_walking_speed;
  }

  const dsm::Dsm* dsm_;
  const dsm::RoutePlanner* planner_;
  CleanerOptions options_;
};

}  // namespace trips::cleaning::testing
