#include "mobility/generator.h"

#include <algorithm>
#include <cmath>

namespace trips::mobility {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

MobilityGenerator::MobilityGenerator(const dsm::Dsm* dsm,
                                     const dsm::RoutePlanner* planner,
                                     GeneratorOptions options)
    : dsm_(dsm), planner_(planner), options_(std::move(options)) {}

geo::IndoorPoint MobilityGenerator::RandomPointIn(const dsm::SemanticRegion& region,
                                                  Rng* rng) const {
  geo::BoundingBox box = region.shape.Bounds();
  for (int attempt = 0; attempt < 64; ++attempt) {
    geo::Point2 p{rng->Uniform(box.min.x, box.max.x),
                  rng->Uniform(box.min.y, box.max.y)};
    geo::IndoorPoint ip{p, region.floor};
    if (region.shape.Contains(p) && dsm_->IsWalkable(ip)) return ip;
  }
  return region.IndoorCenter();
}

const dsm::SemanticRegion* MobilityGenerator::PickRegion(
    const std::vector<std::string>& cats, dsm::RegionId exclude, Rng* rng) const {
  std::vector<const dsm::SemanticRegion*> pool;
  for (const dsm::SemanticRegion& r : dsm_->regions()) {
    if (r.id == exclude) continue;
    if (!cats.empty() &&
        std::find(cats.begin(), cats.end(), r.category) == cats.end()) {
      continue;
    }
    pool.push_back(&r);
  }
  if (pool.empty()) return nullptr;
  if (options_.popularity_skew <= 0) {
    return pool[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  }
  // Zipf-weighted pick over the (stable) pool order.
  std::vector<double> weights(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), options_.popularity_skew);
  }
  return pool[rng->WeightedIndex(weights)];
}

Result<GeneratedDevice> MobilityGenerator::GenerateDevice(const std::string& device_id,
                                                          TimestampMs start_time,
                                                          Rng* rng) const {
  if (dsm_->regions().empty()) {
    return Status::FailedPrecondition("DSM has no semantic regions");
  }

  GeneratedDevice out;
  out.truth.device_id = device_id;
  out.semantics.device_id = device_id;

  const dsm::SemanticRegion* start_region =
      PickRegion(options_.target_categories, dsm::kInvalidRegion, rng);
  if (start_region == nullptr) {
    return Status::FailedPrecondition("no region matches target_categories");
  }

  geo::IndoorPoint pos = RandomPointIn(*start_region, rng);
  TimestampMs now = start_time;
  // Travel runs (region visited while walking) are derived from samples below;
  // episode labels are recorded here directly.
  struct EpisodeLabel {
    std::string event;
    dsm::RegionId region;
    std::string region_name;
    TimeRange range;
  };
  std::vector<EpisodeLabel> episodes;
  // Sample stream with a parallel "in-episode" flag so traversal-run
  // derivation only looks at travel samples.
  std::vector<std::pair<positioning::RawRecord, bool>> samples;

  auto emit = [&](const geo::IndoorPoint& p, TimestampMs t, bool in_episode) {
    samples.push_back({positioning::RawRecord(p, t), in_episode});
  };

  // Random walk inside a region shape for `duration`, sampling along the way.
  auto dwell = [&](const dsm::SemanticRegion& region, DurationMs duration,
                   double speed) {
    TimestampMs end = now + duration;
    geo::IndoorPoint p = pos;
    while (now < end) {
      emit(p, now, true);
      DurationMs dt = std::min<DurationMs>(options_.sample_interval, end - now);
      double step = speed * static_cast<double>(dt) / 1000.0;
      for (int attempt = 0; attempt < 8; ++attempt) {
        double angle = rng->Uniform(0, 2 * kPi);
        geo::Point2 cand = p.xy + geo::Point2{std::cos(angle), std::sin(angle)} * step;
        if (region.shape.Contains(cand) && dsm_->IsWalkable({cand, p.floor})) {
          p.xy = cand;
          break;
        }
      }
      now += dt;
    }
    emit(p, now, true);
    pos = p;
  };

  // Walks a planned route at `speed`, sampling every sample_interval.
  auto walk_route = [&](const dsm::Route& route, double speed, bool in_episode) {
    double total = route.distance;
    if (total <= 0 || speed <= 0) {
      pos = route.waypoints.empty() ? pos : route.waypoints.back();
      return;
    }
    DurationMs duration =
        static_cast<DurationMs>(std::llround(total / speed * 1000.0));
    TimestampMs end = now + std::max<DurationMs>(duration, 1);
    TimestampMs t0 = now;
    while (now < end) {
      double d = total * static_cast<double>(now - t0) / static_cast<double>(end - t0);
      emit(route.PointAtDistance(d), now, in_episode);
      now += std::min<DurationMs>(options_.sample_interval, end - now);
    }
    pos = route.waypoints.back();
    emit(pos, now, in_episode);
  };

  int episode_count = static_cast<int>(
      rng->UniformInt(options_.episodes_min, options_.episodes_max));
  dsm::RegionId last_region = start_region->id;

  for (int ep = 0; ep < episode_count; ++ep) {
    bool wander = rng->Chance(options_.wander_prob);
    const dsm::SemanticRegion* target =
        wander ? PickRegion(options_.wander_categories, last_region, rng)
               : PickRegion(options_.target_categories, last_region, rng);
    if (target == nullptr) continue;

    // Travel to the episode's entry point; retry with another target when the
    // planner cannot connect (should not happen in the sample spaces).
    geo::IndoorPoint entry = RandomPointIn(*target, rng);
    Result<dsm::Route> route = planner_->FindRoute(pos, entry);
    if (!route.ok()) {
      const dsm::SemanticRegion* retry =
          PickRegion(options_.target_categories, last_region, rng);
      if (retry == nullptr) continue;
      target = retry;
      entry = RandomPointIn(*target, rng);
      route = planner_->FindRoute(pos, entry);
      if (!route.ok()) continue;
    }
    double speed = rng->Uniform(options_.walk_speed_min, options_.walk_speed_max);
    walk_route(route.ValueOrDie(), speed, false);

    EpisodeLabel label;
    label.region = target->id;
    label.region_name = target->name;
    label.range.begin = now;
    if (wander) {
      label.event = core::kEventWander;
      dwell(*target, rng->UniformInt(options_.wander_min, options_.wander_max),
            options_.browse_speed * 1.6);
    } else if (rng->Chance(options_.pass_by_prob)) {
      // Pass through: cross the region to another interior point at walking
      // speed without stopping.
      label.event = core::kEventPassBy;
      geo::IndoorPoint exit_point = RandomPointIn(*target, rng);
      Result<dsm::Route> cross = planner_->FindRoute(pos, exit_point);
      if (cross.ok()) {
        walk_route(cross.ValueOrDie(), speed, true);
      }
    } else {
      label.event = core::kEventStay;
      dwell(*target, rng->UniformInt(options_.stay_min, options_.stay_max),
            options_.browse_speed);
    }
    label.range.end = now;
    if (label.range.Duration() > 0) episodes.push_back(std::move(label));
    last_region = target->id;
  }

  // Assemble the truth positioning sequence.
  out.truth.records.reserve(samples.size());
  for (const auto& [rec, in_ep] : samples) out.truth.records.push_back(rec);
  out.truth.SortByTime();

  // Derive traversal runs (pass-by of regions crossed while traveling) from
  // the non-episode samples.
  std::vector<EpisodeLabel> runs;
  dsm::RegionId run_region = dsm::kInvalidRegion;
  TimestampMs run_begin = 0, run_end = 0;
  auto flush_run = [&]() {
    if (run_region != dsm::kInvalidRegion && run_end - run_begin >= options_.min_run) {
      const dsm::SemanticRegion* r = dsm_->GetRegion(run_region);
      runs.push_back({core::kEventPassBy, run_region, r ? r->name : "", {run_begin, run_end}});
    }
    run_region = dsm::kInvalidRegion;
  };
  for (const auto& [rec, in_ep] : samples) {
    dsm::RegionId rid =
        in_ep ? dsm::kInvalidRegion : dsm_->RegionAt(rec.location);
    if (rid != run_region) {
      flush_run();
      run_region = rid;
      run_begin = rec.timestamp;
    }
    run_end = rec.timestamp;
  }
  flush_run();

  // Merge episode labels and traversal runs into the semantics sequence.
  for (const EpisodeLabel& e : episodes) {
    out.semantics.semantics.push_back(
        {e.event, e.region, e.region_name, e.range, false});
  }
  for (const EpisodeLabel& r : runs) {
    out.semantics.semantics.push_back(
        {r.event, r.region, r.region_name, r.range, false});
  }
  out.semantics.SortByTime();

  if (out.truth.records.empty()) {
    return Status::Internal("generated an empty trajectory for " + device_id);
  }
  return out;
}

Result<std::vector<GeneratedDevice>> MobilityGenerator::GenerateFleet(
    int count, const TimeRange& window, Rng* rng, const std::string& prefix) const {
  if (count <= 0) return Status::InvalidArgument("fleet count must be positive");
  if (!window.Valid()) return Status::InvalidArgument("invalid fleet time window");
  std::vector<GeneratedDevice> fleet;
  fleet.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    TimestampMs start = window.begin;
    if (window.Duration() > 0) {
      start += rng->UniformInt(0, window.Duration());
    }
    TRIPS_ASSIGN_OR_RETURN(GeneratedDevice dev,
                           GenerateDevice(prefix + std::to_string(i), start, rng));
    fleet.push_back(std::move(dev));
  }
  return fleet;
}

}  // namespace trips::mobility
