// Ground-truth indoor mobility generator.
//
// SUBSTITUTION (see DESIGN.md §1): stands in for the paper's proprietary
// mall dataset, modeled after the authors' own Vita toolkit [7] ("generating
// indoor mobility data for real-world buildings"). Agents follow itineraries
// of stay / pass-by / wander episodes over DSM routes; the generator emits
// both a noiseless sampled positioning sequence and the ground-truth mobility
// semantics implied by the agent's motion — the label source for the Event
// Editor's training data and for all quantitative benches.
#pragma once

#include <string>
#include <vector>

#include "core/semantics.h"
#include "dsm/dsm.h"
#include "dsm/routing.h"
#include "positioning/record.h"
#include "util/result.h"
#include "util/rng.h"

namespace trips::mobility {

/// Tuning knobs for agent behaviour and sampling.
struct GeneratorOptions {
  /// Positioning sampling period (Wi-Fi scans arrive every few seconds).
  DurationMs sample_interval = 3000;
  /// Walking speed range (m/s) while traveling between episode targets.
  double walk_speed_min = 0.9;
  double walk_speed_max = 1.6;
  /// Browsing (in-region random walk) speed while staying, m/s.
  double browse_speed = 0.35;
  /// Number of itinerary episodes per device session.
  int episodes_min = 4;
  int episodes_max = 10;
  /// Stay duration range.
  DurationMs stay_min = 3 * kMillisPerMinute;
  DurationMs stay_max = 20 * kMillisPerMinute;
  /// Wander duration range (aimless drifting in halls/corridors).
  DurationMs wander_min = 1 * kMillisPerMinute;
  DurationMs wander_max = 4 * kMillisPerMinute;
  /// Episode type mix: probability that a visited region is merely passed
  /// through, and that an episode is a wander in a hall/corridor.
  double pass_by_prob = 0.35;
  double wander_prob = 0.12;
  /// Minimum duration for a traversal run to appear in the ground-truth
  /// semantics (shorter crossings are noise).
  DurationMs min_run = 10 * kMillisPerSecond;
  /// Region categories eligible as stay/pass-by targets (empty = all).
  std::vector<std::string> target_categories = {"shop", "hall"};
  /// Zipf skew of region popularity: 0 = uniform visiting; larger values
  /// concentrate traffic on a few popular regions (real mall traffic is
  /// heavily skewed, which is what makes learned mobility knowledge useful).
  double popularity_skew = 0.0;
  /// Region categories eligible for wander episodes.
  std::vector<std::string> wander_categories = {"hall", "corridor"};
};

/// One generated device: noiseless positioning samples plus the ground-truth
/// semantics of the agent's behaviour.
struct GeneratedDevice {
  positioning::PositioningSequence truth;
  core::MobilitySemanticsSequence semantics;
};

/// Generates agent trajectories over a DSM.
class MobilityGenerator {
 public:
  /// `dsm` and `planner` must outlive the generator; topology must be ready.
  MobilityGenerator(const dsm::Dsm* dsm, const dsm::RoutePlanner* planner,
                    GeneratorOptions options = {});

  /// Generates one device session starting around `start_time`.
  Result<GeneratedDevice> GenerateDevice(const std::string& device_id,
                                         TimestampMs start_time, Rng* rng) const;

  /// Generates `count` devices with session starts uniformly spread over
  /// [window.begin, window.end]. Device ids are "<prefix><index>".
  Result<std::vector<GeneratedDevice>> GenerateFleet(int count,
                                                     const TimeRange& window,
                                                     Rng* rng,
                                                     const std::string& prefix = "dev-") const;

 private:
  // Samples a uniformly random point inside a region's shape (rejection).
  geo::IndoorPoint RandomPointIn(const dsm::SemanticRegion& region, Rng* rng) const;
  // Picks a random region whose category is in `cats` (empty = any region).
  const dsm::SemanticRegion* PickRegion(const std::vector<std::string>& cats,
                                        dsm::RegionId exclude, Rng* rng) const;

  const dsm::Dsm* dsm_;
  const dsm::RoutePlanner* planner_;
  GeneratorOptions options_;
};

}  // namespace trips::mobility
