// loadgen scenarios — the steady city traffic shape: how often visits start
// (a Poisson rate), what a visit looks like (short mobility::GeneratorOptions
// itineraries under Wi-Fi noise), and how a stream front door is driven and
// flushed (poll cadence, core::StreamOptions).
//
// perfbench's city_steady workload replays this scenario into a Cluster, and
// the stream replay tests (tests/testing/replay.h) use its itineraries, noise,
// poll cadence and flush policy.
#pragma once

#include <string>

#include "core/session.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "util/time_util.h"

namespace trips::loadgen {

/// One load scenario. The defaults describe the steady scenario.
struct ScenarioConfig {
  std::string name = "steady";
  /// Poisson arrival rate, visit starts per simulated minute.
  double arrivals_per_min = 240;
  /// Error-model parameters applied to every visit. The default differs from
  /// the model's own default in one way: no long coverage gaps (a mid-visit
  /// gap longer than flush_after would age-flush a fragment, and a fragment
  /// under min_flush_records would then be age-dropped — making perfbench's
  /// no-drop check depend on the noise draw instead of on the flush logic).
  positioning::ErrorModelOptions noise = DefaultNoise();
  /// Visit itinerary knobs (defaults here give short mall visits, so flush
  /// windows and visit lifetimes stay in the same order of magnitude).
  mobility::GeneratorOptions mobility = ShortSessionMobility();
  /// Cadence of Poll(now) sweeps over the target (simulated time).
  DurationMs poll_interval = 15 * kMillisPerSecond;
  /// Flush policy of the target's stream sessions.
  core::StreamOptions stream = ShortSessionStream();

  /// The mobility/stream/noise defaults above, exposed for composition.
  static mobility::GeneratorOptions ShortSessionMobility();
  static core::StreamOptions ShortSessionStream();
  static positioning::ErrorModelOptions DefaultNoise();
};

/// Homogeneous Poisson arrivals at a steady rate.
ScenarioConfig SteadyScenario();

}  // namespace trips::loadgen
