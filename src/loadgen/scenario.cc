#include "loadgen/scenario.h"

namespace trips::loadgen {

mobility::GeneratorOptions ScenarioConfig::ShortSessionMobility() {
  mobility::GeneratorOptions options;
  // Short mall visits: a couple of episodes, sub-minute stays. Visit
  // lifetimes land in the single-digit minutes, the same order of magnitude
  // as the flush windows below, so a replay exercises age-based flushes and
  // final-drain remainders.
  options.episodes_min = 2;
  options.episodes_max = 4;
  options.stay_min = 30 * kMillisPerSecond;
  options.stay_max = 2 * kMillisPerMinute;
  options.wander_min = 20 * kMillisPerSecond;
  options.wander_max = kMillisPerMinute;
  return options;
}

core::StreamOptions ScenarioConfig::ShortSessionStream() {
  core::StreamOptions stream;
  stream.flush_after = 45 * kMillisPerSecond;
  stream.max_buffer_records = 512;
  return stream;
}

positioning::ErrorModelOptions ScenarioConfig::DefaultNoise() {
  positioning::ErrorModelOptions noise;
  // No long coverage gaps (see the field comment in ScenarioConfig): a gap
  // wider than flush_after would age-flush mid-visit fragments and make
  // perfbench's no-drop check depend on the noise draw. Every other error
  // process keeps its model default.
  noise.gaps_per_hour = 0;
  noise.floor_count = 2;  // small venues; callers override
  return noise;
}

ScenarioConfig SteadyScenario() {
  ScenarioConfig config;
  config.name = "steady";
  return config;
}

}  // namespace trips::loadgen
