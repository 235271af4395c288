// Shared helpers for the TRIPS benchmark binaries: canned mall + generator
// setup and a noisy-fleet factory, so every bench exercises the same
// simulated venue (the paper's 7-floor mall).
#pragma once

#include <memory>
#include <vector>

#include "core/trips.h"

namespace trips::bench {

/// One self-contained simulation context.
struct MallContext {
  std::unique_ptr<dsm::Dsm> dsm;
  std::unique_ptr<dsm::RoutePlanner> planner;
  std::unique_ptr<mobility::MobilityGenerator> generator;

  static MallContext Make(int floors = 7, int shops_per_arm = 3) {
    MallContext ctx;
    auto mall = dsm::BuildMallDsm({.floors = floors, .shops_per_arm = shops_per_arm});
    if (!mall.ok()) std::abort();
    ctx.dsm = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(ctx.dsm.get());
    if (!planner.ok()) std::abort();
    ctx.planner = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    ctx.generator =
        std::make_unique<mobility::MobilityGenerator>(ctx.dsm.get(), ctx.planner.get());
    return ctx;
  }
};

/// A generated device plus its degraded observation.
struct NoisyDevice {
  mobility::GeneratedDevice truth;
  positioning::PositioningSequence raw;
};

/// Generates `count` devices and degrades them with `noise`.
inline std::vector<NoisyDevice> MakeFleet(const MallContext& ctx, int count,
                                          const positioning::ErrorModelOptions& noise,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<NoisyDevice> fleet;
  fleet.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto dev = ctx.generator->GenerateDevice("dev-" + std::to_string(i),
                                             i * kMillisPerMinute, &rng);
    if (!dev.ok()) std::abort();
    NoisyDevice nd;
    nd.truth = std::move(dev).ValueOrDie();
    nd.raw = positioning::ApplyErrorModel(nd.truth.truth, noise, &rng);
    fleet.push_back(std::move(nd));
  }
  return fleet;
}

/// An engine over `ctx`'s mall with `options`, its event model trained on
/// `training` when given; aborts when the build or the training fails.
inline std::shared_ptr<const core::Engine> MakeEngine(
    const MallContext& ctx, core::TranslatorOptions options = {},
    std::vector<config::LabeledSegment> training = {}) {
  auto engine = core::Engine::Builder()
                    .BorrowDsm(ctx.dsm.get())
                    .SetOptions(options)
                    .SetTrainingData(std::move(training))
                    .Build();
  if (!engine.ok() || !engine.ValueOrDie()->training_status().ok()) std::abort();
  return std::move(engine).ValueOrDie();
}

/// Translates `raws` as one batch on the calling thread (a Service without
/// workers or metrics) and returns the results sorted by device id. With
/// `learn_knowledge` false the engine's uniform prior complements every gap.
inline std::vector<core::TranslationResult> TranslateBatch(
    std::shared_ptr<const core::Engine> engine,
    std::vector<positioning::PositioningSequence> raws,
    bool learn_knowledge = true) {
  core::ServiceOptions serial;
  serial.worker_threads = 0;
  serial.metrics = std::make_shared<obs::MetricsRegistry>(false);
  core::Service service(std::move(engine), serial);
  auto response = service.Translate(
      {.sequences = std::move(raws), .learn_knowledge = learn_knowledge});
  if (!response.ok()) std::abort();
  return std::move(response).ValueOrDie().results;
}

/// Mean region and event agreement of `results` against the ground truth of
/// the `fleet` device with the same id (results come back sorted by device
/// id, not in fleet order).
inline core::SemanticsAgreement MeanAgreement(
    const std::vector<NoisyDevice>& fleet,
    const std::vector<core::TranslationResult>& results) {
  core::SemanticsAgreement mean;
  int n = 0;
  for (const core::TranslationResult& r : results) {
    for (const NoisyDevice& nd : fleet) {
      if (nd.truth.truth.device_id != r.semantics.device_id) continue;
      core::SemanticsAgreement a =
          core::CompareSemantics(nd.truth.semantics, r.semantics);
      mean.region_match += a.region_match;
      mean.event_match += a.event_match;
      ++n;
    }
  }
  if (n > 0) {
    mean.region_match /= n;
    mean.event_match /= n;
  }
  return mean;
}

/// Default error model matched to the bench venue's floor count.
inline positioning::ErrorModelOptions DefaultNoise(int floors) {
  positioning::ErrorModelOptions noise;
  noise.floor_count = floors;
  return noise;
}

}  // namespace trips::bench
