// Ablation study over the design choices DESIGN.md calls out: which layers
// and which models actually buy the output quality. Grid: cleaning on/off x
// complementing on/off, the four event-model families, and the splitter's
// density radius. Run on the default-noise mall fleet with ground truth.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

/// Mean agreement with ground truth of one batch translated with `opt`.
core::SemanticsAgreement Evaluate(const MallContext& ctx,
                                  const std::vector<bench::NoisyDevice>& fleet,
                                  core::TranslatorOptions opt,
                                  const std::vector<config::LabeledSegment>& training) {
  std::vector<positioning::PositioningSequence> raws;
  for (const auto& nd : fleet) raws.push_back(nd.raw);
  return bench::MeanAgreement(
      fleet, bench::TranslateBatch(bench::MakeEngine(ctx, opt, training), raws));
}

std::vector<config::LabeledSegment> Training(const MallContext& ctx, int devices,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<config::LabeledSegment> out;
  for (int d = 0; d < devices; ++d) {
    auto dev = ctx.generator->GenerateDevice("t", 0, &rng);
    if (!dev.ok()) std::abort();
    for (const core::MobilitySemantic& s : dev->semantics.semantics) {
      config::LabeledSegment seg;
      seg.event = s.event;
      seg.segment.records = dev->truth.RecordsIn(s.range);
      if (seg.segment.records.size() >= 2) out.push_back(std::move(seg));
    }
  }
  return out;
}

void ReportAblation() {
  MallContext ctx = MallContext::Make(7, 3);
  positioning::ErrorModelOptions noise = bench::DefaultNoise(7);
  noise.gaps_per_hour = 4.0;
  auto fleet = bench::MakeFleet(ctx, 16, noise, 987);
  auto training = Training(ctx, 12, 654);

  std::printf("=== Ablation: layers ===\n\n");
  std::printf("%10s %14s | %8s %8s\n", "cleaning", "complementing", "region%",
              "event%");
  for (bool clean : {false, true}) {
    for (bool complement : {false, true}) {
      core::TranslatorOptions opt;
      opt.enable_cleaning = clean;
      opt.enable_complementing = complement;
      core::SemanticsAgreement s = Evaluate(ctx, fleet, opt, training);
      std::printf("%10s %14s | %7.1f%% %7.1f%%\n", clean ? "on" : "off",
                  complement ? "on" : "off", s.region_match * 100,
                  s.event_match * 100);
    }
  }

  std::printf("\n=== Ablation: event model ===\n\n");
  std::printf("%-22s | %8s %8s\n", "model", "region%", "event%");
  {
    core::TranslatorOptions opt;
    core::SemanticsAgreement s = Evaluate(ctx, fleet, opt, {});
    std::printf("%-22s | %7.1f%% %7.1f%%\n", "rule_based(cold)", s.region_match * 100,
                s.event_match * 100);
  }
  for (annotation::ModelKind kind :
       {annotation::ModelKind::kDecisionTree, annotation::ModelKind::kRandomForest,
        annotation::ModelKind::kLogisticRegression, annotation::ModelKind::kKnn}) {
    core::TranslatorOptions opt;
    opt.classifier.model = kind;
    core::SemanticsAgreement s = Evaluate(ctx, fleet, opt, training);
    std::printf("%-22s | %7.1f%% %7.1f%%\n", annotation::ModelKindName(kind),
                s.region_match * 100, s.event_match * 100);
  }

  std::printf("\n=== Ablation: splitter density radius ===\n\n");
  std::printf("%12s | %8s %8s\n", "eps_space_m", "region%", "event%");
  for (double eps : {1.5, 3.0, 5.0, 8.0}) {
    core::TranslatorOptions opt;
    opt.annotator.splitter.eps_space = eps;
    core::SemanticsAgreement s = Evaluate(ctx, fleet, opt, training);
    std::printf("%12.1f | %7.1f%% %7.1f%%\n", eps, s.region_match * 100,
                s.event_match * 100);
  }

  std::printf("\n=== Ablation: cleaner smoothing window ===\n\n");
  std::printf("%12s | %8s %8s\n", "window", "region%", "event%");
  for (int window : {0, 3, 7, 15}) {
    core::TranslatorOptions opt;
    opt.cleaner.smoothing_window = static_cast<size_t>(window);
    core::SemanticsAgreement s = Evaluate(ctx, fleet, opt, training);
    std::printf("%12d | %7.1f%% %7.1f%%\n", window, s.region_match * 100,
                s.event_match * 100);
  }
  std::printf("\n");
}

// Timing counterpart: cost of each layer toggle combination.
void BM_AblationLayers(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 8, bench::DefaultNoise(7), 321);
  core::TranslatorOptions opt;
  opt.enable_cleaning = state.range(0) != 0;
  opt.enable_complementing = state.range(1) != 0;
  std::vector<positioning::PositioningSequence> raws;
  for (const auto& nd : fleet) raws.push_back(nd.raw);
  for (auto _ : state) {
    auto results = bench::TranslateBatch(bench::MakeEngine(ctx, opt), raws);
    benchmark::DoNotOptimize(results);
  }
  state.SetLabel(std::string(opt.enable_cleaning ? "clean" : "noclean") + "+" +
                 (opt.enable_complementing ? "compl" : "nocompl"));
}
BENCHMARK(BM_AblationLayers)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ReportAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
