// Experiment F3c (paper Fig. 3, Complementing layer): gap-recovery quality of
// MAP inference with learned mobility knowledge vs. (i) a uniform prior and
// (ii) no complementing, as the dropout-gap rate grows; plus the effect of
// corpus size on the learned knowledge. Expected shape: complementing lifts
// the time-weighted region agreement, learned knowledge beats the uniform
// prior, and the margin grows with corpus size.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

void ReportGapRecovery() {
  MallContext ctx = MallContext::Make(7, 3);
  std::printf("=== Fig. 3 / Complementing: gap recovery ===\n\n");
  std::printf("%10s | %12s %12s %12s | %10s\n", "gaps/hour", "no_compl",
              "uniform", "learned", "inferred");

  for (double gaps_per_hour : {2.0, 4.0, 8.0, 12.0}) {
    positioning::ErrorModelOptions noise = bench::DefaultNoise(7);
    noise.gaps_per_hour = gaps_per_hour;
    noise.gap_min = 2 * kMillisPerMinute;
    noise.gap_max = 8 * kMillisPerMinute;
    auto fleet = bench::MakeFleet(ctx, 16, noise,
                                  static_cast<uint64_t>(gaps_per_hour * 100));
    std::vector<positioning::PositioningSequence> raws;
    for (const auto& nd : fleet) raws.push_back(nd.raw);

    // (i) no complementing.
    core::TranslatorOptions off;
    off.enable_complementing = false;
    auto r_off = bench::TranslateBatch(bench::MakeEngine(ctx, off), raws);

    // (ii) uniform prior: a batch that does not learn complements with the
    // engine's baseline knowledge. (iii) learned knowledge from the batch.
    std::shared_ptr<const core::Engine> on = bench::MakeEngine(ctx);
    auto r_uniform = bench::TranslateBatch(on, raws, /*learn_knowledge=*/false);
    auto r_learned = bench::TranslateBatch(on, raws);

    size_t inferred = 0;
    for (const auto& r : r_learned) inferred += r.complement_report.triplets_inferred;

    std::printf("%10.0f | %11.1f%% %11.1f%% %11.1f%% | %10zu\n", gaps_per_hour,
                bench::MeanAgreement(fleet, r_off).region_match * 100,
                bench::MeanAgreement(fleet, r_uniform).region_match * 100,
                bench::MeanAgreement(fleet, r_learned).region_match * 100, inferred);
  }

  // Popularity-skew sweep: the more concentrated the traffic, the more the
  // learned transition knowledge should beat the uniform prior.
  std::printf("\nbiased traffic (Zipf skew over shop popularity), gaps/hour = 8:\n");
  std::printf("%10s | %12s %12s %12s\n", "zipf_skew", "no_compl", "uniform",
              "learned");
  for (double skew : {0.0, 1.0, 2.0}) {
    mobility::GeneratorOptions gopt;
    gopt.popularity_skew = skew;
    mobility::MobilityGenerator skewed(ctx.dsm.get(), ctx.planner.get(), gopt);
    positioning::ErrorModelOptions noise = bench::DefaultNoise(7);
    noise.gaps_per_hour = 8.0;
    noise.gap_min = 2 * kMillisPerMinute;
    noise.gap_max = 8 * kMillisPerMinute;
    Rng rng(static_cast<uint64_t>(skew * 1000) + 5);
    std::vector<bench::NoisyDevice> fleet;
    for (int i = 0; i < 24; ++i) {
      auto dev = skewed.GenerateDevice("dev-" + std::to_string(i), 0, &rng);
      if (!dev.ok()) std::abort();
      bench::NoisyDevice nd;
      nd.truth = std::move(dev).ValueOrDie();
      nd.raw = positioning::ApplyErrorModel(nd.truth.truth, noise, &rng);
      fleet.push_back(std::move(nd));
    }
    std::vector<positioning::PositioningSequence> raws;
    for (const auto& nd : fleet) raws.push_back(nd.raw);

    core::TranslatorOptions off;
    off.enable_complementing = false;
    auto r_off = bench::TranslateBatch(bench::MakeEngine(ctx, off), raws);
    std::shared_ptr<const core::Engine> on = bench::MakeEngine(ctx);
    auto r_uniform = bench::TranslateBatch(on, raws, /*learn_knowledge=*/false);
    auto r_learned = bench::TranslateBatch(on, raws);

    std::printf("%10.1f | %11.1f%% %11.1f%% %11.1f%%\n", skew,
                bench::MeanAgreement(fleet, r_off).region_match * 100,
                bench::MeanAgreement(fleet, r_uniform).region_match * 100,
                bench::MeanAgreement(fleet, r_learned).region_match * 100);
  }

  // Knowledge-corpus-size ablation.
  std::printf("\nknowledge corpus size vs. observed transitions:\n");
  std::printf("%10s %14s\n", "devices", "transitions");
  for (int devices : {2, 8, 32, 64}) {
    auto fleet = bench::MakeFleet(ctx, devices, bench::DefaultNoise(7),
                                  static_cast<uint64_t>(devices));
    std::vector<positioning::PositioningSequence> raws;
    for (const auto& nd : fleet) raws.push_back(nd.raw);
    core::Service service(bench::MakeEngine(ctx));
    std::unique_ptr<core::BatchSession> session = service.NewBatchSession();
    if (!session->Submit({.sequences = std::move(raws)}).ok()) std::abort();
    std::printf("%10d %14zu\n", devices, session->knowledge().observed_transitions);
  }
  std::printf("\n");
}

void BM_KnowledgeBuild(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 16, bench::DefaultNoise(7), 131);
  static std::vector<core::MobilitySemanticsSequence> annotated = [] {
    std::shared_ptr<const core::Engine> engine = bench::MakeEngine(ctx);
    std::vector<core::MobilitySemanticsSequence> out;
    for (const auto& nd : fleet) {
      out.push_back(engine->Translate(nd.raw).original_semantics);
    }
    return out;
  }();
  for (auto _ : state) {
    complement::KnowledgeBuilder builder(ctx.dsm.get());
    for (const auto& seq : annotated) builder.AddSequence(seq);
    auto k = builder.Build();
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_KnowledgeBuild)->Unit(benchmark::kMillisecond);

void BM_InferPath(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static complement::MobilityKnowledge knowledge =
      complement::MobilityKnowledge::Uniform(*ctx.dsm);
  complement::ComplementorOptions opt;
  opt.max_inferred_steps = static_cast<int>(state.range(0));
  complement::Complementor complementor(ctx.dsm.get(), &knowledge, opt);
  Rng rng(7);
  const auto& regions = ctx.dsm->regions();
  for (auto _ : state) {
    dsm::RegionId a =
        regions[static_cast<size_t>(rng.UniformInt(0, regions.size() - 1))].id;
    dsm::RegionId b =
        regions[static_cast<size_t>(rng.UniformInt(0, regions.size() - 1))].id;
    benchmark::DoNotOptimize(complementor.InferPath(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InferPath)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  ReportGapRecovery();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
