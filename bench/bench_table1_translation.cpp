// Experiment T1 (paper Table 1): raw indoor positioning data vs. mobility
// semantics. Regenerates the side-by-side table for a simulated shopper and
// quantifies the conciseness factor the paper's Table 1 illustrates, then
// times the end-to-end single-sequence translation.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

void ReportTable1() {
  MallContext ctx = MallContext::Make(7, 3);
  auto fleet = bench::MakeFleet(ctx, 12, bench::DefaultNoise(7), 101);

  std::vector<positioning::PositioningSequence> raws;
  for (const auto& nd : fleet) raws.push_back(nd.raw);
  auto results = bench::TranslateBatch(bench::MakeEngine(ctx), std::move(raws));

  std::printf("=== Table 1: raw positioning records vs. mobility semantics ===\n\n");
  std::printf("%s\n",
              core::RenderTable1(results[0].raw, results[0].semantics).c_str());

  // Conciseness across the fleet (records per triplet; the paper argues the
  // semantics are "very concise to process" vs. the raw form).
  size_t records = 0, triplets = 0;
  DurationMs covered = 0, span = 0;
  for (const core::TranslationResult& r : results) {
    records += r.raw.records.size();
    triplets += r.semantics.Size();
    covered += r.semantics.CoveredDuration();
    span += r.raw.Span().Duration();
  }
  std::printf("fleet: %zu devices, %zu raw records -> %zu triplets\n",
              results.size(), records, triplets);
  std::printf("conciseness: %.1f records per triplet (%.1fx compression)\n",
              static_cast<double>(records) / triplets,
              static_cast<double>(records) / triplets);
  std::printf("temporal coverage of semantics: %.0f%% of the data span\n\n",
              100.0 * covered / span);
}

void BM_TranslateOneSequence(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 4, bench::DefaultNoise(7), 202);
  std::shared_ptr<const core::Engine> engine = bench::MakeEngine(ctx);
  size_t records = 0;
  for (auto _ : state) {
    core::TranslationResult result = engine->Translate(fleet[0].raw);
    benchmark::DoNotOptimize(result);
    records += fleet[0].raw.records.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TranslateOneSequence)->Unit(benchmark::kMillisecond);

void BM_RenderTable1(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(2, 2);
  static auto fleet = bench::MakeFleet(ctx, 1, bench::DefaultNoise(2), 303);
  core::TranslationResult result = bench::MakeEngine(ctx)->Translate(fleet[0].raw);
  for (auto _ : state) {
    std::string table = core::RenderTable1(result.raw, result.semantics);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_RenderTable1)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  ReportTable1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
