// Experiment T1 (paper Table 1): raw indoor positioning data vs. mobility
// semantics. Regenerates the side-by-side table for a simulated shopper and
// quantifies the conciseness factor the paper's Table 1 illustrates, then
// times the end-to-end single-sequence translation.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.h"

// Every heap allocation of this binary is counted, so BM_TranslateOneSequence
// can report the translation path's allocations per record.
namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

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
  const uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    core::TranslationResult result = engine->Translate(fleet[0].raw);
    benchmark::DoNotOptimize(result);
    records += fleet[0].raw.records.size();
  }
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
  // Includes the TranslationResult each iteration builds and frees.
  state.counters["allocs/record"] = benchmark::Counter(
      records > 0 ? static_cast<double>(allocations) / static_cast<double>(records) : 0);
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
