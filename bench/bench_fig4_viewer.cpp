// Experiment F4 (paper Fig. 4): the Viewer's mobility-data visualization.
// Measures timeline abstraction throughput, the synchronous map-view lookup
// (clicking a timeline entry), SVG/HTML rendering cost and output size, and
// the cost of visibility toggles.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

void ReportViewerCosts() {
  MallContext ctx = MallContext::Make(7, 3);
  auto fleet = bench::MakeFleet(ctx, 4, bench::DefaultNoise(7), 161);
  std::vector<positioning::PositioningSequence> raws;
  for (const auto& nd : fleet) raws.push_back(nd.raw);
  auto results = bench::TranslateBatch(bench::MakeEngine(ctx), std::move(raws));

  std::printf("=== Fig. 4: viewer rendering ===\n\n");
  viewer::MapRenderer renderer(ctx.dsm.get());
  size_t entries = 0;
  for (const core::TranslationResult& r : results) {
    viewer::Timeline raw_tl = viewer::Timeline::FromPositioning(r.raw, "raw");
    viewer::Timeline sem_tl = viewer::Timeline::FromSemantics(
        r.semantics, r.cleaned, viewer::DisplayPointPolicy::kTemporalMiddle,
        "semantics");
    entries += raw_tl.entries.size() + sem_tl.entries.size();
    renderer.AddTimeline(std::move(raw_tl));
    renderer.AddTimeline(std::move(sem_tl));
  }
  auto t0 = std::chrono::steady_clock::now();
  std::string svg = renderer.RenderFloorSvg(0);
  auto t1 = std::chrono::steady_clock::now();
  std::string html = viewer::RenderHtml(*ctx.dsm, renderer);
  auto t2 = std::chrono::steady_clock::now();
  std::printf("timeline entries abstracted: %zu\n", entries);
  std::printf("floor SVG: %.1f KB in %.2f ms\n", svg.size() / 1024.0,
              std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
                  1000.0);
  std::printf("full HTML (7 floors + timelines): %.1f KB in %.2f ms\n\n",
              html.size() / 1024.0,
              std::chrono::duration_cast<std::chrono::microseconds>(t2 - t1).count() /
                  1000.0);
}

positioning::PositioningSequence BigSequence(size_t n) {
  positioning::PositioningSequence seq;
  seq.device_id = "big";
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    seq.records.emplace_back(rng.Uniform(0, 100), rng.Uniform(0, 60),
                             static_cast<geo::FloorId>(rng.UniformInt(0, 6)),
                             static_cast<TimestampMs>(i) * 3000);
  }
  return seq;
}

void BM_TimelineAbstraction(benchmark::State& state) {
  positioning::PositioningSequence seq = BigSequence(
      static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    viewer::Timeline tl = viewer::Timeline::FromPositioning(seq, "raw");
    benchmark::DoNotOptimize(tl);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimelineAbstraction)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SemanticsAbstraction(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(2, 2);
  static auto fleet = bench::MakeFleet(ctx, 1, bench::DefaultNoise(2), 171);
  static auto result = bench::MakeEngine(ctx)->Translate(fleet[0].raw);
  auto policy = static_cast<viewer::DisplayPointPolicy>(state.range(0));
  for (auto _ : state) {
    viewer::Timeline tl =
        viewer::Timeline::FromSemantics(result.semantics, result.cleaned, policy, "s");
    benchmark::DoNotOptimize(tl);
  }
  state.SetLabel(state.range(0) == 0 ? "temporal_middle" : "spatial_center");
}
BENCHMARK(BM_SemanticsAbstraction)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_EntriesInWindow(benchmark::State& state) {
  positioning::PositioningSequence seq = BigSequence(20000);
  viewer::Timeline tl = viewer::Timeline::FromPositioning(seq, "raw");
  Rng rng(5);
  for (auto _ : state) {
    TimestampMs begin = rng.UniformInt(0, 19000) * 3000;
    auto hits = tl.EntriesIn({begin, begin + 5 * kMillisPerMinute});
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_EntriesInWindow)->Unit(benchmark::kMicrosecond);

void BM_RenderFloorSvg(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  viewer::MapRenderer renderer(ctx.dsm.get());
  renderer.AddTimeline(viewer::Timeline::FromPositioning(
      BigSequence(static_cast<size_t>(state.range(0))), "raw"));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string svg = renderer.RenderFloorSvg(0);
    bytes += svg.size();
    benchmark::DoNotOptimize(svg);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_RenderFloorSvg)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_VisibilityToggle(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  viewer::MapRenderer renderer(ctx.dsm.get());
  renderer.AddTimeline(viewer::Timeline::FromPositioning(BigSequence(5000), "raw"));
  renderer.AddTimeline(viewer::Timeline::FromPositioning(BigSequence(5000), "truth"));
  viewer::MapViewOptions hide;
  hide.visible["raw"] = false;
  bool flip = false;
  for (auto _ : state) {
    std::string svg = renderer.RenderFloorSvg(0, flip ? hide : viewer::MapViewOptions{});
    flip = !flip;
    benchmark::DoNotOptimize(svg);
  }
}
BENCHMARK(BM_VisibilityToggle)->Unit(benchmark::kMillisecond);

void BM_AsciiRender(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  std::vector<viewer::Timeline> timelines;
  timelines.push_back(viewer::Timeline::FromPositioning(BigSequence(1000), "raw"));
  for (auto _ : state) {
    std::string grid = viewer::RenderFloorAscii(*ctx.dsm, 0, timelines);
    benchmark::DoNotOptimize(grid);
  }
}
BENCHMARK(BM_AsciiRender)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ReportViewerCosts();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
