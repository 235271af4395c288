// Experiment F5/F6 (paper Figs. 5-6): the full five-step workflow on the
// simulated 7-floor mall. Sweeps the fleet size, reports end-to-end
// throughput with a per-layer latency split, and validates the final output
// quality against ground truth — the system-level view the demo walks
// through.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

void ReportWorkflow() {
  MallContext ctx = MallContext::Make(7, 3);
  std::printf("=== Fig. 5/6: five-step workflow, per-layer split ===\n\n");
  std::printf("%8s %10s | %9s %9s %9s | %11s | %8s %8s\n", "devices", "records",
              "clean_ms", "annot_ms", "compl_ms", "records/s", "region%", "event%");

  for (int devices : {8, 16, 32, 64}) {
    auto fleet = bench::MakeFleet(ctx, devices, bench::DefaultNoise(7),
                                  static_cast<uint64_t>(devices) * 7);
    size_t records = 0;
    for (const auto& nd : fleet) records += nd.raw.records.size();

    // Layer-by-layer timing (the three phases of a BatchSession request, run
    // serially with the engine's default options).
    // The cleaner routes over a fresh engine's planner, so its route cache
    // starts cold for every fleet size.
    core::TranslatorOptions opt;
    std::shared_ptr<const core::Engine> engine = bench::MakeEngine(ctx, opt);
    cleaning::RawDataCleaner cleaner(ctx.dsm.get(), &engine->planner(), opt.cleaner);
    // Step (3): designate training segments from a handful of devices'
    // ground truth (the Event Editor interaction) and train the identifier.
    annotation::EventClassifier classifier;
    {
      std::vector<config::LabeledSegment> training;
      for (int d = 0; d < std::min(devices, 8); ++d) {
        for (const core::MobilitySemantic& s :
             fleet[static_cast<size_t>(d)].truth.semantics.semantics) {
          config::LabeledSegment seg;
          seg.event = s.event;
          seg.segment.records =
              fleet[static_cast<size_t>(d)].truth.truth.RecordsIn(s.range);
          if (seg.segment.records.size() >= 2) training.push_back(std::move(seg));
        }
      }
      if (!classifier.Train(training).ok()) std::abort();
    }
    annotation::Annotator annotator(ctx.dsm.get(), &classifier, opt.annotator);

    using Clock = std::chrono::steady_clock;
    auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count() /
             1000.0;
    };

    auto t0 = Clock::now();
    std::vector<positioning::RecordBlock> cleaned;
    for (const auto& nd : fleet) {
      cleaned.push_back(positioning::RecordBlock::FromSequence(nd.raw));
      cleaner.CleanBlock(&cleaned.back(), nullptr);
    }
    auto t1 = Clock::now();
    std::vector<core::MobilitySemanticsSequence> annotated;
    for (const auto& seq : cleaned) annotated.push_back(annotator.Annotate(seq));
    auto t2 = Clock::now();
    complement::KnowledgeBuilder builder(ctx.dsm.get());
    for (const auto& seq : annotated) builder.AddSequence(seq);
    complement::MobilityKnowledge knowledge = builder.Build();
    complement::Complementor complementor(ctx.dsm.get(), &knowledge,
                                          opt.complementor);
    std::vector<core::MobilitySemanticsSequence> complemented;
    for (const auto& seq : annotated) {
      complemented.push_back(complementor.Complement(seq, nullptr));
    }
    auto t3 = Clock::now();

    double total_s = ms(t0, t3) / 1000.0;
    double region = 0, event = 0;
    for (size_t i = 0; i < fleet.size(); ++i) {
      core::SemanticsAgreement a =
          core::CompareSemantics(fleet[i].truth.semantics, complemented[i]);
      region += a.region_match;
      event += a.event_match;
    }
    std::printf("%8d %10zu | %9.1f %9.1f %9.1f | %11.0f | %7.0f%% %7.0f%%\n",
                devices, records, ms(t0, t1), ms(t1, t2), ms(t2, t3),
                records / total_s, region / devices * 100, event / devices * 100);
  }
  std::printf("\n");
}

void BM_FullPipeline(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  int devices = static_cast<int>(state.range(0));
  auto fleet = bench::MakeFleet(ctx, devices, bench::DefaultNoise(7),
                                static_cast<uint64_t>(devices) * 13);
  std::vector<positioning::PositioningSequence> raws;
  size_t records = 0;
  for (const auto& nd : fleet) {
    raws.push_back(nd.raw);
    records += nd.raw.records.size();
  }
  size_t processed = 0;
  for (auto _ : state) {
    auto results = bench::TranslateBatch(bench::MakeEngine(ctx), raws);
    benchmark::DoNotOptimize(results);
    processed += records;
  }
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullPipeline)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_ServiceWorkflow(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 8, bench::DefaultNoise(7), 191);
  std::vector<positioning::PositioningSequence> raws;
  for (const auto& nd : fleet) raws.push_back(nd.raw);
  config::DataSelector selector;
  selector.AddSequences(raws);
  selector.SetRule(
      config::And({config::MinRecords(10), config::DeviceIdPattern("dev-*")}));
  auto engine = core::Engine::Builder().BorrowDsm(ctx.dsm.get()).Build();
  if (!engine.ok()) std::abort();
  core::Service service(engine.ValueOrDie());
  for (auto _ : state) {
    auto selected = selector.Select();
    if (!selected.ok()) std::abort();
    auto response = service.Translate({.sequences = std::move(selected).ValueOrDie()});
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServiceWorkflow)->Unit(benchmark::kMillisecond);

void BM_DataSelection(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 64, bench::DefaultNoise(7), 211);
  std::vector<positioning::PositioningSequence> raws;
  for (const auto& nd : fleet) raws.push_back(nd.raw);
  config::DataSelector selector;
  selector.AddSequences(raws);
  selector.SetRule(config::And({
      config::MinDuration(10 * kMillisPerMinute),
      config::FrequencyRange(0.1, 10.0),
      config::SpatialRange(ctx.dsm->FloorBounds(0), -1, 0.2),
  }));
  for (auto _ : state) {
    auto selected = selector.Select();
    if (!selected.ok()) std::abort();
    benchmark::DoNotOptimize(selected);
  }
}
BENCHMARK(BM_DataSelection)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ReportWorkflow();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
