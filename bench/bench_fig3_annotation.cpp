// Experiment F3b (paper Fig. 3, Annotation layer): event-identification
// quality of the learning-based models against the stop/move baseline of the
// prior GPS systems ([10,12]), plus splitting and spatial-matching quality
// and annotation throughput. Expected shape: learned models beat the
// two-pattern baseline, mainly by separating pass-by/wander from stay.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

std::vector<config::LabeledSegment> CollectSegments(const MallContext& ctx,
                                                    int devices, uint64_t seed) {
  Rng rng(seed);
  std::vector<config::LabeledSegment> segments;
  for (int d = 0; d < devices; ++d) {
    auto dev = ctx.generator->GenerateDevice("seg-" + std::to_string(d), 0, &rng);
    if (!dev.ok()) std::abort();
    for (const core::MobilitySemantic& s : dev->semantics.semantics) {
      config::LabeledSegment seg;
      seg.event = s.event;
      seg.segment.records = dev->truth.RecordsIn(s.range);
      if (seg.segment.records.size() >= 2) segments.push_back(std::move(seg));
    }
  }
  return segments;
}

void ReportEventIdentification() {
  MallContext ctx = MallContext::Make(7, 3);
  std::vector<config::LabeledSegment> train = CollectSegments(ctx, 20, 42);
  std::vector<config::LabeledSegment> test = CollectSegments(ctx, 10, 4242);
  std::printf("=== Fig. 3 / Annotation: event identification ===\n\n");
  std::printf("training segments: %zu, held-out segments: %zu\n\n", train.size(),
              test.size());

  // Vocabulary in first-appearance order (same as EventClassifier).
  std::vector<std::string> vocab;
  for (const auto& seg : train) {
    if (std::find(vocab.begin(), vocab.end(), seg.event) == vocab.end()) {
      vocab.push_back(seg.event);
    }
  }
  std::vector<annotation::Sample> test_x;
  std::vector<int> test_y;
  annotation::BuildTrainingMatrix(test, vocab, &test_x, &test_y);

  std::printf("%-22s %9s", "model", "accuracy");
  for (const std::string& v : vocab) std::printf(" %11s", ("F1:" + v).c_str());
  std::printf("\n");

  for (annotation::ModelKind kind :
       {annotation::ModelKind::kDecisionTree, annotation::ModelKind::kRandomForest,
        annotation::ModelKind::kLogisticRegression}) {
    annotation::EventClassifier classifier({.model = kind});
    if (!classifier.Train(train).ok()) std::abort();
    size_t hits = 0;
    std::vector<size_t> tp(vocab.size()), fp(vocab.size()), fn(vocab.size());
    for (size_t i = 0; i < test_x.size(); ++i) {
      annotation::FeatureVector f{};
      std::copy(test_x[i].begin(), test_x[i].end(), f.begin());
      std::string predicted = classifier.Identify(f);
      auto it = std::find(vocab.begin(), vocab.end(), predicted);
      int pred = it == vocab.end() ? -1 : static_cast<int>(it - vocab.begin());
      if (pred == test_y[i]) {
        ++hits;
        ++tp[test_y[i]];
      } else {
        if (pred >= 0) ++fp[pred];
        ++fn[test_y[i]];
      }
    }
    std::printf("%-22s %8.1f%%", annotation::ModelKindName(kind),
                100.0 * hits / test_x.size());
    for (size_t c = 0; c < vocab.size(); ++c) {
      double p = tp[c] + fp[c] > 0 ? static_cast<double>(tp[c]) / (tp[c] + fp[c]) : 0;
      double r = tp[c] + fn[c] > 0 ? static_cast<double>(tp[c]) / (tp[c] + fn[c]) : 0;
      double f1 = p + r > 0 ? 2 * p * r / (p + r) : 0;
      std::printf(" %10.2f ", f1);
    }
    std::printf("\n");
  }

  // Stop/move baseline: only two patterns; anything not "stay" counts as
  // pass-by, so wander is unreachable for it.
  size_t baseline_hits = 0;
  for (size_t i = 0; i < test_x.size(); ++i) {
    double mean_speed = test_x[i][annotation::kMeanSpeed];
    std::string predicted = mean_speed < 0.5 ? core::kEventStay : core::kEventPassBy;
    if (predicted == vocab[static_cast<size_t>(test_y[i])]) ++baseline_hits;
  }
  std::printf("%-22s %8.1f%%   (two-pattern stop/move scheme of [10,12])\n\n",
              "stop_move_baseline", 100.0 * baseline_hits / test_x.size());

  // End-to-end annotation agreement (trained TRIPS vs baseline) on fresh devices.
  annotation::EventClassifier trained;
  if (!trained.Train(train).ok()) std::abort();
  annotation::Annotator annotator(ctx.dsm.get(), &trained);
  annotation::StopMoveBaseline baseline(ctx.dsm.get());
  Rng rng(777);
  double trips_event = 0, base_event = 0, trips_region = 0;
  const int kEval = 8;
  for (int d = 0; d < kEval; ++d) {
    auto dev = ctx.generator->GenerateDevice("eval", 0, &rng);
    if (!dev.ok()) std::abort();
    positioning::RecordBlock truth =
        positioning::RecordBlock::FromSequence(dev->truth);
    core::SemanticsAgreement a =
        core::CompareSemantics(dev->semantics, annotator.Annotate(truth));
    core::SemanticsAgreement b =
        core::CompareSemantics(dev->semantics, baseline.Annotate(truth));
    trips_event += a.event_match;
    trips_region += a.region_match;
    base_event += b.event_match;
  }
  std::printf("end-to-end (noiseless data, %d devices): TRIPS event match %.0f%%, "
              "region match %.0f%%; stop/move baseline event match %.0f%%\n\n",
              kEval, trips_event / kEval * 100, trips_region / kEval * 100,
              base_event / kEval * 100);
}

void BM_SplitSequence(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 1, bench::DefaultNoise(7), 808);
  static auto block = positioning::RecordBlock::FromSequence(fleet[0].raw);
  for (auto _ : state) {
    auto snippets = annotation::SplitSequence(block);
    benchmark::DoNotOptimize(snippets);
  }
  state.counters["records"] = static_cast<double>(block.Size());
}
BENCHMARK(BM_SplitSequence)->Unit(benchmark::kMillisecond);

void BM_ExtractFeatures(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 1, bench::DefaultNoise(7), 909);
  static auto block = positioning::RecordBlock::FromSequence(fleet[0].raw);
  for (auto _ : state) {
    auto f = annotation::ExtractFeatures(block, 0, block.Size());
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_ExtractFeatures)->Unit(benchmark::kMicrosecond);

void BM_TrainModel(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto train = CollectSegments(ctx, 10, 111);
  auto kind = static_cast<annotation::ModelKind>(state.range(0));
  for (auto _ : state) {
    annotation::EventClassifier classifier({.model = kind});
    if (!classifier.Train(train).ok()) std::abort();
    benchmark::DoNotOptimize(classifier);
  }
  state.SetLabel(annotation::ModelKindName(kind));
}
BENCHMARK(BM_TrainModel)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_Annotate(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static auto fleet = bench::MakeFleet(ctx, 1, bench::DefaultNoise(7), 121);
  static auto block = positioning::RecordBlock::FromSequence(fleet[0].raw);
  static annotation::EventClassifier classifier;  // rule-based
  annotation::Annotator annotator(ctx.dsm.get(), &classifier);
  size_t records = 0;
  for (auto _ : state) {
    auto semantics = annotator.Annotate(block);
    benchmark::DoNotOptimize(semantics);
    records += block.Size();
  }
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Annotate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ReportEventIdentification();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
