// Columnar-cleaning benchmarks: the vectorized SoA RecordBlock pipeline
// (reused block + CleanerScratch arena, batched snap in pass 4) vs the AoS
// reference cleaner of tests/testing/reference_cleaner.h, at 1x / 4x / 16x
// venue scale, the snap-heavy high-noise configuration the pass-4 batch
// targets, the parallel intra-sequence passes at 1–8 threads, and the
// batched vs per-record snap query. Records/sec is reported as
// items_per_second; spatial snap-probe counts per sequence ride along as
// counters (probes are reset per benchmark, so each row reports its own
// config's probe cost). Run through bench/run_benches.sh to capture
// BENCH_cleaning.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "testing/reference_cleaner.h"

using namespace trips;

namespace {

constexpr int kFloors = 7;

// state.range(0) is the venue scale factor (1, 4, 16): shops_per_arm = 3x.
bench::MallContext& ContextFor(int scale) {
  static std::map<int, bench::MallContext> contexts;
  auto it = contexts.find(scale);
  if (it == contexts.end()) {
    it = contexts.emplace(scale, bench::MallContext::Make(kFloors, 3 * scale)).first;
  }
  return it->second;
}

// A long noisy corridor walk on the scaled venue: the input shape the cleaner
// sees from heavy devices (outliers + floor errors + jitter force all four
// passes to do real work). The corridor stretches with the venue scale.
positioning::PositioningSequence NoisyWalk(const bench::MallContext& ctx, int n,
                                           uint64_t seed) {
  geo::BoundingBox bounds = ctx.dsm->FloorBounds(0);
  double x_lo = bounds.min.x + 5, x_hi = bounds.max.x - 5;
  positioning::PositioningSequence truth;
  truth.device_id = "bench-walker";
  double x = x_lo;
  double dir = 3.0;
  for (int i = 0; i < n; ++i) {
    truth.records.emplace_back(x, 30.0, 0, static_cast<TimestampMs>(i) * 3000);
    if (x + dir > x_hi || x + dir < x_lo) dir = -dir;
    x += dir;
  }
  positioning::ErrorModelOptions noise = bench::DefaultNoise(kFloors);
  noise.dropout_rate = 0;
  noise.gaps_per_hour = 0;
  Rng rng(seed);
  return positioning::ApplyErrorModel(truth, noise, &rng);
}

cleaning::CleanerOptions BenchCleanerOptions() {
  cleaning::CleanerOptions opt;
  opt.smoothing_window = 3;  // the full-pipeline default
  return opt;
}

void SetCounters(benchmark::State& state, const dsm::Dsm& dsm, size_t records) {
  state.counters["entities"] = static_cast<double>(dsm.entities().size());
  state.counters["records_per_seq"] = static_cast<double>(records);
}

// Per-iteration spatial snap-probe counts for this benchmark's config: probes
// are reset before the timing loop, so the exported numbers are this row's
// own query cost, not an accumulation across earlier rows.
void SetProbeCounters(benchmark::State& state, const dsm::Dsm& dsm) {
  dsm::SpatialProbeStats probes = dsm.spatial_index().probes();
  double iters = static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  state.counters["snap_probes_per_iter"] =
      static_cast<double>(probes.snap_probes) / iters;
  state.counters["snapped_outside_per_iter"] =
      static_cast<double>(probes.snapped_outside) / iters;
}

// ---- AoS reference vs SoA block path, venue scaling ------------------------

constexpr int kSeqRecords = 4096;

void BM_Clean_AoSReference(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  cleaning::testing::ReferenceCleaner reference(ctx.dsm.get(), ctx.planner.get(),
                                                BenchCleanerOptions());
  positioning::PositioningSequence raw = NoisyWalk(ctx, kSeqRecords, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference.Clean(raw));
  }
  state.SetItemsProcessed(state.iterations() * raw.records.size());
  SetCounters(state, *ctx.dsm, raw.records.size());
}
BENCHMARK(BM_Clean_AoSReference)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Clean_SoA(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  cleaning::RawDataCleaner cleaner(ctx.dsm.get(), ctx.planner.get(),
                                   BenchCleanerOptions());
  positioning::PositioningSequence raw = NoisyWalk(ctx, kSeqRecords, 17);
  // Steady-state block pipeline: the work block and scratch arena are reused
  // across sequences (reserve-once), as a translation worker holds them.
  positioning::RecordBlock block;
  cleaning::CleanerScratch scratch;
  ctx.dsm->spatial_index().ResetProbes();
  for (auto _ : state) {
    block.AssignFrom(raw);
    cleaner.CleanBlock(&block, &scratch);
    benchmark::DoNotOptimize(block.xs.data());
  }
  state.SetItemsProcessed(state.iterations() * raw.records.size());
  SetCounters(state, *ctx.dsm, raw.records.size());
  SetProbeCounters(state, *ctx.dsm);
}
BENCHMARK(BM_Clean_SoA)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// The snap-heavy configuration: sparse fixes (120 s spacing) with 70 m jitter
// — slow enough that the speed scan accepts nearly everything (no route
// interpolation), scattered enough that most records land outside the
// building envelope entirely, far from any walkable edge. Pass 4's
// expanding-ring searches dominate, which is exactly what the cell-sorted +
// ring-seeded batch snap targets.
void BM_Clean_SoA_HighNoise(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  cleaning::RawDataCleaner cleaner(ctx.dsm.get(), ctx.planner.get(),
                                   BenchCleanerOptions());
  positioning::PositioningSequence raw = [&] {
    geo::BoundingBox bounds = ctx.dsm->FloorBounds(0);
    double x_lo = bounds.min.x + 5, x_hi = bounds.max.x - 5;
    positioning::PositioningSequence truth;
    truth.device_id = "bench-noisy-walker";
    double x = x_lo;
    double dir = 3.0;
    for (int i = 0; i < kSeqRecords; ++i) {
      truth.records.emplace_back(x, 30.0, 0,
                                 static_cast<TimestampMs>(i) * 120000);
      if (x + dir > x_hi || x + dir < x_lo) dir = -dir;
      x += dir;
    }
    positioning::ErrorModelOptions noise = bench::DefaultNoise(kFloors);
    noise.xy_noise_sigma = 70.0;  // most fixes land outside the building
    noise.floor_error_rate = 0;
    noise.outlier_rate = 0;
    noise.dropout_rate = 0;
    noise.gaps_per_hour = 0;
    Rng rng(31);
    return positioning::ApplyErrorModel(truth, noise, &rng);
  }();
  positioning::RecordBlock block;
  cleaning::CleanerScratch scratch;
  ctx.dsm->spatial_index().ResetProbes();
  for (auto _ : state) {
    block.AssignFrom(raw);
    cleaner.CleanBlock(&block, &scratch);
    benchmark::DoNotOptimize(block.xs.data());
  }
  state.SetItemsProcessed(state.iterations() * raw.records.size());
  SetCounters(state, *ctx.dsm, raw.records.size());
  SetProbeCounters(state, *ctx.dsm);
}
BENCHMARK(BM_Clean_SoA_HighNoise)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// ---- parallel intra-sequence cleaning, 1–8 threads --------------------------

// state.range(0): venue scale; state.range(1): total threads (pool workers =
// threads - 1; the calling thread participates in ParallelFor).
void BM_Clean_SoA_Threads(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  cleaning::CleanerOptions opt = BenchCleanerOptions();
  opt.parallel_min_records = 2048;
  cleaning::RawDataCleaner cleaner(ctx.dsm.get(), ctx.planner.get(), opt);
  positioning::PositioningSequence raw = NoisyWalk(ctx, 32768, 23);
  util::ThreadPool pool(static_cast<size_t>(state.range(1)) - 1);
  positioning::RecordBlock block;
  cleaning::CleanerScratch scratch;
  for (auto _ : state) {
    block.AssignFrom(raw);
    cleaner.CleanBlock(&block, &scratch, nullptr, &pool);
    benchmark::DoNotOptimize(block.xs.data());
  }
  state.SetItemsProcessed(state.iterations() * raw.records.size());
  SetCounters(state, *ctx.dsm, raw.records.size());
}
BENCHMARK(BM_Clean_SoA_Threads)
    ->ArgsProduct({{16}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- combined snap query ----------------------------------------------------

void BM_SnapIfOutside_vs_Pair(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  geo::BoundingBox bounds = ctx.dsm->FloorBounds(0);
  Rng rng(29);
  std::vector<geo::IndoorPoint> points;
  for (int i = 0; i < 1024; ++i) {
    points.push_back({rng.Uniform(bounds.min.x - 3, bounds.max.x + 3),
                      rng.Uniform(bounds.min.y - 3, bounds.max.y + 3),
                      static_cast<geo::FloorId>(rng.UniformInt(0, kFloors - 1))});
  }
  bool combined = state.range(1) != 0;
  size_t i = 0;
  for (auto _ : state) {
    const geo::IndoorPoint& p = points[i++ % points.size()];
    if (combined) {
      bool snapped;
      benchmark::DoNotOptimize(ctx.dsm->SnapIfOutside(p, &snapped));
    } else {
      benchmark::DoNotOptimize(ctx.dsm->IsWalkable(p)
                                   ? p
                                   : ctx.dsm->SnapToWalkable(p));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapIfOutside_vs_Pair)
    ->ArgsProduct({{1, 4, 16}, {0, 1}});

// One SnapIfOutsideBatch call over a whole point block vs the same points
// through the per-record SnapIfOutside loop pass 4 used before batching.
// state.range(1): 0 = per-record loop, 1 = batched (cell-sorted) call.
void BM_SnapBatch_vs_PerRecord(benchmark::State& state) {
  bench::MallContext& ctx = ContextFor(static_cast<int>(state.range(0)));
  geo::BoundingBox bounds = ctx.dsm->FloorBounds(0);
  Rng rng(29);
  std::vector<geo::IndoorPoint> points;
  for (int i = 0; i < 1024; ++i) {
    points.push_back({rng.Uniform(bounds.min.x - 3, bounds.max.x + 3),
                      rng.Uniform(bounds.min.y - 3, bounds.max.y + 3),
                      static_cast<geo::FloorId>(rng.UniformInt(0, kFloors - 1))});
  }
  bool batched = state.range(1) != 0;
  std::vector<geo::IndoorPoint> out(points.size());
  std::vector<uint8_t> snapped(points.size());
  ctx.dsm->spatial_index().ResetProbes();
  for (auto _ : state) {
    if (batched) {
      ctx.dsm->SnapIfOutsideBatch(points, out, snapped);
    } else {
      for (size_t i = 0; i < points.size(); ++i) {
        bool s = false;
        out[i] = ctx.dsm->SnapIfOutside(points[i], &s);
        snapped[i] = s ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(snapped.data());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
  SetProbeCounters(state, *ctx.dsm);
}
BENCHMARK(BM_SnapBatch_vs_PerRecord)
    ->ArgsProduct({{1, 4, 16}, {0, 1}});

}  // namespace

BENCHMARK_MAIN();
