// Service scaling baseline: end-to-end batch translation throughput
// (records/sec) on the Fig. 5 workload (the simulated 7-floor mall) as the
// service's worker pool grows. One immutable core::Engine is shared by every
// configuration; each row is one Service with a different pool size, where
// "threads" counts everyone who works on a request (pool workers + the
// submitting thread). The speedup column is relative to the single-threaded
// row — the number the ROADMAP's scaling work tracks.
//
//   ./bench_service_throughput [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bench_common.h"

using namespace trips;
using bench::MallContext;

namespace {

core::ServiceOptions Workers(size_t pool_workers) {
  core::ServiceOptions options;
  options.worker_threads = pool_workers;
  return options;
}

std::shared_ptr<const core::Engine> SharedEngine(const MallContext& ctx) {
  auto engine = core::Engine::Builder().BorrowDsm(ctx.dsm.get()).Build();
  if (!engine.ok()) std::abort();
  return engine.ValueOrDie();
}

void ReportScaling() {
  MallContext ctx = MallContext::Make(7, 3);
  std::shared_ptr<const core::Engine> engine = SharedEngine(ctx);

  constexpr int kDevices = 64;
  auto fleet = bench::MakeFleet(ctx, kDevices, bench::DefaultNoise(7), 457);
  core::TranslationRequest request;
  size_t records = 0;
  for (const auto& nd : fleet) {
    request.sequences.push_back(nd.raw);
    records += nd.raw.records.size();
  }

  std::printf("=== Service batch throughput, %d devices / %zu records ===\n",
              kDevices, records);
  std::printf("(host reports %u hardware threads)\n\n",
              std::thread::hardware_concurrency());
  std::printf("%8s | %10s | %9s | %8s\n", "threads", "elapsed_ms", "records/s",
              "speedup");

  double base_rate = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    core::Service service(engine, Workers(threads - 1));
    // Warm-up run, then the measured run.
    if (!service.Translate(request).ok()) std::abort();
    auto response = service.Translate(request);
    if (!response.ok()) std::abort();
    double rate = records / (response->elapsed_ms / 1000.0);
    if (threads == 1) base_rate = rate;
    std::printf("%8zu | %10.1f | %9.0f | %7.2fx\n", threads,
                response->elapsed_ms, rate, rate / base_rate);
  }
  std::printf("\n");
}

void BM_ServiceBatchThroughput(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static std::shared_ptr<const core::Engine> engine = SharedEngine(ctx);
  static auto fleet = bench::MakeFleet(ctx, 32, bench::DefaultNoise(7), 461);

  core::TranslationRequest request;
  size_t records = 0;
  for (const auto& nd : fleet) {
    request.sequences.push_back(nd.raw);
    records += nd.raw.records.size();
  }

  size_t threads = static_cast<size_t>(state.range(0));
  core::Service service(engine, Workers(threads - 1));
  size_t processed = 0;
  for (auto _ : state) {
    auto response = service.Translate(request);
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response);
    processed += records;
  }
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(processed), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ServiceBatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Streaming throughput: one producer feeding a stream session record by
// record, results delivered to a sink by the final FlushAll.
void BM_StreamSessionIngest(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(7, 3);
  static std::shared_ptr<const core::Engine> engine = SharedEngine(ctx);
  static auto fleet = bench::MakeFleet(ctx, 8, bench::DefaultNoise(7), 463);

  core::Service service(engine, Workers(0));
  size_t processed = 0;
  for (auto _ : state) {
    auto stream = service.NewStreamSession();
    size_t delivered = 0;
    stream->SetSink([&](core::TranslationResult result) {
      delivered += result.semantics.Size();
    });
    for (const auto& nd : fleet) {
      for (const auto& record : nd.raw.records) {
        if (!stream->Ingest(nd.raw.device_id, record).ok()) std::abort();
        ++processed;
      }
    }
    if (!stream->FlushAll().ok()) std::abort();
    benchmark::DoNotOptimize(delivered);
  }
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StreamSessionIngest)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The scaling study is the default payload; a filtered invocation (CI
  // smoke) gets exactly the benchmarks it asked for and nothing else.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) filtered = true;
  }
  if (!filtered) ReportScaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
