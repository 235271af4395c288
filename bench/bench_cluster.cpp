// Cluster ingest scaling: records/sec through the multi-venue front door as
// the venue (shard) count grows, under a balanced and a skewed device→venue
// assignment. Four pump threads feed the cluster concurrently; every venue
// shares one engine (the bench measures the sharded ingest path — routing,
// per-shard buffering, flush translation on the shared pool — not engine
// diversity). The skewed rows send 80% of devices to one hot venue, the
// city-scale worst case: a concert lets out while the rest of town idles.
//
//   ./bench_cluster [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"

using namespace trips;
using bench::MallContext;

namespace {

constexpr int kDevices = 16;
constexpr int kPumpThreads = 4;

std::shared_ptr<const core::Engine> SharedEngine(const MallContext& ctx) {
  auto engine = core::Engine::Builder().BorrowDsm(ctx.dsm.get()).Build();
  if (!engine.ok()) std::abort();
  return engine.ValueOrDie();
}

// Device i's venue: balanced spreads the fleet round-robin; skewed sends
// 4 of 5 devices to venue 0 and spreads the rest.
size_t VenueOf(int device, size_t venues, bool skewed) {
  if (!skewed) return static_cast<size_t>(device) % venues;
  if (device % 5 != 0) return 0;
  return static_cast<size_t>(device / 5) % venues;
}

std::string VenueId(size_t v) { return "venue-" + std::to_string(v); }

// One timed run: a fresh cluster over `venues` memory-only shards, four pump
// threads pushing every device's feed through MakeSink, one FlushAll.
// Returns the records ingested.
size_t PumpOnce(const std::vector<bench::NoisyDevice>& fleet,
                const std::shared_ptr<const core::Engine>& engine, size_t venues,
                bool skewed) {
  cluster::Cluster city({.worker_threads = kPumpThreads});
  for (size_t v = 0; v < venues; ++v) {
    if (!city.AddVenue({.venue_id = VenueId(v), .engine = engine}).ok()) {
      std::abort();
    }
  }
  std::vector<std::thread> pumps;
  for (int t = 0; t < kPumpThreads; ++t) {
    pumps.emplace_back([&, t] {
      auto sink = city.MakeSink();
      for (size_t d = t; d < fleet.size(); d += kPumpThreads) {
        const auto& raw = fleet[d].raw;
        std::string venue = VenueId(VenueOf(static_cast<int>(d), venues, skewed));
        for (const auto& record : raw.records) {
          sink({venue, raw.device_id, record});
        }
      }
    });
  }
  for (std::thread& t : pumps) t.join();
  if (!city.FlushAll().ok()) std::abort();
  if (city.Stats().dropped_unknown_venue != 0) std::abort();
  size_t records = 0;
  for (const auto& nd : fleet) records += nd.raw.records.size();
  return records;
}

void ReportScaling() {
  MallContext ctx = MallContext::Make(2, 2);
  std::shared_ptr<const core::Engine> engine = SharedEngine(ctx);
  auto fleet = bench::MakeFleet(ctx, kDevices, bench::DefaultNoise(2), 571);
  size_t records = 0;
  for (const auto& nd : fleet) records += nd.raw.records.size();

  std::printf("=== Cluster ingest, %d devices / %zu records, %d pump threads ===\n",
              kDevices, records, kPumpThreads);
  std::printf("(host reports %u hardware threads)\n\n",
              std::thread::hardware_concurrency());
  std::printf("%7s | %8s | %10s | %10s\n", "venues", "feed", "elapsed_ms",
              "records/s");
  for (bool skewed : {false, true}) {
    for (size_t venues : {1u, 2u, 4u, 8u}) {
      using Clock = std::chrono::steady_clock;
      PumpOnce(fleet, engine, venues, skewed);  // warm-up
      Clock::time_point start = Clock::now();
      size_t n = PumpOnce(fleet, engine, venues, skewed);
      double ms = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - start)
                      .count() /
                  1000.0;
      std::printf("%7zu | %8s | %10.1f | %10.0f\n", venues,
                  skewed ? "skewed" : "balanced", ms, n / (ms / 1000.0));
    }
  }
  std::printf("\n");
}

void BM_ClusterIngest(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(2, 2);
  static std::shared_ptr<const core::Engine> engine = SharedEngine(ctx);
  static auto fleet = bench::MakeFleet(ctx, kDevices, bench::DefaultNoise(2), 577);

  size_t venues = static_cast<size_t>(state.range(0));
  bool skewed = state.range(1) != 0;
  size_t processed = 0;
  for (auto _ : state) {
    processed += PumpOnce(fleet, engine, venues, skewed);
  }
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(processed), benchmark::Counter::kIsRate);
  state.counters["venues"] = static_cast<double>(venues);
  state.counters["skewed"] = skewed ? 1.0 : 0.0;
}
BENCHMARK(BM_ClusterIngest)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

// The front door alone: one thread ingests 1,200 devices spread over four
// venues, their records interleaved round-robin as a live city feed arrives.
// Nothing is released (no Poll, and the cap is never reached), so the timed
// loop is venue routing plus device buffering. Reports ns/record; the cluster
// is built and torn down outside the timed region.
void BM_ClusterIngestInterleaved(benchmark::State& state) {
  constexpr size_t kVenues = 4;
  constexpr size_t kFeedDevices = 1200;
  constexpr size_t kRecordsPerDevice = 16;
  static MallContext ctx = MallContext::Make(2, 2);
  static std::shared_ptr<const core::Engine> engine = SharedEngine(ctx);
  // Round r of the feed holds record r of every device, one second apart.
  static const std::vector<cluster::ClusterRecord> feed = [] {
    std::vector<cluster::ClusterRecord> out;
    out.reserve(kFeedDevices * kRecordsPerDevice);
    for (size_t r = 0; r < kRecordsPerDevice; ++r) {
      for (size_t d = 0; d < kFeedDevices; ++d) {
        char device[32];
        std::snprintf(device, sizeof(device), "venue-%zu-device-%06zu", d % kVenues, d);
        positioning::RawRecord record(static_cast<double>(d % 97), static_cast<double>(r),
                                      static_cast<geo::FloorId>(d % 2),
                                      static_cast<TimestampMs>(r * kMillisPerSecond + d));
        out.push_back({VenueId(d % kVenues), device, record});
      }
    }
    return out;
  }();

  using Clock = std::chrono::steady_clock;
  double ingest_ns = 0;
  size_t records = 0;
  cluster::ClusterOptions serial;
  serial.worker_threads = 0;
  for (auto _ : state) {
    cluster::Cluster city(serial);
    for (size_t v = 0; v < kVenues; ++v) {
      cluster::VenueConfig config;
      config.venue_id = VenueId(v);
      config.engine = engine;
      if (!city.AddVenue(std::move(config)).ok()) std::abort();
    }
    Clock::time_point start = Clock::now();
    for (const cluster::ClusterRecord& r : feed) {
      if (!city.Ingest(r.venue_id, r.device_id, r.record).ok()) std::abort();
    }
    double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    state.SetIterationTime(ns / 1e9);
    ingest_ns += ns;
    records += feed.size();
  }
  state.counters["ns/record"] = records == 0 ? 0 : ingest_ns / static_cast<double>(records);
}
BENCHMARK(BM_ClusterIngestInterleaved)->UseManualTime()->Unit(benchmark::kMillisecond);

// Cross-venue query fan-out: city-wide analytics over a populated cluster.
void BM_ClusterBuildAnalytics(benchmark::State& state) {
  static MallContext ctx = MallContext::Make(2, 2);
  static std::shared_ptr<const core::Engine> engine = SharedEngine(ctx);
  static auto fleet = bench::MakeFleet(ctx, kDevices, bench::DefaultNoise(2), 587);

  size_t venues = static_cast<size_t>(state.range(0));
  cluster::Cluster city({.worker_threads = kPumpThreads});
  for (size_t v = 0; v < venues; ++v) {
    if (!city.AddVenue({.venue_id = VenueId(v), .engine = engine}).ok()) {
      std::abort();
    }
  }
  auto sink = city.MakeSink();
  for (size_t d = 0; d < fleet.size(); ++d) {
    const auto& raw = fleet[d].raw;
    std::string venue = VenueId(VenueOf(static_cast<int>(d), venues, false));
    for (const auto& record : raw.records) sink({venue, raw.device_id, record});
  }
  if (!city.FlushAll().ok()) std::abort();

  for (auto _ : state) {
    core::MobilityAnalytics a = city.BuildAnalytics();
    benchmark::DoNotOptimize(a);
  }
  state.counters["venues"] = static_cast<double>(venues);
}
BENCHMARK(BM_ClusterBuildAnalytics)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The scaling table is the default payload; a filtered invocation (CI
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
