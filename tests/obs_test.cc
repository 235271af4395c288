#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/result_io.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "mobility/generator.h"
#include "obs/metrics.h"
#include "obs/statsz.h"
#include "positioning/error_model.h"
#include "testing/random_dsm.h"

namespace trips {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSummary;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// ---- metric primitives ------------------------------------------------------

TEST(CounterTest, SumsAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.Add(2);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), 16'000u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, AddSubSet) {
  Gauge g;
  g.Add(10);
  g.Sub(3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Sub(50);
  EXPECT_EQ(g.Value(), -8);  // gauges are signed
}

TEST(HistogramTest, BucketLadderIsMonotoneAndConsistent) {
  uint64_t prev = 0;
  for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    uint64_t upper = Histogram::BucketUpperBound(i);
    ASSERT_GT(upper, prev) << "bucket " << i;
    // The bound itself lands in bucket i, one past it in bucket i+1.
    EXPECT_EQ(Histogram::BucketOf(upper), i);
    EXPECT_EQ(Histogram::BucketOf(upper + 1), i + 1);
    prev = upper;
  }
  // The ladder must span nanoseconds to minutes (the paper's batch jobs).
  EXPECT_LE(Histogram::BucketUpperBound(0), 64u);
  EXPECT_GE(Histogram::BucketUpperBound(Histogram::kBuckets - 2),
            60ull * 1000 * 1000 * 1000);
  EXPECT_EQ(Histogram::BucketOf(~0ull), Histogram::kBuckets - 1);
}

TEST(HistogramTest, SummaryExactFieldsAndClampedQuantiles) {
  Histogram h;
  for (uint64_t v : {10u, 20u, 30u, 40u}) h.Record(v);
  HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 100u);
  EXPECT_EQ(s.max, 40u);
  EXPECT_DOUBLE_EQ(s.mean, 25.0);
  // All four values live in the first bucket (<= 64 ns), so every quantile
  // reports that bucket's bound clamped to the exact max.
  EXPECT_EQ(s.p50, 40u);
  EXPECT_EQ(s.p95, 40u);
  EXPECT_EQ(s.p99, 40u);
}

TEST(HistogramTest, EmptySummaryIsZero) {
  Histogram h;
  EXPECT_EQ(h.Summarize(), HistogramSummary{});
}

// The determinism contract: a summary depends only on the recorded multiset,
// never on which thread recorded which value or how shards interleaved.
TEST(HistogramTest, MergeIsDeterministicAcrossThreadPartitions) {
  std::vector<uint64_t> values;
  uint64_t x = 1;
  for (int i = 0; i < 4096; ++i) {
    x = x * 2862933555777941757ull + 3037000493ull;  // fixed LCG
    values.push_back(x >> 20);                       // ns-to-ms-ish range
  }

  Histogram serial;
  for (uint64_t v : values) serial.Record(v);

  Histogram sharded;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&sharded, &values, t] {
      for (size_t i = t; i < values.size(); i += 8) sharded.Record(values[i]);
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(serial.Summarize(), sharded.Summarize());
}

TEST(StageTimerTest, RecordsScopeAndToleratesNull) {
  Histogram h;
  {
    obs::StageTimer t(&h);
  }
  EXPECT_EQ(h.Summarize().count, 1u);
  {
    obs::StageTimer t(nullptr);  // must be a no-op, not a crash
  }
}

// ---- registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.counter("a.count");
  EXPECT_EQ(registry.counter("a.count"), c);
  c->Add(3);
  EXPECT_EQ(registry.counter("a.count")->Value(), 3u);
}

TEST(MetricsRegistryTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry(/*enabled=*/false);
  EXPECT_FALSE(registry.enabled());
  Counter* c = registry.counter("x");
  Gauge* g = registry.gauge("y");
  Histogram* h = registry.histogram("z");
  c->Add(5);
  g->Add(5);
  h->Record(5);
  {
    obs::StageTimer t(h);  // recording() is false: no clock reads either
  }
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Summarize().count, 0u);

  registry.set_enabled(true);
  c->Add(5);
  EXPECT_EQ(c->Value(), 5u);
}

TEST(MetricsRegistryTest, CallbackGaugesFoldIntoSnapshots) {
  MetricsRegistry registry;
  int64_t source = 17;
  registry.SetCallback("cb.value", [&source] { return source; });
  MetricsSnapshot snap = registry.Snap();
  auto it = std::find_if(snap.gauges.begin(), snap.gauges.end(),
                         [](const auto& g) { return g.first == "cb.value"; });
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, 17);

  registry.RemoveCallback("cb.value");
  snap = registry.Snap();
  EXPECT_TRUE(std::none_of(snap.gauges.begin(), snap.gauges.end(),
                           [](const auto& g) { return g.first == "cb.value"; }));
}

TEST(MetricsRegistryTest, SnapshotIsNameOrdered) {
  MetricsRegistry registry;
  registry.counter("b")->Add(1);
  registry.counter("a")->Add(1);
  registry.gauge("z")->Set(1);
  registry.SetCallback("m", [] { return int64_t{1}; });
  MetricsSnapshot snap = registry.Snap();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[1].first, "b");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "m");  // callbacks re-sorted in
  EXPECT_EQ(snap.gauges[1].first, "z");
}

// The golden statsz export: values picked so every histogram field is exact
// (single sub-64ns bucket, integral mean) and the JSON is fully deterministic.
TEST(StatszTest, GoldenSnapshotJson) {
  MetricsRegistry registry;
  registry.counter("requests")->Add(3);
  registry.gauge("depth")->Set(-2);
  Histogram* h = registry.histogram("lat");
  h->Record(10);
  h->Record(30);

  std::string expected =
      "{\"counters\":{\"requests\":3},"
      "\"gauges\":{\"depth\":-2},"
      "\"histograms\":{\"lat\":{"
      "\"count\":2,\"mean_ns\":20,\"p50_ns\":30,\"p95_ns\":30,"
      "\"p99_ns\":30,\"max_ns\":30,\"sum_ns\":40}}}";
  EXPECT_EQ(obs::StatszJson(registry.Snap()).Dump(), expected);

  // DumpStatsz is the pretty form of the same document.
  std::ostringstream out;
  obs::DumpStatsz(registry, out);
  auto parsed = json::Parse(out.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), expected);
}

// ---- service integration ----------------------------------------------------

std::vector<std::pair<std::string, std::string>> DumpByDevice(
    const std::vector<core::TranslationResult>& results) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const core::TranslationResult& r : results) {
    out.emplace_back(r.semantics.device_id,
                     core::SemanticsToJson(r.semantics).Dump());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ObsServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    mall_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(mall_.get());
    ASSERT_TRUE(planner.ok());
    planner_ =
        std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    generator_ = std::make_unique<mobility::MobilityGenerator>(mall_.get(),
                                                               planner_.get());
    auto engine = core::Engine::Builder().BorrowDsm(mall_.get()).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = *engine;
  }

  std::vector<positioning::PositioningSequence> MakeFleet(int n,
                                                          uint64_t seed) {
    Rng rng(seed);
    std::vector<positioning::PositioningSequence> fleet;
    for (int i = 0; i < n; ++i) {
      auto dev =
          generator_->GenerateDevice("dev-" + std::to_string(i), 0, &rng);
      EXPECT_TRUE(dev.ok());
      positioning::ErrorModelOptions noise;
      noise.floor_count = 2;
      fleet.push_back(positioning::ApplyErrorModel(dev->truth, noise, &rng));
    }
    return fleet;
  }

  std::unique_ptr<dsm::Dsm> mall_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
  std::unique_ptr<mobility::MobilityGenerator> generator_;
  std::shared_ptr<const core::Engine> engine_;
};

// The observability acceptance gate: translation output is byte-identical
// with metrics recording on or off, at any worker count.
TEST_F(ObsServiceFixture, TranslationByteIdenticalMetricsOnOff) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(5, 311);
  std::vector<std::pair<std::string, std::string>> reference;

  for (size_t workers : {0u, 1u, 4u}) {
    for (bool metrics_on : {true, false}) {
      core::ServiceOptions options;
      options.worker_threads = workers;
      options.metrics = std::make_shared<MetricsRegistry>(metrics_on);
      core::Service service(engine_, options);
      auto response = service.Translate({.sequences = fleet});
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      auto dump = DumpByDevice(response->results);
      if (reference.empty()) {
        reference = dump;
      } else {
        EXPECT_EQ(dump, reference)
            << "workers=" << workers << " metrics_on=" << metrics_on;
      }

      // When recording, the per-stage metrics must have seen the batch.
      MetricsSnapshot snap = service.stats_registry()->Snap();
      std::map<std::string, uint64_t> counters(snap.counters.begin(),
                                               snap.counters.end());
      std::map<std::string, HistogramSummary> hists(snap.histograms.begin(),
                                                    snap.histograms.end());
      if (metrics_on) {
        EXPECT_EQ(counters.at("translate.sequences"), fleet.size());
        EXPECT_GT(counters.at("translate.records"), 0u);
        EXPECT_EQ(hists.at("translate.clean_ns").count, fleet.size());
        EXPECT_EQ(hists.at("translate.annotate_ns").count, fleet.size());
        EXPECT_EQ(hists.at("translate.split_ns").count, fleet.size());
        EXPECT_EQ(hists.at("translate.complement_ns").count, fleet.size());
        EXPECT_EQ(hists.at("translate.batch_submit_ns").count, 1u);
        std::map<std::string, int64_t> gauges(snap.gauges.begin(),
                                              snap.gauges.end());
        EXPECT_EQ(gauges.at("pool.workers"), static_cast<int64_t>(workers));
        // ParallelFor takes back the helpers no worker started, but a worker
        // that has just dequeued one may not have lowered the gauge yet; the
        // gauge invariant is bounds, not zero.
        EXPECT_GE(gauges.at("pool.queue_depth"), 0);
        EXPECT_LE(gauges.at("pool.queue_depth"),
                  static_cast<int64_t>(workers));
      } else {
        EXPECT_EQ(counters.at("translate.sequences"), 0u);
        EXPECT_EQ(hists.at("translate.clean_ns").count, 0u);
      }
    }
  }
}

TEST_F(ObsServiceFixture, StreamSessionRecordsIngestToResultLatency) {
  core::ServiceOptions options;
  options.worker_threads = 0;
  core::Service service(engine_, options);
  auto stream = service.NewStreamSession();

  std::vector<positioning::PositioningSequence> fleet = MakeFleet(3, 331);
  size_t total_records = 0;
  for (const auto& seq : fleet) {
    total_records += seq.records.size();
    for (const auto& record : seq.records) {
      ASSERT_TRUE(stream->Ingest(seq.device_id, record).ok());
    }
  }
  MetricsSnapshot mid = service.stats_registry()->Snap();
  std::map<std::string, int64_t> gauges(mid.gauges.begin(), mid.gauges.end());
  EXPECT_EQ(gauges.at("stream.buffered_records"),
            static_cast<int64_t>(total_records));

  auto results = stream->FlushAll();
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), fleet.size());
  for (const core::TranslationResult& r : *results) EXPECT_TRUE(r.trace.active());

  MetricsSnapshot snap = service.stats_registry()->Snap();
  std::map<std::string, uint64_t> counters(snap.counters.begin(),
                                           snap.counters.end());
  std::map<std::string, int64_t> after(snap.gauges.begin(), snap.gauges.end());
  std::map<std::string, HistogramSummary> hists(snap.histograms.begin(),
                                                snap.histograms.end());
  EXPECT_EQ(counters.at("stream.records_ingested"), total_records);
  EXPECT_EQ(counters.at("stream.flushes"), fleet.size());
  EXPECT_EQ(counters.at("stream.flush_records"), total_records);
  EXPECT_EQ(after.at("stream.buffered_records"), 0);
  // Every flushed buffer carried its first-record trace stamp into the
  // ingest-to-result latency histogram.
  EXPECT_EQ(hists.at("stream.ingest_to_result_ns").count, fleet.size());
  EXPECT_GT(hists.at("stream.ingest_to_result_ns").max, 0u);
}

TEST_F(ObsServiceFixture, StatszCoversEveryLayer) {
  core::ServiceOptions options;
  options.worker_threads = 2;
  core::Service service(engine_, options);
  auto response = service.Translate({.sequences = MakeFleet(3, 347)});
  ASSERT_TRUE(response.ok());
  auto stream = service.NewStreamSession();  // wires the stream.* metrics

  std::ostringstream out;
  service.DumpStatsz(out);
  const std::string statsz = out.str();
  for (const char* key :
       {"pool.queue_depth", "pool.task_wait_ns", "pool.task_run_ns",
        "pool.workers", "translate.clean_ns", "translate.split_ns",
        "translate.annotate_ns", "translate.complement_ns",
        "translate.sequences", "stream.ingest_to_result_ns",
        "routing.cache_hits", "routing.cache_misses", "routing.cache_size",
        "spatial.partition_probes", "spatial.snap_probes"}) {
    EXPECT_NE(statsz.find(key), std::string::npos) << "missing " << key;
  }
  auto parsed = json::Parse(statsz);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

// Satellite: RoutePlanner cache stats surface coherently through the Engine,
// including the new eviction counter.
TEST(EngineObservabilityTest, RoutingCacheStatsTrackHitsMissesEvictions) {
  auto dsm = std::make_unique<dsm::Dsm>(dsm::testing::MakeMall(3, 2));
  core::TranslatorOptions options;
  options.routing.route_cache_capacity = 1;  // every new source evicts
  auto built = core::Engine::Builder()
                   .BorrowDsm(dsm.get())
                   .SetOptions(options)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const core::Engine& engine = **built;

  geo::IndoorPoint a{5, 45, 0}, b{65, 10, 0};
  ASSERT_TRUE(engine.planner().FindRoute(a, b).ok());
  ASSERT_TRUE(engine.planner().FindRoute(b, a).ok());  // new source: evicts

  core::RoutingCacheStats stats = engine.routing_cache_stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.size, 2u);  // one tree per mode shard at capacity 1
  EXPECT_GT(stats.nodes, 0u);
  EXPECT_GT(stats.portals, 0u);

  engine.ClearRoutingCache();
  stats = engine.routing_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 0u);

  // Hits need room for the memoized trees: default capacity, repeat query.
  auto roomy = core::Engine::Builder().BorrowDsm(dsm.get()).Build();
  ASSERT_TRUE(roomy.ok());
  ASSERT_TRUE((*roomy)->planner().FindRoute(a, b).ok());
  ASSERT_TRUE((*roomy)->planner().FindRoute(a, b).ok());
  EXPECT_GT((*roomy)->routing_cache_stats().hits, 0u);
  EXPECT_EQ((*roomy)->routing_cache_stats().evictions, 0u);
}

TEST_F(ObsServiceFixture, SpatialProbesCountTranslationLookups) {
  engine_->ResetSpatialProbes();
  core::ServiceOptions options;
  options.worker_threads = 0;
  core::Service service(engine_, options);
  ASSERT_TRUE(service.Translate({.sequences = MakeFleet(2, 353)}).ok());

  dsm::SpatialProbeStats probes = engine_->spatial_probe_stats();
  // Cleaning snaps every record; annotation resolves regions per record.
  EXPECT_GT(probes.snap_probes, 0u);
  EXPECT_GT(probes.region_probes, 0u);

  engine_->ResetSpatialProbes();
  probes = engine_->spatial_probe_stats();
  EXPECT_EQ(probes.snap_probes, 0u);
  EXPECT_EQ(probes.region_probes, 0u);
}

// ---- cluster integration ----------------------------------------------------

class ObsClusterFixture : public ::testing::Test {
 protected:
  struct TestVenue {
    std::string id;
    std::unique_ptr<dsm::Dsm> dsm;
    std::unique_ptr<dsm::RoutePlanner> planner;
    std::shared_ptr<const core::Engine> engine;
    std::vector<positioning::PositioningSequence> fleet;
  };

  void SetUp() override {
    AddVenue("a-mall", dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2}),
             {"shop", "hall"}, 2, 401);
    AddVenue("b-office", dsm::BuildOfficeDsm(), {"office", "meeting", "lobby"},
             2, 409);
  }

  void AddVenue(const std::string& id, Result<dsm::Dsm> built,
                std::vector<std::string> target_categories, int devices,
                uint64_t seed) {
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    TestVenue venue;
    venue.id = id;
    venue.dsm = std::make_unique<dsm::Dsm>(std::move(built).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(venue.dsm.get());
    ASSERT_TRUE(planner.ok());
    venue.planner =
        std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    auto engine = core::Engine::Builder().BorrowDsm(venue.dsm.get()).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    venue.engine = *engine;
    mobility::GeneratorOptions gen;
    gen.target_categories = std::move(target_categories);
    mobility::MobilityGenerator generator(venue.dsm.get(), venue.planner.get(),
                                          gen);
    for (int i = 0; i < devices; ++i) {
      Rng rng(seed + 10 * i);
      auto dev = generator.GenerateDevice(id + "-dev-" + std::to_string(i), 0,
                                          &rng);
      ASSERT_TRUE(dev.ok()) << dev.status().ToString();
      positioning::ErrorModelOptions noise;
      noise.floor_count = static_cast<int>(venue.dsm->FloorCount());
      venue.fleet.push_back(
          positioning::ApplyErrorModel(dev->truth, noise, &rng));
    }
    venues_.push_back(std::move(venue));
  }

  void FeedAll(cluster::Cluster* city) {
    for (const TestVenue& venue : venues_) {
      ASSERT_TRUE(
          city->AddVenue({.venue_id = venue.id, .engine = venue.engine}).ok());
    }
    for (const TestVenue& venue : venues_) {
      for (const auto& seq : venue.fleet) {
        for (const auto& record : seq.records) {
          ASSERT_TRUE(city->Ingest(venue.id, seq.device_id, record).ok());
        }
      }
    }
    ASSERT_TRUE(city->FlushAll().ok());
  }

  std::vector<TestVenue> venues_;
};

TEST_F(ObsClusterFixture, ByteIdenticalMetricsOnOff) {
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      reference;
  for (bool metrics_on : {true, false}) {
    cluster::ClusterOptions options;
    options.worker_threads = 0;
    options.metrics = std::make_shared<MetricsRegistry>(metrics_on);
    cluster::Cluster city(options);

    std::map<std::string, std::vector<std::pair<std::string, std::string>>>
        dumps;
    std::mutex dumps_mu;
    city.SetSink([&dumps, &dumps_mu](const std::string& venue_id,
                                     core::TranslationResult result) {
      std::lock_guard<std::mutex> lock(dumps_mu);
      dumps[venue_id].emplace_back(
          result.semantics.device_id,
          core::SemanticsToJson(result.semantics).Dump());
    });
    FeedAll(&city);
    for (auto& [venue, dump] : dumps) std::sort(dump.begin(), dump.end());

    if (reference.empty()) {
      reference = dumps;
    } else {
      EXPECT_EQ(dumps, reference);
    }
  }
}

TEST_F(ObsClusterFixture, StatszRollupsMatchStats) {
  cluster::Cluster city({.worker_threads = 2});
  FeedAll(&city);

  cluster::ClusterStats stats = city.Stats();
  MetricsSnapshot snap = city.stats_registry()->Snap();
  std::map<std::string, int64_t> gauges(snap.gauges.begin(), snap.gauges.end());

  EXPECT_EQ(gauges.at("cluster.venues"), static_cast<int64_t>(stats.venues));
  EXPECT_EQ(gauges.at("cluster.ingested"),
            static_cast<int64_t>(stats.ingested));
  EXPECT_EQ(gauges.at("cluster.stored_sequences"),
            static_cast<int64_t>(stats.stored_sequences));
  EXPECT_EQ(gauges.at("cluster.dropped_unknown_venue"), 0);
  for (const auto& [venue, ingested] : stats.per_venue_ingested) {
    EXPECT_EQ(gauges.at("venue." + venue + ".ingested"),
              static_cast<int64_t>(ingested));
  }
  // At quiescence the coherent stored counter equals the stores' own counts
  // (the ClusterStats consistency contract).
  size_t store_total = 0;
  for (const std::string& id : city.VenueIds()) {
    store_total += city.venue_store(id)->Stats().sequences;
  }
  EXPECT_EQ(stats.stored_sequences, store_total);

  std::ostringstream out;
  city.DumpStatsz(out);
  const std::string statsz = out.str();
  for (const char* key :
       {"cluster.venues", "cluster.stored_sequences", "routing.cache_hits",
        "spatial.snap_probes", "store.append_ns", "store.appended_sequences",
        "store.segments", "stream.ingest_to_result_ns", "pool.workers",
        "venue.a-mall.ingested", "venue.b-office.stored_sequences"}) {
    EXPECT_NE(statsz.find(key), std::string::npos) << "missing " << key;
  }
}

// A Service and a one-venue Cluster wire the same pool and engine metrics, so
// an operator reads one set of routing.* / spatial.* / pool.* names whichever
// front door serves the venue.
TEST_F(ObsClusterFixture, ServiceAndOneVenueClusterExportSameEngineAndPoolNames) {
  auto shared_names = [](const MetricsRegistry& registry) {
    MetricsSnapshot snap = registry.Snap();
    std::vector<std::string> names;
    auto keep = [&names](const std::string& name) {
      for (const char* prefix : {"routing.", "spatial.", "pool."}) {
        if (name.rfind(prefix, 0) == 0) names.push_back(name);
      }
    };
    for (const auto& [name, value] : snap.counters) keep(name);
    for (const auto& [name, value] : snap.gauges) keep(name);
    for (const auto& [name, summary] : snap.histograms) keep(name);
    std::sort(names.begin(), names.end());
    return names;
  };

  const TestVenue& venue = venues_[0];
  core::Service service(venue.engine);
  cluster::Cluster city;
  cluster::VenueConfig config;
  config.venue_id = venue.id;
  config.engine = venue.engine;
  ASSERT_TRUE(city.AddVenue(config).ok());

  std::vector<std::string> service_names = shared_names(*service.stats_registry());
  EXPECT_EQ(shared_names(*city.stats_registry()), service_names);
  for (const char* name : {"spatial.region_probes", "spatial.snapped_outside",
                           "routing.cache_hits", "pool.workers"}) {
    EXPECT_NE(std::find(service_names.begin(), service_names.end(), name),
              service_names.end())
        << "missing " << name;
  }
}

TEST_F(ObsClusterFixture, StoreQueriesRecordLatency) {
  cluster::Cluster city({.worker_threads = 0});
  FeedAll(&city);

  auto history = city.DeviceHistoryAcrossVenues("a-mall-dev-0");
  ASSERT_FALSE(history.empty());

  MetricsSnapshot snap = city.stats_registry()->Snap();
  std::map<std::string, uint64_t> counters(snap.counters.begin(),
                                           snap.counters.end());
  std::map<std::string, HistogramSummary> hists(snap.histograms.begin(),
                                                snap.histograms.end());
  EXPECT_GT(counters.at("store.queries"), 0u);
  EXPECT_GT(hists.at("store.append_ns").count, 0u);
  EXPECT_EQ(counters.at("store.appended_sequences"),
            static_cast<uint64_t>(city.Stats().stored_sequences));
}

}  // namespace
}  // namespace trips
