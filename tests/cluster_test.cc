#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/result_io.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "loadgen/scenario.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "testing/replay.h"

namespace trips::cluster {
namespace {

// One venue's test scaffolding: the dsm and its generator plus the shared
// engine, and a pre-generated deterministic fleet of noisy feeds.
struct TestVenue {
  std::string id;
  std::unique_ptr<dsm::Dsm> dsm;
  std::unique_ptr<dsm::RoutePlanner> planner;
  std::shared_ptr<const core::Engine> engine;
  mobility::GeneratorOptions gen;  // venue-appropriate target categories
  std::vector<positioning::PositioningSequence> fleet;
};

// Serialized final semantics keyed by device, sorted — the byte-level
// representation every equivalence check compares.
using Dump = std::vector<std::pair<std::string, std::string>>;

Dump DumpResults(const std::vector<core::TranslationResult>& results) {
  Dump out;
  for (const core::TranslationResult& r : results) {
    out.emplace_back(r.semantics.device_id,
                     core::SemanticsToJson(r.semantics).Dump());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The city of the tests: four venue shapes (mall, office, transit hub,
// stadium), each with a small deterministic fleet. Devices are venue-prefixed
// except "roamer", which visits both the mall and the hub (the cross-venue
// history subject).
class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    AddVenueFixture("a-mall", dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2}),
                    {"shop", "hall"}, 3, 211);
    AddVenueFixture("b-office", dsm::BuildOfficeDsm(),
                    {"office", "meeting", "lobby"}, 2, 223);
    AddVenueFixture("c-hub",
                    dsm::BuildTransitHubDsm({.platforms = 3, .shops = 4}),
                    {"platform", "gate", "shop", "hall"}, 2, 227);
    AddVenueFixture("d-stadium",
                    dsm::BuildStadiumDsm({.sections_per_side = 2, .floors = 1}),
                    {"stand", "shop"}, 2, 229);
    // The roaming device appears in two venues with independent feeds.
    AppendDevice(&venues_[0], "roamer", 233);
    AppendDevice(&venues_[2], "roamer", 239);
  }

  void AddVenueFixture(const std::string& id, Result<dsm::Dsm> built,
                       std::vector<std::string> target_categories, int devices,
                       uint64_t seed) {
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    TestVenue venue;
    venue.id = id;
    venue.gen.target_categories = std::move(target_categories);
    venue.dsm = std::make_unique<dsm::Dsm>(std::move(built).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(venue.dsm.get());
    ASSERT_TRUE(planner.ok());
    venue.planner =
        std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    auto engine = core::Engine::Builder().BorrowDsm(venue.dsm.get()).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    venue.engine = *engine;
    venues_.push_back(std::move(venue));
    for (int i = 0; i < devices; ++i) {
      AppendDevice(&venues_.back(), id + "-dev-" + std::to_string(i),
                   seed + 10 * i);
    }
  }

  void AppendDevice(TestVenue* venue, const std::string& device, uint64_t seed) {
    mobility::MobilityGenerator generator(venue->dsm.get(), venue->planner.get(),
                                          venue->gen);
    Rng rng(seed);
    auto dev = generator.GenerateDevice(device, 0, &rng);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    positioning::ErrorModelOptions noise;
    noise.floor_count = static_cast<int>(venue->dsm->FloorCount());
    venue->fleet.push_back(positioning::ApplyErrorModel(dev->truth, noise, &rng));
  }

  // Registers every fixture venue on `cluster` with the given stream options.
  void AddAll(Cluster* cluster, core::StreamOptions stream = {}) {
    for (const TestVenue& venue : venues_) {
      ASSERT_TRUE(cluster
                      ->AddVenue({.venue_id = venue.id,
                                  .engine = venue.engine,
                                  .stream = stream})
                      .ok());
    }
  }

  // The whole city's feed as venue-tagged records, round-robin across venues
  // (devices within one venue stay in record order).
  std::vector<ClusterRecord> CityFeed() const {
    std::vector<ClusterRecord> feed;
    size_t max_len = 0;
    for (const TestVenue& venue : venues_) {
      for (const auto& seq : venue.fleet) max_len = std::max(max_len, seq.records.size());
    }
    for (size_t r = 0; r < max_len; ++r) {
      for (const TestVenue& venue : venues_) {
        for (const auto& seq : venue.fleet) {
          if (r >= seq.records.size()) continue;
          feed.push_back({venue.id, seq.device_id, seq.records[r]});
        }
      }
    }
    return feed;
  }

  // Reference run: each venue as its own standalone single-engine Service,
  // one stream session, FlushAll — the per-venue dumps the cluster must match
  // byte for byte.
  std::map<std::string, Dump> ReferenceDumps() {
    std::map<std::string, Dump> dumps;
    for (const TestVenue& venue : venues_) {
      core::Service service(venue.engine, {.worker_threads = 0});
      auto stream = service.NewStreamSession();
      for (const auto& seq : venue.fleet) {
        for (const auto& record : seq.records) {
          EXPECT_TRUE(stream->Ingest(seq.device_id, record).ok());
        }
      }
      auto results = stream->FlushAll();
      EXPECT_TRUE(results.ok());
      dumps[venue.id] = DumpResults(*results);
    }
    return dumps;
  }

  // The replay of testing/replay.h over the city: visit i goes to venue
  // i % 4, with the steady scenario's short itineraries and noise.
  struct CityReplay {
    std::vector<positioning::PositioningSequence> visits;
    std::vector<const TestVenue*> venue;  // per visit
  };
  CityReplay ReplayVisits(uint64_t seed) const {
    const loadgen::ScenarioConfig steady = loadgen::SteadyScenario();
    Rng rng(seed);
    CityReplay replay;
    for (TimestampMs start : core::testing::ReplayStarts(kMillisPerHour)) {
      const TestVenue& venue = venues_[replay.visits.size() % venues_.size()];
      mobility::GeneratorOptions options = steady.mobility;
      options.target_categories = venue.gen.target_categories;
      options.wander_categories = venue.gen.wander_categories;
      mobility::MobilityGenerator generator(venue.dsm.get(), venue.planner.get(),
                                            options);
      auto dev = generator.GenerateDevice(
          venue.id + "-visit-" + std::to_string(replay.visits.size()), start, &rng);
      EXPECT_TRUE(dev.ok()) << dev.status().ToString();
      if (!dev.ok()) break;
      positioning::ErrorModelOptions noise = steady.noise;
      noise.floor_count = static_cast<int>(venue.dsm->FloorCount());
      replay.visits.push_back(positioning::ApplyErrorModel(dev->truth, noise, &rng));
      replay.venue.push_back(&venue);
    }
    return replay;
  }

  std::vector<TestVenue> venues_;
};

TEST_F(ClusterFixture, RoutesRecordsToTheirVenueShard) {
  Cluster city({.worker_threads = 0});
  AddAll(&city);
  EXPECT_EQ(city.VenueIds(),
            (std::vector<std::string>{"a-mall", "b-office", "c-hub", "d-stadium"}));

  for (const TestVenue& venue : venues_) {
    for (const auto& seq : venue.fleet) {
      for (const auto& record : seq.records) {
        ASSERT_TRUE(city.Ingest(venue.id, seq.device_id, record).ok());
      }
    }
  }
  ASSERT_TRUE(city.FlushAll().ok());

  // Every store holds exactly its own venue's devices.
  for (const TestVenue& venue : venues_) {
    const store::TripStore* store = city.venue_store(venue.id);
    ASSERT_NE(store, nullptr);
    std::vector<std::string> expected;
    for (const auto& seq : venue.fleet) expected.push_back(seq.device_id);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(store->Devices(), expected) << venue.id;
  }

  ClusterStats stats = city.Stats();
  EXPECT_EQ(stats.venues, 4u);
  EXPECT_EQ(stats.dropped_unknown_venue, 0u);
  ASSERT_EQ(stats.per_venue_ingested.size(), 4u);
  for (size_t v = 0; v < venues_.size(); ++v) {
    size_t records = 0;
    for (const auto& seq : venues_[v].fleet) records += seq.records.size();
    EXPECT_EQ(stats.per_venue_ingested[v],
              std::make_pair(venues_[v].id, records));
  }
  EXPECT_EQ(stats.stored_sequences,
            venues_[0].fleet.size() + venues_[1].fleet.size() +
                venues_[2].fleet.size() + venues_[3].fleet.size());
}

TEST_F(ClusterFixture, ByteIdenticalToIndependentServicesAcrossWorkersAndShards) {
  std::map<std::string, Dump> expected = ReferenceDumps();
  std::vector<ClusterRecord> feed = CityFeed();

  for (size_t workers : {0u, 1u, 4u}) {
    for (size_t buffer_shards : {1u, 2u, 8u}) {
      Cluster city({.worker_threads = workers});
      core::StreamOptions stream;
      stream.buffer_shards = buffer_shards;
      AddAll(&city, stream);

      // Collect per-venue flushed results through the cluster-wide sink
      // (FlushAll fans venues out over the pool, so deliveries may be
      // concurrent across venues).
      std::mutex mu;
      std::map<std::string, std::vector<core::TranslationResult>> flushed;
      city.SetSink([&](const std::string& venue_id, core::TranslationResult r) {
        std::lock_guard<std::mutex> lock(mu);
        flushed[venue_id].push_back(std::move(r));
      });

      auto accepted = city.IngestBatch(feed);
      ASSERT_TRUE(accepted.ok());
      EXPECT_EQ(*accepted, feed.size());
      ASSERT_TRUE(city.FlushAll().ok());

      for (const TestVenue& venue : venues_) {
        EXPECT_EQ(DumpResults(flushed[venue.id]), expected[venue.id])
            << venue.id << " workers=" << workers
            << " buffer_shards=" << buffer_shards;
      }
    }
  }
}

TEST_F(ClusterFixture, ConcurrentPerVenueFeedsStayByteIdentical) {
  std::map<std::string, Dump> expected = ReferenceDumps();

  Cluster city({.worker_threads = 2});
  AddAll(&city);
  // One pump thread per venue, all through the one front door at once.
  std::vector<std::thread> pumps;
  for (const TestVenue& venue : venues_) {
    pumps.emplace_back([&city, &venue] {
      auto sink = city.MakeSink();
      for (const auto& seq : venue.fleet) {
        for (const auto& record : seq.records) {
          sink({venue.id, seq.device_id, record});
        }
      }
    });
  }
  for (std::thread& t : pumps) t.join();
  ASSERT_TRUE(city.FlushAll().ok());
  EXPECT_EQ(city.Stats().dropped_unknown_venue, 0u);

  // The stores' contents equal the standalone per-venue runs.
  for (const TestVenue& venue : venues_) {
    const store::TripStore* store = city.venue_store(venue.id);
    ASSERT_NE(store, nullptr);
    Dump got;
    store->ForEachSequence([&](store::TripStore::SequenceId,
                               const core::MobilitySemanticsSequence& seq) {
      got.emplace_back(seq.device_id, core::SemanticsToJson(seq).Dump());
    });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected[venue.id]) << venue.id;
  }
}

// Venues added while other threads ingest: three threads feed the two venues
// registered up front while a fourth registers the rest, probing each as
// unknown right before its AddVenue, and then feeds them. The three keep
// feeding (their devices again, under renamed ids) until the fourth is done,
// so every AddVenue lands mid-stream. Every accepted record is translated
// and stored exactly once, each fixture venue's own devices come out as in
// its standalone run, and the counters are exact once all are done.
TEST_F(ClusterFixture, AddVenueWhileIngesting) {
  std::map<std::string, Dump> expected = ReferenceDumps();
  ClusterOptions options;
  options.worker_threads = 2;
  Cluster city(options);
  auto add_venue = [&city](const std::string& id,
                           std::shared_ptr<const core::Engine> engine) {
    VenueConfig config;
    config.venue_id = id;
    config.engine = std::move(engine);
    return city.AddVenue(std::move(config));
  };
  for (const TestVenue* venue : {&venues_[0], &venues_[1]}) {
    ASSERT_TRUE(add_venue(venue->id, venue->engine).ok());
  }
  std::mutex mu;
  std::map<std::string, std::vector<core::TranslationResult>> delivered;
  city.SetSink([&](const std::string& venue_id, core::TranslationResult r) {
    std::lock_guard<std::mutex> lock(mu);
    delivered[venue_id].push_back(std::move(r));
  });

  // The early venues' devices, dealt over three threads; each device's
  // records stay in order on one thread.
  std::vector<std::pair<const TestVenue*, const positioning::PositioningSequence*>> early;
  for (const TestVenue* venue : {&venues_[0], &venues_[1]}) {
    for (const auto& seq : venue->fleet) early.emplace_back(venue, &seq);
  }
  const positioning::RawRecord probe = venues_[0].fleet[0].records[0];
  std::vector<std::string> extra_ids;
  for (int k = 0; k < 8; ++k) extra_ids.push_back("e-extra-" + std::to_string(k));

  constexpr size_t kMaxPasses = 8;
  std::atomic<bool> go{false};
  std::atomic<bool> adder_done{false};
  std::atomic<size_t> failed{0};
  std::map<std::string, size_t> accepted;  // venue -> records, merged under mu
  size_t unknown_before_add = 0;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      std::map<std::string, size_t> mine;
      while (!go.load()) std::this_thread::yield();
      for (size_t pass = 0; pass == 0 || (!adder_done.load() && pass < kMaxPasses);
           ++pass) {
        for (size_t f = t; f < early.size(); f += 3) {
          const auto& [venue, seq] = early[f];
          const std::string device =
              pass == 0 ? seq->device_id : seq->device_id + "~" + std::to_string(pass);
          for (const auto& record : seq->records) {
            if (city.Ingest(venue->id, device, record).ok()) {
              ++mine[venue->id];
            } else {
              ++failed;
            }
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [id, n] : mine) accepted[id] += n;
    });
  }
  threads.emplace_back([&] {
    std::map<std::string, size_t> mine;
    while (!go.load()) std::this_thread::yield();
    auto add = [&](const std::string& id, std::shared_ptr<const core::Engine> engine) {
      if (city.Ingest(id, "probe", probe).code() == StatusCode::kNotFound) {
        ++unknown_before_add;
      }
      if (!add_venue(id, std::move(engine)).ok()) ++failed;
    };
    for (const TestVenue* venue : {&venues_[2], &venues_[3]}) {
      add(venue->id, venue->engine);
      for (const auto& seq : venue->fleet) {
        for (const auto& record : seq.records) {
          if (city.Ingest(venue->id, seq.device_id, record).ok()) {
            ++mine[venue->id];
          } else {
            ++failed;
          }
        }
      }
    }
    for (const std::string& id : extra_ids) {
      add(id, venues_[0].engine);
      if (city.Ingest(id, "probe", probe).ok()) {
        ++mine[id];
      } else {
        ++failed;
      }
    }
    adder_done = true;
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [id, n] : mine) accepted[id] += n;
  });
  go = true;
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(unknown_before_add, 2 + extra_ids.size());
  ASSERT_TRUE(city.FlushAll().ok());

  // A fixture venue's own devices, as translated standalone.
  for (const TestVenue& venue : venues_) {
    std::vector<core::TranslationResult> own;
    for (const core::TranslationResult& r : delivered[venue.id]) {
      if (r.semantics.device_id.find('~') == std::string::npos) own.push_back(r);
    }
    EXPECT_EQ(DumpResults(own), expected[venue.id]) << venue.id;
  }

  const ClusterStats stats = city.Stats();
  const obs::MetricsSnapshot snap = city.stats_registry()->Snap();
  EXPECT_EQ(stats.venues, accepted.size());
  EXPECT_EQ(stats.dropped_unknown_venue, 0u);
  ASSERT_EQ(stats.per_venue_ingested.size(), accepted.size());
  size_t total_accepted = 0, total_stored = 0;
  size_t v = 0;
  for (const auto& [id, records] : accepted) {
    size_t translated = 0;
    for (const core::TranslationResult& r : delivered[id]) {
      translated += r.raw.records.size();
    }
    EXPECT_EQ(translated, records) << id;
    EXPECT_EQ(stats.per_venue_ingested[v++], std::make_pair(id, records));
    EXPECT_EQ(snap.gauge_or("venue." + id + ".ingested", -1),
              static_cast<int64_t>(records))
        << id;
    EXPECT_EQ(city.venue_store(id)->Stats().sequences, delivered[id].size()) << id;
    EXPECT_EQ(snap.gauge_or("venue." + id + ".stored_sequences", -1),
              static_cast<int64_t>(delivered[id].size()))
        << id;
    total_accepted += records;
    total_stored += delivered[id].size();
  }
  EXPECT_EQ(stats.ingested, total_accepted);
  EXPECT_EQ(stats.stored_sequences, total_stored);
  EXPECT_EQ(snap.counter_or("stream.records_ingested"), total_accepted);
  EXPECT_EQ(snap.counter_or("stream.flush_records"), total_accepted);
  EXPECT_EQ(city.PendingRecords(), 0u);
}

TEST_F(ClusterFixture, CrossVenueAnalyticsMergesInVenueOrder) {
  Cluster city({.worker_threads = 4});
  AddAll(&city);
  ASSERT_TRUE(city.IngestBatch(CityFeed()).ok());
  ASSERT_TRUE(city.FlushAll().ok());

  // Manual reference: per-venue store analytics folded in venue-id order.
  core::MobilityAnalytics manual;
  size_t manual_sequences = 0;
  for (const std::string& id : city.VenueIds()) {
    const TestVenue* venue = nullptr;
    for (const TestVenue& v : venues_) {
      if (v.id == id) venue = &v;
    }
    ASSERT_NE(venue, nullptr);
    core::MobilityAnalytics per_venue =
        city.venue_store(id)->BuildAnalytics(venue->dsm.get());
    manual_sequences += per_venue.SequenceCount();
    manual.Merge(per_venue);
    // VenueAnalytics equals querying the venue's store directly.
    EXPECT_EQ(city.VenueAnalytics(id).FormatReport(), per_venue.FormatReport())
        << id;
  }

  core::MobilityAnalytics merged = city.BuildAnalytics();
  EXPECT_EQ(merged.SequenceCount(), manual_sequences);
  EXPECT_EQ(merged.FormatReport(20), manual.FormatReport(20));
  EXPECT_GT(merged.SequenceCount(), 0u);
}

TEST_F(ClusterFixture, DeviceHistorySpansVenues) {
  Cluster city({.worker_threads = 2});
  AddAll(&city);
  ASSERT_TRUE(city.IngestBatch(CityFeed()).ok());
  ASSERT_TRUE(city.FlushAll().ok());

  std::vector<VenueHistory> roamer = city.DeviceHistoryAcrossVenues("roamer");
  ASSERT_EQ(roamer.size(), 2u);
  EXPECT_EQ(roamer[0].venue_id, "a-mall");
  EXPECT_EQ(roamer[1].venue_id, "c-hub");
  for (const VenueHistory& h : roamer) {
    EXPECT_EQ(h.history.device_id, "roamer");
    EXPECT_FALSE(h.history.Empty());
    // Each slice equals the venue store's own answer.
    EXPECT_EQ(core::SemanticsToJson(h.history).Dump(),
              core::SemanticsToJson(
                  city.venue_store(h.venue_id)->DeviceHistory("roamer"))
                  .Dump());
  }

  // A single-venue device yields one slice; an unknown device none.
  std::vector<VenueHistory> local =
      city.DeviceHistoryAcrossVenues("b-office-dev-0");
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0].venue_id, "b-office");
  EXPECT_TRUE(city.DeviceHistoryAcrossVenues("nobody").empty());
}

TEST_F(ClusterFixture, UnknownVenueAndBadConfigsAreRejected) {
  Cluster city({.worker_threads = 0});
  AddAll(&city);

  positioning::RawRecord record = venues_[0].fleet[0].records[0];
  Status s = city.Ingest("no-such-venue", "dev", record);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);

  // Batch: the stray record is skipped and counted, the rest accepted.
  std::vector<ClusterRecord> batch = {
      {"a-mall", "x", record}, {"ghost", "x", record}, {"c-hub", "x", record}};
  auto accepted = city.IngestBatch(batch);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, 2u);
  EXPECT_EQ(city.Stats().dropped_unknown_venue, 1u);

  // The sink drops-and-counts instead of failing the pump.
  auto sink = city.MakeSink();
  sink({"ghost", "x", record});
  EXPECT_EQ(city.Stats().dropped_unknown_venue, 2u);

  // Config validation.
  EXPECT_EQ(city.AddVenue({.venue_id = "", .engine = venues_[0].engine}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(city.AddVenue({.venue_id = "null-engine", .engine = nullptr}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      city.AddVenue({.venue_id = "a-mall", .engine = venues_[0].engine}).code(),
      StatusCode::kAlreadyExists);

  // Unknown-venue lookups are null/empty, not fatal.
  EXPECT_EQ(city.venue_store("ghost"), nullptr);
  EXPECT_EQ(city.venue_engine("ghost"), nullptr);
  EXPECT_EQ(city.VenueAnalytics("ghost").SequenceCount(), 0u);
}

TEST_F(ClusterFixture, PersistAllWritesEveryVenueDirectory) {
  std::string root = ::testing::TempDir() + "cluster_persist";
  std::filesystem::remove_all(root);  // a previous run's stores would reload
  Cluster city({.worker_threads = 2});
  for (const TestVenue& venue : venues_) {
    ASSERT_TRUE(city.AddVenue({.venue_id = venue.id,
                               .engine = venue.engine,
                               .store_directory = root + "/" + venue.id})
                    .ok());
  }
  ASSERT_TRUE(city.IngestBatch(CityFeed()).ok());
  ASSERT_TRUE(city.FlushAll().ok());
  ASSERT_TRUE(city.PersistAll().ok());

  for (const TestVenue& venue : venues_) {
    store::StoreStats stats = city.venue_store(venue.id)->Stats();
    EXPECT_GT(stats.sequences, 0u) << venue.id;
    EXPECT_EQ(stats.persisted_segments, stats.segments) << venue.id;

    // A fresh store over the same directory sees the same sequences, once
    // the merge PersistAll started in the background has finished rewriting
    // the directory.
    city.venue_store(venue.id)->WaitForCompaction();
    auto reopened = store::TripStore::Open({.directory = root + "/" + venue.id});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->Stats().sequences, stats.sequences) << venue.id;
  }
}

// The steady scenario's traffic shape across the city: the same per-venue
// output at 0 and 4 workers, no buffer dropped, every delivered result
// stored, nothing left pending.
TEST_F(ClusterFixture, ReplayIsDeterministicAcrossWorkerCounts) {
  const CityReplay replay = ReplayVisits(257);
  ASSERT_EQ(replay.visits.size(), 24u);
  const loadgen::ScenarioConfig steady = loadgen::SteadyScenario();
  std::vector<std::map<std::string, Dump>> runs;
  for (size_t workers : {0u, 4u}) {
    ClusterOptions options;
    options.worker_threads = workers;
    Cluster city(options);
    AddAll(&city, steady.stream);
    std::mutex mu;
    std::map<std::string, std::vector<core::TranslationResult>> delivered;
    city.SetSink([&](const std::string& venue_id, core::TranslationResult r) {
      std::lock_guard<std::mutex> lock(mu);
      delivered[venue_id].push_back(std::move(r));
    });
    core::testing::DriveReplay(
        core::testing::MergeByTime(replay.visits), steady.poll_interval,
        [&](const core::testing::ReplayRecord& r) {
          EXPECT_TRUE(city.Ingest(replay.venue[r.visit]->id,
                                  replay.visits[r.visit].device_id, r.record)
                          .ok());
        },
        [&](TimestampMs now) { EXPECT_TRUE(city.Poll(now).ok()); });
    ASSERT_TRUE(city.FlushAll().ok());

    size_t results = 0;
    std::map<std::string, Dump> dumps;
    for (const auto& [venue_id, venue_results] : delivered) {
      results += venue_results.size();
      dumps[venue_id] = DumpResults(venue_results);
    }
    EXPECT_EQ(results, replay.visits.size()) << workers;
    EXPECT_EQ(city.Stats().stored_sequences, results) << workers;
    EXPECT_EQ(city.stats_registry()->Snap().counter_or("stream.dropped_small_buffers"),
              0u)
        << workers;
    EXPECT_EQ(city.PendingRecords(), 0u) << workers;
    runs.push_back(std::move(dumps));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

// The cap flush of a one-venue cluster ignores min_flush_records, as the
// session's does: one long visit is delivered from Ingest and FlushAll with
// no record lost and no buffer dropped.
TEST_F(ClusterFixture, CapFlushIgnoresMinFlushRecords) {
  const TestVenue& venue = venues_[0];
  const positioning::PositioningSequence& visit = venue.fleet[0];
  core::StreamOptions stream;
  stream.max_buffer_records = 32;
  stream.min_flush_records = 10'000;
  ASSERT_GT(visit.records.size(), 4 * stream.max_buffer_records);
  ClusterOptions options;
  options.worker_threads = 0;
  Cluster city(options);
  VenueConfig config;
  config.venue_id = venue.id;
  config.engine = venue.engine;
  config.stream = stream;
  ASSERT_TRUE(city.AddVenue(std::move(config)).ok());
  size_t delivered = 0;
  city.SetSink([&](const std::string&, core::TranslationResult) { ++delivered; });
  for (const auto& record : visit.records) {
    ASSERT_TRUE(city.Ingest(venue.id, visit.device_id, record).ok());
  }
  const size_t from_ingest = delivered;
  ASSERT_TRUE(city.FlushAll().ok());

  const obs::MetricsSnapshot snap = city.stats_registry()->Snap();
  EXPECT_GT(from_ingest, 0u);
  EXPECT_EQ(snap.counter_or("stream.flush_records"),
            snap.counter_or("stream.records_ingested"));
  EXPECT_EQ(snap.counter_or("stream.records_ingested"), visit.records.size());
  EXPECT_EQ(snap.counter_or("stream.dropped_small_buffers"), 0u);
  EXPECT_EQ(city.Stats().stored_sequences, delivered);
}

// A record without a device id is rejected at each front door, counted under
// stream.rejected_records, and never reaches a venue store.
TEST_F(ClusterFixture, EmptyDeviceIdIsRejectedAndCounted) {
  ClusterOptions options;
  options.worker_threads = 0;
  Cluster city(options);
  AddAll(&city);
  const positioning::PositioningSequence& seq = venues_[0].fleet[0];
  for (const auto& record : seq.records) {
    EXPECT_EQ(city.Ingest("a-mall", "", record).code(), StatusCode::kInvalidArgument);
  }
  // The batch path propagates the rejection; records before it are kept.
  const std::vector<ClusterRecord> batch = {{"a-mall", "x", seq.records[0]},
                                            {"a-mall", "", seq.records[1]}};
  EXPECT_EQ(city.IngestBatch(batch).status().code(), StatusCode::kInvalidArgument);
  // The sink has no return path: its drop is only counted.
  city.MakeSink()({"c-hub", "", seq.records[0]});
  ASSERT_TRUE(city.FlushAll().ok());

  EXPECT_EQ(city.stats_registry()->Snap().counter_or("stream.rejected_records"),
            seq.records.size() + 2);
  const ClusterStats stats = city.Stats();
  EXPECT_EQ(stats.ingested, 1u);
  EXPECT_EQ(stats.stored_sequences, 1u);
  EXPECT_EQ(city.venue_store("a-mall")->Devices(), std::vector<std::string>{"x"});
  EXPECT_TRUE(city.venue_store("c-hub")->Devices().empty());
}

}  // namespace
}  // namespace trips::cluster
