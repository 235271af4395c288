#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/result_io.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "loadgen/scenario.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "testing/reference_translator.h"
#include "testing/replay.h"

namespace trips::core {
namespace {

ServiceOptions Workers(size_t n) {
  ServiceOptions options;
  options.worker_threads = n;
  return options;
}

// Serializes the final semantics of every result, keyed by device — the
// byte-level representation the equivalence tests compare.
std::vector<std::pair<std::string, std::string>> DumpByDevice(
    const std::vector<TranslationResult>& results) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const TranslationResult& r : results) {
    out.emplace_back(r.semantics.device_id, SemanticsToJson(r.semantics).Dump());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    mall_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(mall_.get());
    ASSERT_TRUE(planner.ok());
    planner_ = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    generator_ = std::make_unique<mobility::MobilityGenerator>(mall_.get(),
                                                               planner_.get());
    auto engine = Engine::Builder().BorrowDsm(mall_.get()).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = *engine;
  }

  std::vector<positioning::PositioningSequence> MakeFleet(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<positioning::PositioningSequence> fleet;
    for (int i = 0; i < n; ++i) {
      auto dev = generator_->GenerateDevice("dev-" + std::to_string(i), 0, &rng);
      EXPECT_TRUE(dev.ok());
      positioning::ErrorModelOptions noise;
      noise.floor_count = 2;
      fleet.push_back(positioning::ApplyErrorModel(dev->truth, noise, &rng));
    }
    return fleet;
  }

  // The replay's visits (testing/replay.h): one per ReplayStarts() start, with
  // the steady scenario's short itineraries and noise.
  std::vector<positioning::PositioningSequence> ReplayVisits(uint64_t seed) {
    const loadgen::ScenarioConfig steady = loadgen::SteadyScenario();
    mobility::MobilityGenerator generator(mall_.get(), planner_.get(),
                                          steady.mobility);
    Rng rng(seed);
    std::vector<positioning::PositioningSequence> visits;
    for (TimestampMs start : testing::ReplayStarts(kMillisPerHour)) {
      char id[16];
      std::snprintf(id, sizeof id, "visit-%02zu", visits.size());
      auto dev = generator.GenerateDevice(id, start, &rng);
      EXPECT_TRUE(dev.ok()) << dev.status().ToString();
      if (!dev.ok()) break;
      visits.push_back(positioning::ApplyErrorModel(dev->truth, steady.noise, &rng));
    }
    return visits;
  }

  // What one replay through a stream session produced.
  struct ReplayRun {
    std::vector<TranslationResult> results;  // from Ingest, Poll and FlushAll
    size_t from_ingest = 0;                  // results an Ingest returned
    size_t pending = 0;                      // PendingRecords() after FlushAll
    obs::MetricsSnapshot stats;
  };

  // Replays `visits` into a stream session of a fresh `workers`-thread
  // Service, polling at the steady scenario's cadence, then drains.
  ReplayRun RunReplay(const std::vector<positioning::PositioningSequence>& visits,
                      const StreamOptions& stream, size_t workers) {
    Service service(engine_, Workers(workers));
    auto session = service.NewStreamSession(stream);
    ReplayRun run;
    auto keep = [&run](Result<std::vector<TranslationResult>> flushed) {
      EXPECT_TRUE(flushed.ok()) << flushed.status().ToString();
      if (!flushed.ok()) return size_t{0};
      std::vector<TranslationResult> results = std::move(flushed).ValueOrDie();
      for (TranslationResult& r : results) run.results.push_back(std::move(r));
      return results.size();
    };
    testing::DriveReplay(
        testing::MergeByTime(visits), loadgen::SteadyScenario().poll_interval,
        [&](const testing::ReplayRecord& r) {
          run.from_ingest += keep(session->Ingest(visits[r.visit].device_id, r.record));
        },
        [&](TimestampMs now) { keep(session->Poll(now)); });
    keep(session->FlushAll());
    run.pending = session->PendingRecords();
    run.stats = service.stats_registry()->Snap();
    return run;
  }

  std::unique_ptr<dsm::Dsm> mall_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
  std::unique_ptr<mobility::MobilityGenerator> generator_;
  std::shared_ptr<const Engine> engine_;
};

TEST_F(ServiceFixture, BatchByteIdenticalToLegacyTranslateAll) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(6, 101);

  // The serial batch reference, which BatchSession must reproduce.
  auto reference = DumpByDevice(testing::ReferenceTranslateAll(*engine_, fleet));

  // The same request through the Service, serial and with real parallelism.
  for (size_t workers : {0u, 1u, 4u}) {
    Service service(engine_, Workers(workers));
    auto response = service.Translate({.sequences = fleet});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->results.size(), fleet.size());
    EXPECT_EQ(DumpByDevice(response->results), reference) << workers << " workers";
    EXPECT_GT(response->total_records, 0u);
    EXPECT_EQ(response->workers_used, workers + 1);
  }
}

TEST_F(ServiceFixture, BatchIdenticalAcrossWorkerCounts) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(5, 113);
  std::vector<std::vector<std::pair<std::string, std::string>>> dumps;
  for (size_t workers : {0u, 1u, 4u}) {
    Service service(engine_, Workers(workers));
    auto response = service.Translate({.sequences = fleet});
    ASSERT_TRUE(response.ok());
    dumps.push_back(DumpByDevice(response->results));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

TEST_F(ServiceFixture, ResultsSortedByDeviceIdRegardlessOfInputOrder) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(6, 127);
  std::vector<positioning::PositioningSequence> shuffled = {
      fleet[4], fleet[1], fleet[5], fleet[0], fleet[3], fleet[2]};

  Service service(engine_, Workers(2));
  auto a = service.Translate({.sequences = fleet});
  auto b = service.Translate({.sequences = shuffled});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 1; i < a->results.size(); ++i) {
    EXPECT_LE(a->results[i - 1].semantics.device_id,
              a->results[i].semantics.device_id);
  }
  // Same devices, same order, same bytes — input order is irrelevant.
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    EXPECT_EQ(a->results[i].semantics.device_id,
              b->results[i].semantics.device_id);
    EXPECT_EQ(SemanticsToJson(a->results[i].semantics).Dump(),
              SemanticsToJson(b->results[i].semantics).Dump());
  }
}

TEST_F(ServiceFixture, ConcurrentBatchSessionsShareOneEngine) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(4, 131);
  Service service(engine_, Workers(2));

  auto reference = service.Translate({.sequences = fleet});
  ASSERT_TRUE(reference.ok());
  auto expected = DumpByDevice(reference->results);

  constexpr int kThreads = 4;
  std::vector<std::vector<std::pair<std::string, std::string>>> got(kThreads);
  std::vector<char> ok(kThreads, 0);  // not vector<bool>: threads write adjacent slots
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = service.NewBatchSession();
      auto response = session->Submit({.sequences = fleet});
      if (!response.ok()) return;
      ok[t] = 1;
      got[t] = DumpByDevice(response->results);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(ok[t]) << "thread " << t;
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
}

TEST_F(ServiceFixture, BatchSessionKeepsLearnedKnowledge) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(5, 139);
  Service service(engine_, {});
  auto session = service.NewBatchSession();
  EXPECT_EQ(session->knowledge().observed_transitions, 0u);  // uniform prior
  auto response = session->Submit({.sequences = fleet});
  ASSERT_TRUE(response.ok());
  EXPECT_GT(session->knowledge().observed_transitions, 0u);
  EXPECT_EQ(session->translated_count(), fleet.size());
}

TEST_F(ServiceFixture, StreamFlushOnIdleAndCapMatchBatch) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(3, 149);
  Service service(engine_, {});

  // Batch with the engine's baseline knowledge (what stream sessions use).
  auto batch = service.NewBatchSession()->Submit(
      {.sequences = fleet, .learn_knowledge = false});
  ASSERT_TRUE(batch.ok());
  auto expected = DumpByDevice(batch->results);

  // Flush-on-idle: ingest everything, then poll far past the flush window.
  auto idle_stream = service.NewStreamSession();
  TimestampMs newest = 0;
  for (const auto& seq : fleet) {
    for (const auto& record : seq.records) {
      ASSERT_TRUE(idle_stream->Ingest(seq.device_id, record).ok());
      newest = std::max(newest, record.timestamp);
    }
  }
  EXPECT_EQ(idle_stream->PendingDevices(), fleet.size());
  auto idle_results = idle_stream->Poll(newest + 11 * kMillisPerMinute);
  ASSERT_TRUE(idle_results.ok());
  EXPECT_EQ(DumpByDevice(*idle_results), expected);
  EXPECT_EQ(idle_stream->PendingDevices(), 0u);

  // Flush-on-cap: a buffer cap equal to each sequence's length makes
  // ingestion itself emit the identical translation.
  std::vector<TranslationResult> cap_results;
  for (const auto& seq : fleet) {
    StreamOptions opt;
    opt.max_buffer_records = seq.records.size();
    auto cap_stream = service.NewStreamSession(opt);
    for (const auto& record : seq.records) {
      auto flushed = cap_stream->Ingest(seq.device_id, record);
      ASSERT_TRUE(flushed.ok());
      std::vector<TranslationResult> emitted = std::move(flushed).ValueOrDie();
      for (TranslationResult& r : emitted) cap_results.push_back(std::move(r));
    }
  }
  EXPECT_EQ(DumpByDevice(cap_results), expected);
}

TEST_F(ServiceFixture, StreamFlushByteIdenticalAcrossBufferShards) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(6, 167);
  Service service(engine_, Workers(2));

  std::vector<std::vector<std::pair<std::string, std::string>>> dumps;
  for (size_t buffer_shards : {1u, 2u, 8u}) {
    StreamOptions opt;
    opt.buffer_shards = buffer_shards;
    auto stream = service.NewStreamSession(opt);
    // Concurrent ingest, one feed thread per device (records of one device
    // must stay ordered; different devices land in different buffer shards).
    std::vector<std::thread> feeds;
    for (const auto& seq : fleet) {
      feeds.emplace_back([&stream, &seq] {
        for (const auto& record : seq.records) {
          auto flushed = stream->Ingest(seq.device_id, record);
          EXPECT_TRUE(flushed.ok());
        }
      });
    }
    for (std::thread& t : feeds) t.join();
    EXPECT_EQ(stream->PendingDevices(), fleet.size());

    auto results = stream->FlushAll();
    ASSERT_TRUE(results.ok());
    // FlushAll gathers from every shard and re-establishes global device-id
    // order before translating.
    for (size_t i = 1; i < results->size(); ++i) {
      EXPECT_LE((*results)[i - 1].semantics.device_id,
                (*results)[i].semantics.device_id);
    }
    dumps.push_back(DumpByDevice(*results));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

TEST_F(ServiceFixture, StreamSinkReceivesFlushedResults) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(2, 151);
  Service service(engine_, {});
  auto stream = service.NewStreamSession();

  std::vector<std::string> delivered;
  stream->SetSink([&](TranslationResult result) {
    delivered.push_back(result.semantics.device_id);
  });

  for (const auto& seq : fleet) {
    for (const auto& record : seq.records) {
      auto flushed = stream->Ingest(seq.device_id, record);
      ASSERT_TRUE(flushed.ok());
      EXPECT_TRUE(flushed->empty());  // sink swallows deliveries
    }
  }
  auto rest = stream->FlushAll();
  ASSERT_TRUE(rest.ok());
  EXPECT_TRUE(rest->empty());
  ASSERT_EQ(delivered.size(), fleet.size());
  EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end()));
  EXPECT_EQ(stream->EmittedCount(), fleet.size());
}

// Regression for the FlushAll data-loss bug: trailing sequences shorter than
// min_flush_records must be translated by the final drain, byte-identical to
// batching the same sequences — not silently dropped.
TEST_F(ServiceFixture, FlushAllTranslatesTrailingShortSequences) {
  // Truncate every device's feed to under min_flush_records (default 4).
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(3, 173);
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].records.resize(1 + i % 3);  // 1, 2, 3 records
  }
  Service service(engine_, {});

  auto batch = service.NewBatchSession()->Submit(
      {.sequences = fleet, .learn_knowledge = false});
  ASSERT_TRUE(batch.ok());
  auto expected = DumpByDevice(batch->results);

  auto stream = service.NewStreamSession();
  for (const auto& seq : fleet) {
    for (const auto& record : seq.records) {
      ASSERT_TRUE(stream->Ingest(seq.device_id, record).ok());
    }
  }
  auto flushed = stream->FlushAll();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(DumpByDevice(*flushed), expected);  // nothing lost, bytes equal
  EXPECT_EQ(stream->PendingRecords(), 0u);

  // Age-based dropping at Poll time is unchanged: the same short buffers are
  // still discarded when the device merely goes idle.
  auto poll_stream = service.NewStreamSession();
  TimestampMs newest = 0;
  for (const auto& seq : fleet) {
    for (const auto& record : seq.records) {
      ASSERT_TRUE(poll_stream->Ingest(seq.device_id, record).ok());
      newest = std::max(newest, record.timestamp);
    }
  }
  auto polled = poll_stream->Poll(newest + 11 * kMillisPerMinute);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled->empty());
  EXPECT_EQ(poll_stream->PendingRecords(), 0u);  // dropped, not retained
}

// A Poll at the newest record's timestamp never flushes the device that sent
// it; once the device has been quiet past flush_after, Poll emits it.
TEST_F(ServiceFixture, StreamPollAtNewestRecordNeverFlushesActiveDevice) {
  const positioning::PositioningSequence seq = MakeFleet(1, 179)[0];
  Service service(engine_, {});
  auto stream = service.NewStreamSession();

  TimestampMs newest = 0;
  for (const auto& record : seq.records) {
    auto flushed = stream->Ingest(seq.device_id, record);
    ASSERT_TRUE(flushed.ok());
    EXPECT_TRUE(flushed->empty());  // cap not reached
    newest = std::max(newest, record.timestamp);
    auto polled = stream->Poll(record.timestamp);
    ASSERT_TRUE(polled.ok());
    EXPECT_TRUE(polled->empty());
  }
  EXPECT_EQ(stream->PendingDevices(), 1u);
  EXPECT_EQ(stream->PendingRecords(), seq.records.size());

  auto results = stream->Poll(newest + 11 * kMillisPerMinute);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].semantics.device_id, seq.device_id);
  EXPECT_FALSE((*results)[0].semantics.Empty());
  EXPECT_EQ(stream->PendingDevices(), 0u);
  EXPECT_EQ(stream->EmittedCount(), 1u);
}

// Devices flush independently: one that went quiet is emitted by the Polls
// of another device's feed, which keeps buffering until FlushAll.
TEST_F(ServiceFixture, StreamIdleDeviceFlushesWhileAnotherStreams) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(2, 181);
  const positioning::PositioningSequence& quiet = fleet[0];
  positioning::PositioningSequence& live = fleet[1];
  TimestampMs quiet_newest = 0;
  for (const auto& record : quiet.records) {
    quiet_newest = std::max(quiet_newest, record.timestamp);
  }
  // Generated feeds start at t=0: the live one now starts an hour after the
  // quiet device's last record.
  for (auto& record : live.records) record.timestamp += quiet_newest + kMillisPerHour;

  Service service(engine_, {});
  auto stream = service.NewStreamSession();
  for (const auto& record : quiet.records) {
    ASSERT_TRUE(stream->Ingest(quiet.device_id, record).ok());
  }
  std::vector<std::string> emitted;
  for (const auto& record : live.records) {
    ASSERT_TRUE(stream->Ingest(live.device_id, record).ok());
    auto polled = stream->Poll(record.timestamp);
    ASSERT_TRUE(polled.ok());
    for (const TranslationResult& result : *polled) {
      emitted.push_back(result.semantics.device_id);
    }
  }
  EXPECT_EQ(emitted, std::vector<std::string>{quiet.device_id});
  EXPECT_EQ(stream->PendingDevices(), 1u);

  auto rest = stream->FlushAll();
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->size(), 1u);
  EXPECT_EQ((*rest)[0].semantics.device_id, live.device_id);
  EXPECT_EQ(stream->PendingRecords(), 0u);
}

// The steady scenario's flush policy over overlapping, bursty arrivals loses
// nothing: every ingested record reaches a translated buffer, no buffer is
// dropped, nothing stays pending, and the output is the same at any worker
// count.
TEST_F(ServiceFixture, StreamReplayLosesNothingAtAnyWorkerCount) {
  const std::vector<positioning::PositioningSequence> visits = ReplayVisits(241);
  ASSERT_EQ(visits.size(), 24u);
  const StreamOptions stream = loadgen::SteadyScenario().stream;
  std::vector<std::vector<std::pair<std::string, std::string>>> dumps;
  for (size_t workers : {0u, 1u, 4u}) {
    const ReplayRun run = RunReplay(visits, stream, workers);
    const uint64_t ingested = run.stats.counter_or("stream.records_ingested");
    EXPECT_GT(ingested, 0u) << workers;
    EXPECT_EQ(ingested, run.stats.counter_or("stream.flush_records")) << workers;
    EXPECT_EQ(run.stats.counter_or("stream.dropped_small_buffers"), 0u) << workers;
    EXPECT_EQ(run.pending, 0u) << workers;
    EXPECT_EQ(run.results.size(), visits.size()) << workers;
    dumps.push_back(DumpByDevice(run.results));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

// A buffer cap small enough that visits flush inline from Ingest, mixed with
// Poll flushes: the output is the same at any worker count, and every record
// is translated. No visit is shorter than min_flush_records, and the tail a
// cap flush leaves is translated however short, so nothing is dropped.
TEST_F(ServiceFixture, StreamReplayCapFlushesAccountForEveryRecord) {
  const std::vector<positioning::PositioningSequence> visits = ReplayVisits(251);
  StreamOptions stream = loadgen::SteadyScenario().stream;
  stream.max_buffer_records = 32;
  for (const auto& visit : visits) {
    ASSERT_GE(visit.records.size(), stream.min_flush_records);
  }
  std::vector<std::vector<std::pair<std::string, std::string>>> dumps;
  for (size_t workers : {0u, 1u, 4u}) {
    const ReplayRun run = RunReplay(visits, stream, workers);
    EXPECT_GT(run.from_ingest, 0u) << workers;
    const uint64_t ingested = run.stats.counter_or("stream.records_ingested");
    EXPECT_GT(ingested, 0u) << workers;
    EXPECT_EQ(run.stats.counter_or("stream.flush_records"), ingested) << workers;
    EXPECT_EQ(run.stats.counter_or("stream.dropped_small_buffers"), 0u) << workers;
    EXPECT_EQ(run.pending, 0u) << workers;
    dumps.push_back(DumpByDevice(run.results));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

// The zero-loss checks above catch a lossy stream: with min_flush_records
// above every visit's length, each Poll flush drops its buffer.
TEST_F(ServiceFixture, StreamReplayLossIsCaught) {
  const std::vector<positioning::PositioningSequence> visits = ReplayVisits(241);
  StreamOptions stream = loadgen::SteadyScenario().stream;
  stream.min_flush_records = 10'000;
  for (const auto& visit : visits) ASSERT_LT(visit.records.size(), 10'000u);
  const ReplayRun run = RunReplay(visits, stream, 0);
  EXPECT_GT(run.stats.counter_or("stream.dropped_small_buffers"), 0u);
  EXPECT_GT(run.stats.counter_or("stream.records_ingested"),
            run.stats.counter_or("stream.flush_records"));
}

// min_flush_records rules age-based flushes only: a buffer that reaches the
// cap is translated however large min_flush_records is, so one long visit
// loses no record between its cap flushes and the final FlushAll.
TEST_F(ServiceFixture, StreamCapFlushIgnoresMinFlushRecords) {
  const positioning::PositioningSequence visit = MakeFleet(1, 271)[0];
  StreamOptions options;
  options.max_buffer_records = 32;
  options.min_flush_records = 10'000;
  ASSERT_GT(visit.records.size(), 4 * options.max_buffer_records);
  Service service(engine_, {});
  auto stream = service.NewStreamSession(options);
  size_t from_ingest = 0;
  for (const auto& record : visit.records) {
    auto flushed = stream->Ingest(visit.device_id, record);
    ASSERT_TRUE(flushed.ok());
    from_ingest += flushed->size();
  }
  ASSERT_TRUE(stream->FlushAll().ok());

  const obs::MetricsSnapshot snap = service.stats_registry()->Snap();
  EXPECT_GT(from_ingest, 0u);
  EXPECT_EQ(snap.counter_or("stream.flush_records"),
            snap.counter_or("stream.records_ingested"));
  EXPECT_EQ(snap.counter_or("stream.records_ingested"), visit.records.size());
  EXPECT_EQ(snap.counter_or("stream.dropped_small_buffers"), 0u);
}

// The tail a cap flush leaves of a long visit is translated when the device
// goes idle, however short: min_flush_records rules only a buffer that never
// reached the cap. A visit that ends exactly on a cap flush leaves an empty
// entry behind, which is neither pending nor dropped, and which a device
// returning after flush_after does not inherit.
TEST_F(ServiceFixture, StreamCapTailIsNotAgeDropped) {
  std::vector<positioning::PositioningSequence> fleet = MakeFleet(2, 277);
  StreamOptions options;
  options.max_buffer_records = 32;
  const size_t tail = 2;
  ASSERT_LT(tail, options.min_flush_records);
  ASSERT_GT(fleet[0].records.size(), 4 * options.max_buffer_records + tail);
  ASSERT_GT(fleet[1].records.size(), 4 * options.max_buffer_records);
  fleet[0].records.resize(4 * options.max_buffer_records + tail);
  fleet[1].records.resize(4 * options.max_buffer_records);

  Service service(engine_, {});
  auto stream = service.NewStreamSession(options);
  size_t from_ingest = 0;
  TimestampMs last = 0;
  for (const auto& seq : fleet) {
    for (const auto& record : seq.records) {
      auto flushed = stream->Ingest(seq.device_id, record);
      ASSERT_TRUE(flushed.ok());
      from_ingest += flushed->size();
      last = std::max(last, record.timestamp);
    }
  }
  EXPECT_EQ(from_ingest, 8u);
  EXPECT_EQ(stream->PendingDevices(), 1u);
  EXPECT_EQ(stream->PendingRecords(), tail);

  auto polled = stream->Poll(last + options.flush_after);
  ASSERT_TRUE(polled.ok());
  ASSERT_EQ(polled->size(), 1u);
  EXPECT_EQ((*polled)[0].semantics.device_id, fleet[0].device_id);
  EXPECT_EQ((*polled)[0].raw.records.size(), tail);
  EXPECT_EQ(stream->PendingDevices(), 0u);
  EXPECT_EQ(stream->PendingRecords(), 0u);

  const obs::MetricsSnapshot snap = service.stats_registry()->Snap();
  EXPECT_EQ(snap.counter_or("stream.records_ingested"),
            fleet[0].records.size() + fleet[1].records.size());
  EXPECT_EQ(snap.counter_or("stream.flush_records"),
            snap.counter_or("stream.records_ingested"));
  EXPECT_EQ(snap.counter_or("stream.dropped_small_buffers"), 0u);
  EXPECT_EQ(snap.gauge_or("stream.buffered_records", -1), 0);

  // The second device's visit ends on a cap flush, and no Poll runs before
  // the device comes back after flush_after with two stray fixes: those
  // start a new visit, so Poll drops them as it drops any short buffer.
  Service returning_service(engine_, {});
  auto returning = returning_service.NewStreamSession(options);
  for (const auto& record : fleet[1].records) {
    ASSERT_TRUE(returning->Ingest(fleet[1].device_id, record).ok());
  }
  TimestampMs stray_last = 0;
  for (size_t i = 0; i < tail; ++i) {
    positioning::RawRecord stray = fleet[1].records[i];
    stray.timestamp = fleet[1].records.back().timestamp + options.flush_after +
                      static_cast<TimestampMs>(i) * 1000;
    stray_last = stray.timestamp;
    auto flushed = returning->Ingest(fleet[1].device_id, stray);
    ASSERT_TRUE(flushed.ok());
    EXPECT_TRUE(flushed->empty());
  }
  EXPECT_EQ(returning->PendingRecords(), tail);
  auto stray_polled = returning->Poll(stray_last + options.flush_after);
  ASSERT_TRUE(stray_polled.ok());
  EXPECT_TRUE(stray_polled->empty());
  EXPECT_EQ(returning->PendingDevices(), 0u);
  const obs::MetricsSnapshot returning_snap =
      returning_service.stats_registry()->Snap();
  EXPECT_EQ(returning_snap.counter_or("stream.flush_records"),
            fleet[1].records.size());
  EXPECT_EQ(returning_snap.counter_or("stream.dropped_small_buffers"), 1u);
}

// One Poll that releases many buffers translates them over the pool, yet
// delivers exactly as a serial flush does: the same bytes at any worker
// count, every result on the thread that called Poll, in device-id order,
// and one flush counted per released buffer.
TEST_F(ServiceFixture, StreamFlushFansOutInDeviceOrder) {
  constexpr size_t kDevices = 72;
  constexpr size_t kRecords = 40;
  std::vector<positioning::PositioningSequence> fleet =
      MakeFleet(static_cast<int>(kDevices), 281);
  TimestampMs last = 0;
  for (auto& seq : fleet) {
    ASSERT_GE(seq.records.size(), kRecords);
    seq.records.resize(kRecords);
    last = std::max(last, seq.records.back().timestamp);
  }
  std::vector<std::vector<std::pair<std::string, std::string>>> dumps;
  for (size_t workers : {0u, 1u, 4u}) {
    Service service(engine_, Workers(workers));
    auto stream = service.NewStreamSession();
    std::vector<TranslationResult> delivered;
    std::vector<std::thread::id> threads;
    stream->SetSink([&](TranslationResult result) {
      threads.push_back(std::this_thread::get_id());
      delivered.push_back(std::move(result));
    });
    // Round-robin across devices, as a live feed interleaves them.
    for (size_t r = 0; r < kRecords; ++r) {
      for (const auto& seq : fleet) {
        ASSERT_TRUE(stream->Ingest(seq.device_id, seq.records[r]).ok());
      }
    }
    ASSERT_TRUE(delivered.empty());
    auto polled = stream->Poll(last + StreamOptions{}.flush_after);
    ASSERT_TRUE(polled.ok());
    EXPECT_TRUE(polled->empty());  // everything went to the sink

    ASSERT_EQ(delivered.size(), kDevices) << workers;
    for (size_t i = 0; i < delivered.size(); ++i) {
      EXPECT_EQ(threads[i], std::this_thread::get_id()) << workers;
      if (i > 0) {
        EXPECT_LT(delivered[i - 1].semantics.device_id,
                  delivered[i].semantics.device_id)
            << workers;
      }
    }
    const obs::MetricsSnapshot snap = service.stats_registry()->Snap();
    EXPECT_EQ(snap.counter_or("stream.flushes"), kDevices) << workers;
    EXPECT_EQ(snap.counter_or("stream.flush_records"), kDevices * kRecords) << workers;
    const obs::HistogramSummary* latency =
        snap.histogram("stream.ingest_to_result_ns");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, kDevices) << workers;
    EXPECT_EQ(stream->PendingRecords(), 0u) << workers;
    dumps.push_back(DumpByDevice(delivered));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

// A record without a device id is rejected at the front door and counted,
// and the session buffers nothing for it.
TEST_F(ServiceFixture, StreamRejectsEmptyDeviceId) {
  const positioning::PositioningSequence seq = MakeFleet(1, 193)[0];
  Service service(engine_, {});
  auto stream = service.NewStreamSession();
  for (const auto& record : seq.records) {
    EXPECT_EQ(stream->Ingest("", record).status().code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(stream->Ingest(seq.device_id, seq.records[0]).ok());
  EXPECT_EQ(stream->PendingRecords(), 1u);

  const obs::MetricsSnapshot snap = service.stats_registry()->Snap();
  EXPECT_EQ(snap.counter_or("stream.rejected_records"), seq.records.size());
  EXPECT_EQ(snap.counter_or("stream.records_ingested"), 1u);
  auto flushed = stream->FlushAll();
  ASSERT_TRUE(flushed.ok());
  ASSERT_EQ(flushed->size(), 1u);
  EXPECT_EQ((*flushed)[0].semantics.device_id, seq.device_id);
}

}  // namespace
}  // namespace trips::core
