#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dsm/sample_spaces.h"
#include "loadgen/event_list.h"
#include "loadgen/harness.h"
#include "loadgen/scenario.h"
#include "mobility/generator.h"

namespace trips::loadgen {
namespace {

// ---- EventList --------------------------------------------------------------

// An event source that records its firing times.
class Recorder : public EventSource {
 public:
  explicit Recorder(std::vector<std::pair<TimestampMs, int>>* log, int id)
      : log_(log), id_(id) {}
  void DoNextEvent(EventList*, TimestampMs now) override {
    log_->push_back({now, id_});
  }

 private:
  std::vector<std::pair<TimestampMs, int>>* log_;
  int id_;
};

TEST(LoadgenEventList, DispatchesInTimeThenScheduleOrder) {
  EventList events;
  std::vector<std::pair<TimestampMs, int>> log;
  Recorder a(&log, 1), b(&log, 2), c(&log, 3);
  events.Schedule(&a, 50);
  events.Schedule(&b, 10);
  events.Schedule(&c, 50);  // same time as a: must fire after a
  events.Schedule(&b, 20);
  while (events.DoNextEvent()) {
  }
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], (std::pair<TimestampMs, int>{10, 2}));
  EXPECT_EQ(log[1], (std::pair<TimestampMs, int>{20, 2}));
  EXPECT_EQ(log[2], (std::pair<TimestampMs, int>{50, 1}));
  EXPECT_EQ(log[3], (std::pair<TimestampMs, int>{50, 3}));
  EXPECT_EQ(events.now(), 50);
  EXPECT_EQ(events.dispatched(), 4u);
  EXPECT_EQ(events.NextTime(), EventList::kNone);
}

TEST(LoadgenEventList, SchedulingThePastClampsToNow) {
  EventList events;
  std::vector<std::pair<TimestampMs, int>> log;
  Recorder a(&log, 1);
  events.Schedule(&a, 100);
  events.DoNextEvent();
  events.Schedule(&a, 5);  // in the past: fires at now (100), not 5
  events.DoNextEvent();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 100);
}

TEST(LoadgenEventList, PeriodicTriggerFiresUntilStopped) {
  EventList events;
  std::vector<TimestampMs> fired;
  PeriodicTrigger trigger([&fired](TimestampMs now) { fired.push_back(now); },
                          10);
  trigger.Start(&events, 10);
  events.RunUntil(35);
  trigger.Stop();
  while (events.DoNextEvent()) {  // pending firing dispatches as a no-op
  }
  EXPECT_EQ(fired, (std::vector<TimestampMs>{10, 20, 30}));
}

TEST(LoadgenEventList, NowNanosTracksTheClock) {
  EventList events;
  EXPECT_EQ(events.now_nanos(), 1'000'000u);  // +1ms so time zero stamps nonzero
  std::vector<std::pair<TimestampMs, int>> log;
  Recorder a(&log, 1);
  events.Schedule(&a, 250);
  events.DoNextEvent();
  EXPECT_EQ(events.now_nanos(), 251u * 1'000'000u);
}

// ---- latency summary --------------------------------------------------------

TEST(LoadgenLatency, NearestRankQuantiles) {
  std::vector<uint64_t> ns;
  for (uint64_t i = 1; i <= 100; ++i) ns.push_back(i * 1'000'000);  // 1..100ms
  LatencySummary s = SummarizeLatencyNs(ns);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_ms, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 99.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 50.5);

  EXPECT_EQ(SummarizeLatencyNs({}).count, 0u);
  LatencySummary one = SummarizeLatencyNs({7'000'000});
  EXPECT_DOUBLE_EQ(one.p50_ms, 7.0);
  EXPECT_DOUBLE_EQ(one.p99_ms, 7.0);
}

// ---- scenario harness -------------------------------------------------------

class LoadgenFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
    ASSERT_TRUE(mall.ok());
    mall_ = std::make_unique<dsm::Dsm>(std::move(mall).ValueOrDie());
    auto planner = dsm::RoutePlanner::Build(mall_.get());
    ASSERT_TRUE(planner.ok());
    planner_ =
        std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
    auto engine = core::Engine::Builder().BorrowDsm(mall_.get()).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = *engine;
  }

  // A scenario small enough for unit tests, seeded and fully deterministic.
  ScenarioConfig SmallScenario() {
    ScenarioConfig config = SteadyScenario();
    config.seed = 7;
    config.max_sessions = 24;
    config.session_templates = 6;
    config.arrivals_per_min = 60;
    config.duration = 10 * kMillisPerMinute;
    config.noise.floor_count = 2;
    return config;
  }

  ScenarioResult Run(const ScenarioConfig& config, size_t workers) {
    mobility::MobilityGenerator generator(mall_.get(), planner_.get(),
                                          config.mobility);
    auto result = RunScenario(config, generator,
                              [&](const core::StreamOptions& stream) {
                                return MakeServiceTarget(engine_, workers,
                                                         stream);
                              });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).ValueOrDie() : ScenarioResult{};
  }

  ScenarioResult RunCluster(const ScenarioConfig& config, size_t venues,
                            size_t workers) {
    mobility::MobilityGenerator generator(mall_.get(), planner_.get(),
                                          config.mobility);
    auto result = RunScenario(config, generator,
                              [&](const core::StreamOptions& stream) {
                                return MakeClusterTarget(engine_, venues,
                                                         workers, stream);
                              });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).ValueOrDie() : ScenarioResult{};
  }

  std::unique_ptr<dsm::Dsm> mall_;
  std::unique_ptr<dsm::RoutePlanner> planner_;
  std::shared_ptr<const core::Engine> engine_;
};

// The determinism contract: one (config, seed) produces one event schedule
// and one set of counters at any worker count.
TEST_F(LoadgenFixture, DeterministicAcrossWorkerCounts) {
  const ScenarioConfig config = SmallScenario();
  const ScenarioResult serial = Run(config, 0);
  ASSERT_GT(serial.records_offered, 0u);
  EXPECT_EQ(serial.records_offered, serial.records_ingested);
  EXPECT_EQ(serial.pending_after_flush, 0u);
  EXPECT_EQ(serial.dropped_small_buffers, 0u);
  EXPECT_TRUE(serial.slo_pass) << ScenarioResultJson(serial).Pretty();

  for (size_t workers : {1u, 4u}) {
    const ScenarioResult r = Run(config, workers);
    EXPECT_EQ(r.schedule_hash, serial.schedule_hash) << workers;
    EXPECT_EQ(r.sessions_started, serial.sessions_started);
    EXPECT_EQ(r.records_offered, serial.records_offered);
    EXPECT_EQ(r.records_ingested, serial.records_ingested);
    EXPECT_EQ(r.results_delivered, serial.results_delivered);
    EXPECT_EQ(r.flushes, serial.flushes);
    EXPECT_EQ(r.dropped_small_buffers, serial.dropped_small_buffers);
    // Unpaced latency lives on the simulated clock: exact equality holds.
    EXPECT_EQ(r.latency.count, serial.latency.count);
    EXPECT_DOUBLE_EQ(r.latency.p50_ms, serial.latency.p50_ms);
    EXPECT_DOUBLE_EQ(r.latency.p99_ms, serial.latency.p99_ms);
  }
}

TEST_F(LoadgenFixture, ClusterRunsAreDeterministicToo) {
  ScenarioConfig config = SmallScenario();
  const ScenarioResult serial = RunCluster(config, 3, 0);
  ASSERT_GT(serial.records_offered, 0u);
  EXPECT_EQ(serial.target, "cluster[3]");
  EXPECT_EQ(serial.records_offered, serial.records_ingested);
  EXPECT_EQ(serial.pending_after_flush, 0u);

  const ScenarioResult parallel = RunCluster(config, 3, 4);
  EXPECT_EQ(parallel.schedule_hash, serial.schedule_hash);
  EXPECT_EQ(parallel.records_ingested, serial.records_ingested);
  EXPECT_EQ(parallel.results_delivered, serial.results_delivered);
  EXPECT_EQ(parallel.dropped_small_buffers, serial.dropped_small_buffers);
  EXPECT_DOUBLE_EQ(parallel.latency.p99_ms, serial.latency.p99_ms);
}

// Degenerate scenarios terminate without hangs or division by zero.
TEST_F(LoadgenFixture, DegenerateScenariosTerminate) {
  // Zero devices: the run is polls + samples only.
  ScenarioConfig none = SmallScenario();
  none.max_sessions = 0;
  const ScenarioResult empty = Run(none, 0);
  EXPECT_EQ(empty.sessions_started, 0u);
  EXPECT_EQ(empty.records_offered, 0u);
  EXPECT_EQ(empty.latency.count, 0u);
  EXPECT_TRUE(empty.slo_pass);

  // A single session.
  ScenarioConfig one = SmallScenario();
  one.max_sessions = 1;
  one.session_templates = 1;
  const ScenarioResult single = Run(one, 0);
  EXPECT_EQ(single.sessions_started, 1u);
  EXPECT_GT(single.records_offered, 0u);
  EXPECT_EQ(single.pending_after_flush, 0u);

  // Burst factor 1.0 with certain bursts: every arrival is a "burst" of one.
  ScenarioConfig burst = SmallScenario();
  burst.heavy_tail_prob = 1.0;
  burst.heavy_tail_mult = 1.0;
  const ScenarioResult bursty = Run(burst, 0);
  EXPECT_GT(bursty.sessions_started, 0u);

  // Full-depth diurnal trough at t=0 (rate 0 there): thinning must not spin.
  ScenarioConfig diurnal = SmallScenario();
  diurnal.diurnal_amplitude = 1.0;
  diurnal.diurnal_period = diurnal.duration;
  diurnal.diurnal_phase = -1.5707963267948966;  // -pi/2
  const ScenarioResult ramped = Run(diurnal, 0);
  EXPECT_EQ(ramped.pending_after_flush, 0u);

  // Zero arrival rate: no sessions ever start.
  ScenarioConfig silent = SmallScenario();
  silent.arrivals_per_min = 0;
  const ScenarioResult quiet = Run(silent, 0);
  EXPECT_EQ(quiet.sessions_started, 0u);
}

TEST_F(LoadgenFixture, InvalidConfigsAreRejected) {
  mobility::MobilityGenerator generator(mall_.get(), planner_.get(), {});
  auto factory = [&](const core::StreamOptions& stream) {
    return MakeServiceTarget(engine_, 0, stream);
  };
  ScenarioConfig bad = SmallScenario();
  bad.poll_interval = 0;
  EXPECT_FALSE(RunScenario(bad, generator, factory).ok());
  bad = SmallScenario();
  bad.sample_interval = -5;
  EXPECT_FALSE(RunScenario(bad, generator, factory).ok());
  bad = SmallScenario();
  bad.session_templates = 0;
  EXPECT_FALSE(RunScenario(bad, generator, factory).ok());
}

// An injected violation trips the gate; the same run gated generously passes.
TEST_F(LoadgenFixture, SloAssertionCatchesInjectedViolation) {
  ScenarioConfig config = SmallScenario();
  config.slo.p99_ms = 0.001;  // deliberately unmeetable: sim latency is minutes
  const ScenarioResult tight = Run(config, 0);
  ASSERT_GT(tight.latency.count, 0u);
  EXPECT_FALSE(tight.slo_pass);
  ASSERT_FALSE(tight.violations.empty());
  bool saw_p99 = false;
  for (const SloViolation& v : tight.violations) saw_p99 |= v.what == "p99_ms";
  EXPECT_TRUE(saw_p99);

  // Re-gate the same result generously: ApplySlo is re-entrant.
  ScenarioResult regated = tight;
  ApplySlo(&regated, ScenarioConfig::DefaultSlo());
  EXPECT_TRUE(regated.slo_pass) << ScenarioResultJson(regated).Pretty();

  // Data-loss injection: make age-flushes drop everything under 10k records —
  // the zero-drop gate fires.
  ScenarioConfig lossy = SmallScenario();
  lossy.stream.min_flush_records = 10'000;
  const ScenarioResult dropped = Run(lossy, 0);
  EXPECT_GT(dropped.dropped_small_buffers, 0u);
  EXPECT_FALSE(dropped.slo_pass);
}

// The report JSON is well-formed and carries the fields CI greps for.
TEST_F(LoadgenFixture, ReportJsonRoundTrips) {
  ScenarioConfig config = SmallScenario();
  const ScenarioResult result = Run(config, 2);
  const json::Value report = SloReportJson({result});
  auto parsed = json::Parse(report.Pretty());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Object& o = parsed.ValueOrDie().AsObject();
  ASSERT_TRUE(o.Contains("slo_pass"));
  ASSERT_TRUE(o.Contains("results"));
  const json::Array& rows = o.Find("results")->AsArray();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].AsObject().Find("scenario")->AsString(), "steady");
  EXPECT_EQ(rows[0].AsObject().Find("target")->AsString(), "service");
  EXPECT_TRUE(rows[0].AsObject().Contains("latency"));

  // Scenario echo is parseable too.
  auto echo = json::Parse(ScenarioJson(config).Dump());
  EXPECT_TRUE(echo.ok());
}

}  // namespace
}  // namespace trips::loadgen
